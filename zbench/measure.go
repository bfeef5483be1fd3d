package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// cpuNow returns the process CPU time, user plus system over every
// thread (GC workers included), in nanoseconds. Wall time on a shared
// VM mostly measures the neighbours; process CPU time excludes the time
// the hypervisor steals.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, falling
// back to getrusage's ru_maxrss where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostTicks reads the aggregate "cpu" line of /proc/stat: the steal
// ticks and the total of every non-guest field. ok is false where the
// file is unavailable.
func hostTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so only the first eight add up.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the host's steal fraction over a window.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := hostTicks()
	return stealMeter{steal: s, total: t, ok: ok}
}

// frac returns the stolen share of host CPU ticks since the meter
// started, or -1 when /proc/stat is unavailable.
func (m stealMeter) frac() float64 {
	s, t, ok := hostTicks()
	if !m.ok || !ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// Runtime counters read through runtime/metrics. The allocation counts
// are flushed per mcache span, so a count over a short interval can be
// off by the objects still cached; counts over whole ops are close to
// exact, and the partition/remap per-call counts use ReadMemStats.
const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
)

// runtimeStats is one snapshot of the runtime counters the benchmark
// reports.
type runtimeStats struct {
	allocs, bytes, gcCycles uint64
	gcCPU                   float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: mAllocObjects}, {Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}}
	metrics.Read(s)
	return runtimeStats{
		allocs:   s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
	}
}

// minBeyond is the number of samples that must lie above a reported
// percentile, so a tail figure never rests on a handful of ops.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1):
// the value at rank ceil(q·N), clamped to [1, N]. It refuses a
// percentile with fewer than minBeyond samples above it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of an empty sample")
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want >= %d", 100*q, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the nearest-rank median without the tail guard.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (len(s) + 1) / 2
	if rank < 1 {
		return 0
	}
	return s[rank-1]
}
