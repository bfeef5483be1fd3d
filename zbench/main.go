// Command zbench is the repository's end-to-end benchmark. It drives
// three closed-loop workloads through the public pkg/zeppelin API, one
// goroutine issuing one op at a time from a fixed op list generated
// from --seed, and times every op in process CPU (getrusage user+sys).
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) replay the same op list with spans around the calls into
// each module and report per-layer metrics. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. See README.md for the workloads, metrics and seeds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// setupReps is how many times a run builds its op list, API objects and
// warm-up before timing; setup_s reports the median.
const setupReps = 5

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// Everything the runtime did before main counts toward set-up.
	startCPU := cpuNow()
	workload := flag.String("workload", "", "workload: plan-fig8, campaign-drift or serve-burst")
	seed := flag.Int64("seed", 1, "workload seed; the same seed yields the same op list")
	seconds := flag.Int("seconds", 30, "nominal run length; sizes the fixed op list")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: zbench --workload %v --seed N --seconds N --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	res, err := run(context.Background(), *workload, *seed, *seconds, *trace == 1, startCPU)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, then runs it traced or untraced.
func run(ctx context.Context, workload string, seed int64, seconds int, traced bool, startCPU int64) (*result, error) {
	var units []int64
	var a *api
	var reps []float64
	for i := 0; i < setupReps; i++ {
		c0 := cpuNow()
		units = unitSeeds(workload, seed, seconds)
		var err error
		if a, err = newAPI(); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, a, workload); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		runtime.GC()
		reps = append(reps, float64(cpuNow()-c0)/1e9)
	}
	setupS := float64(startCPU)/1e9 + median(reps)
	fmt.Printf("host: GOMAXPROCS=%d NumCPU=%d %s %s/%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("run: workload=%s seed=%d seconds=%d units=%d trace=%v\n", workload, seed, seconds, len(units), traced)
	fmt.Printf("setup: runtime start %.4fs, set-ups %v s (median of %d)\n", float64(startCPU)/1e9, reps, setupReps)
	if traced {
		return runTraced(ctx, a, workload, units)
	}
	return runTimed(ctx, a, workload, units, setupS)
}

// warmUp runs a fixed untimed op list with a seed outside the timed set:
// a quarter of a grid pass (every cell and dataset once, the methods in
// rotation), or one campaign.
func warmUp(ctx context.Context, a *api, workload string) error {
	var t opTimer
	var o outcome
	switch workload {
	case planFig8:
		for i, req := range fig8Pass(warmSeed) {
			if i%len(fig8Methods) == (i/len(fig8Methods))%len(fig8Methods) {
				a.runPlan(ctx, req, &t, &o)
			}
		}
	case campaignDrift:
		a.runDrift(ctx, warmSeed, &t, &o)
	case serveBurst:
		a.runServe(ctx, warmSeed, &t, &o)
	}
	if o.failed > 0 {
		return fmt.Errorf("%d failed ops: %v", o.failed, o.failures)
	}
	return nil
}

// runOps runs every unit of the op list untraced and sets o.first to
// the JSON of the run's first op. With keep, it also returns each unit's
// public outputs as JSON: the plan responses of a pass, or a campaign's
// report.
func runOps(ctx context.Context, a *api, workload string, units []int64, t *opTimer, o *outcome, keep bool) [][][]byte {
	// A failed op keeps its place as nil, so outputs stay aligned with
	// the op list.
	encode := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			o.fail("encode %T: %v", v, err)
		}
		return b
	}
	var kept [][][]byte
	for i, s := range units {
		var outs [][]byte
		switch workload {
		case planFig8:
			for j, req := range fig8Pass(s) {
				resp := a.runPlan(ctx, req, t, o)
				if keep || i == 0 && j == 0 {
					var b []byte
					if resp != nil {
						b = encode(resp)
					}
					outs = append(outs, b)
				}
			}
		case campaignDrift:
			var b []byte
			if rep := a.runDrift(ctx, s, t, o); rep != nil && (keep || i == 0) {
				b = encode(rep)
			}
			outs = append(outs, b)
		case serveBurst:
			var b []byte
			if rep := a.runServe(ctx, s, t, o); rep != nil {
				if i == 0 {
					o.first = encode(rep.Events[0])
				}
				if keep {
					b = encode(rep)
				}
			}
			outs = append(outs, b)
		}
		if i == 0 && workload != serveBurst {
			o.first = outs[0]
		}
		if keep {
			kept = append(kept, outs)
		}
	}
	return kept
}

// runTimed measures the op list untraced and reports the end-to-end
// metrics.
func runTimed(ctx context.Context, a *api, workload string, units []int64, setupS float64) (*result, error) {
	var t opTimer
	var o outcome
	setupRSS := peakRSSMB()
	steal := startSteal()
	wall0 := time.Now()
	runOps(ctx, a, workload, units, &t, &o, false)
	wall := time.Since(wall0).Seconds()
	stealFrac := steal.frac()
	rss := peakRSSMB()

	// Re-issue the first op: a deterministic service answers it
	// byte for byte the same.
	again, err := a.firstOp(ctx, workload, units[0])
	if err != nil || !bytes.Equal(again, o.first) {
		o.fail("re-issued first op differs from the first answer (err %v)", err)
	}

	n := len(t.cpuMS)
	var cpuS float64
	for _, ms := range t.cpuMS {
		cpuS += ms / 1e3
	}
	p50, err := percentile(t.cpuMS, 0.5)
	if err != nil {
		return nil, fmt.Errorf("op_cpu_p50_ms: %w", err)
	}
	p90, err := percentile(t.cpuMS, 0.9)
	if err != nil {
		return nil, fmt.Errorf("op_cpu_p90_ms: %w", err)
	}
	wp50, _ := percentile(t.wallMS, 0.5)
	wp90, _ := percentile(t.wallMS, 0.9)
	failedFrac := float64(o.failed) / float64(n)

	fmt.Printf("ops: %d timed, %.3f CPU-s, %.3f wall-s\n", n, cpuS, wall)
	fmt.Printf("diag: steal_frac=%.4f wall_ops_per_s=%.3f op_wall_p50_ms=%.3f op_wall_p90_ms=%.3f rss_peak_after_setup_mb=%.3f\n",
		stealFrac, float64(n)/wall, wp50, wp90, setupRSS)
	for _, f := range o.failures {
		fmt.Println("FAIL:", f)
	}
	if c := o.overL; c.over > 0 {
		fmt.Printf("finding: %d of %d Zeppelin plans put a rank above L (worst %.3f L); see README.md\n", c.over, c.plans, c.worst)
	}
	m := map[string]metric{
		"setup_s":              {setupS, "s"},
		"ops_per_cpu_s":        {float64(n) / cpuS, "op/s"},
		"op_cpu_p50_ms":        {p50, "ms"},
		"op_cpu_p90_ms":        {p90, "ms"},
		"rss_peak_mb":          {rss, "MB"},
		"modeled_tokens_per_s": {o.tput.mean(), "tokens/s"},
		"modeled_imbalance":    {o.imbalance.mean(), "ratio"},
	}
	printMetrics(m)
	// failed_frac is 0 on a correct run, so it is printed beside the
	// metrics but not declared as one: a metric must never read 0.
	fmt.Printf("  %-24s %-18.6g %s\n", "failed_frac", failedFrac, "ratio")
	return &result{Correct: o.failed == 0, Attempted: n, Failed: o.failed, Metrics: m}, nil
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("  %-24s %-18.10g %s\n", k, m[k].Value, m[k].Unit)
	}
}
