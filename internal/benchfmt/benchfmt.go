// Package benchfmt defines the benchmark-artifact JSON schema shared by
// the CI bench-regression gate and local tooling: cmd/benchgate parses
// `go test -bench` text output into it and compares artifacts against a
// checked-in baseline, and zeppelin-loadgen -bench emits its service
// throughput in the same shape. One schema means a CI artifact
// (BENCH_pr8.json) and a laptop run diff cleanly.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurement.
type Result struct {
	// Name is the benchmark identifier with the -GOMAXPROCS suffix
	// stripped (sub-benchmarks keep their slash-separated path).
	Name string `json:"name"`
	// Samples is how many runs (-count) were aggregated into this result.
	Samples int `json:"samples"`
	// Iters is b.N of the fastest sample.
	Iters int `json:"iters"`
	// NsPerOp is the minimum ns/op across samples — the least-noise
	// aggregate, standard for regression gating.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp are the -benchmem columns (minimum across
	// samples; 0 when -benchmem was off).
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric values (last sample wins).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is a benchmark artifact.
type File struct {
	// Source identifies what produced the artifact ("go test -bench" or
	// "zeppelin-loadgen").
	Source string `json:"source,omitempty"`
	// Goos/Goarch/CPU are copied from the bench header when present.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Results are sorted by name for stable diffs.
	Results []Result `json:"results"`
}

// Get returns the named result, or nil.
func (f *File) Get(name string) *Result {
	for i := range f.Results {
		if f.Results[i].Name == name {
			return &f.Results[i]
		}
	}
	return nil
}

// benchLine matches "BenchmarkX-8   123   456.7 ns/op ..." data lines.
var benchLine = regexp.MustCompile(`^(Benchmark\S*)\s+(\d+)\s+(.*)$`)

// gomaxprocsSuffix strips the trailing -N processor count from a name.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` text output and aggregates repeated
// samples of each benchmark (from -count N) into one Result, taking the
// minimum ns/op, B/op, and allocs/op.
func Parse(r io.Reader) (*File, error) {
	f := &File{Source: "go test -bench"}
	byName := make(map[string]*Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			f.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			f.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			f.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		iters, err := strconv.Atoi(m[2])
		if err != nil {
			return nil, fmt.Errorf("benchfmt: bad iteration count in %q", line)
		}
		sample := Result{Name: name, Samples: 1, Iters: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				sample.NsPerOp = v
			case "B/op":
				sample.BytesPerOp = v
			case "allocs/op":
				sample.AllocsPerOp = v
			default:
				if sample.Metrics == nil {
					sample.Metrics = make(map[string]float64)
				}
				sample.Metrics[unit] = v
			}
		}
		if sample.NsPerOp == 0 && sample.Metrics == nil {
			continue
		}
		agg, ok := byName[name]
		if !ok {
			s := sample
			byName[name] = &s
			continue
		}
		agg.Samples++
		if sample.NsPerOp > 0 && (agg.NsPerOp == 0 || sample.NsPerOp < agg.NsPerOp) {
			agg.NsPerOp = sample.NsPerOp
			agg.Iters = sample.Iters
		}
		if sample.BytesPerOp > 0 && (agg.BytesPerOp == 0 || sample.BytesPerOp < agg.BytesPerOp) {
			agg.BytesPerOp = sample.BytesPerOp
		}
		if sample.AllocsPerOp > 0 && (agg.AllocsPerOp == 0 || sample.AllocsPerOp < agg.AllocsPerOp) {
			agg.AllocsPerOp = sample.AllocsPerOp
		}
		for k, v := range sample.Metrics {
			if agg.Metrics == nil {
				agg.Metrics = make(map[string]float64)
			}
			agg.Metrics[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, r := range byName {
		f.Results = append(f.Results, *r)
	}
	sort.Slice(f.Results, func(i, j int) bool { return f.Results[i].Name < f.Results[j].Name })
	return f, nil
}

// ReadFile decodes a benchmark artifact.
func ReadFile(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	return &f, nil
}

// WriteJSON encodes the artifact with stable indentation.
func (f *File) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Regression is one gated benchmark whose current ns/op exceeds the
// baseline by more than the threshold.
type Regression struct {
	Name      string  `json:"name"`
	BaseNs    float64 `json:"base_ns_per_op"`
	CurNs     float64 `json:"cur_ns_per_op"`
	Ratio     float64 `json:"ratio"`
	Threshold float64 `json:"threshold"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (%.2fx > %.2fx allowed)",
		r.Name, r.BaseNs, r.CurNs, r.Ratio, 1+r.Threshold)
}

// Compare gates current against baseline: benchmarks whose name matches
// `gate` fail when ns/op grew by more than threshold (0.15 = +15%).
// Benchmarks missing on either side are reported in skipped, never
// failed — baselines refresh on their own cadence and must not brick new
// benchmarks.
func Compare(baseline, current *File, gate *regexp.Regexp, threshold float64) (regressions []Regression, skipped []string) {
	for _, cur := range current.Results {
		if gate != nil && !gate.MatchString(cur.Name) {
			continue
		}
		base := baseline.Get(cur.Name)
		if base == nil || base.NsPerOp == 0 || cur.NsPerOp == 0 {
			skipped = append(skipped, cur.Name)
			continue
		}
		ratio := cur.NsPerOp / base.NsPerOp
		if ratio > 1+threshold {
			regressions = append(regressions, Regression{
				Name: cur.Name, BaseNs: base.NsPerOp, CurNs: cur.NsPerOp,
				Ratio: ratio, Threshold: threshold,
			})
		}
	}
	for _, base := range baseline.Results {
		if gate != nil && !gate.MatchString(base.Name) {
			continue
		}
		if current.Get(base.Name) == nil {
			skipped = append(skipped, base.Name+" (missing in current)")
		}
	}
	sort.Slice(regressions, func(i, j int) bool { return regressions[i].Name < regressions[j].Name })
	sort.Strings(skipped)
	return regressions, skipped
}
