package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"zeppelin/internal/baselines"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
)

// quickCfg is a one-node cell small enough that a full grid of it stays
// fast under -race.
func quickCfg(seed int64) trainer.Config {
	return trainer.Config{
		Model: model.LLaMA3B, Spec: cluster.ClusterA, Nodes: 1, TP: 1,
		TokensPerGPU: 1024, Seed: seed,
	}
}

func quickJob(key string, seed int64, m trainer.Method) Job {
	return Job{
		Key:         key,
		Config:      quickCfg(seed),
		Method:      m,
		Sample:      workload.ArXiv.Batch,
		SamplerName: workload.ArXiv.Name,
	}
}

func TestPoolSizing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		want    int
	}{
		{"default", 0, runtime.GOMAXPROCS(0)},
		{"negative", -4, runtime.GOMAXPROCS(0)},
		{"one", 1, 1},
		{"explicit", 7, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := New(Options{Workers: tc.workers}).Workers(); got != tc.want {
				t.Fatalf("Workers() = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestRunCollectsEveryJob(t *testing.T) {
	var jobs []Job
	for s := 0; s < 6; s++ {
		jobs = append(jobs, quickJob(fmt.Sprintf("s%d", s), int64(100+s), baselines.TECP{}))
	}
	rs, err := New(Options{Workers: 4}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if rs.TokensPerSec(j.Key) <= 0 {
			t.Fatalf("%s: missing or non-positive throughput", j.Key)
		}
	}
	if rs.Executed != 6 || rs.CacheHits != 0 {
		t.Fatalf("executed=%d cacheHits=%d, want 6/0", rs.Executed, rs.CacheHits)
	}
}

func TestJobValidation(t *testing.T) {
	eng := New(Options{})
	for _, tc := range []struct {
		name string
		jobs []Job
		want string
	}{
		{"empty key", []Job{{Method: baselines.TECP{}, Sample: workload.ArXiv.Batch}}, "empty key"},
		{"duplicate key", []Job{quickJob("a", 1, baselines.TECP{}), quickJob("a", 2, baselines.TECP{})}, "duplicate"},
		{"nil method", []Job{{Key: "a", Sample: workload.ArXiv.Batch}}, "no method"},
		{"nil sampler", []Job{{Key: "a", Method: baselines.TECP{}}}, "no sampler"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := eng.Run(context.Background(), tc.jobs); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestErrorPropagation checks that a failing cell surfaces its error
// wrapped with the job key, that the reported failure is the earliest
// submitted one regardless of pool timing, and that healthy cells in the
// same grid still ran.
func TestErrorPropagation(t *testing.T) {
	bad := quickJob("bad-early", 1, baselines.TECP{})
	bad.Config.Nodes = 0 // fails Validate
	bad2 := quickJob("bad-late", 2, baselines.TECP{})
	bad2.Config.TP = 3 // does not divide GPUs per node
	jobs := []Job{quickJob("ok", 3, baselines.TECP{}), bad, bad2}
	for _, workers := range []int{1, 8} {
		_, err := New(Options{Workers: workers}).Run(context.Background(), jobs)
		if err == nil {
			t.Fatalf("workers=%d: grid with invalid cell must fail", workers)
		}
		if !strings.Contains(err.Error(), `"bad-early"`) {
			t.Fatalf("workers=%d: err = %v, want the earliest failing key", workers, err)
		}
	}
}

func TestCacheHits(t *testing.T) {
	eng := New(Options{Workers: 4})
	// A baseline method; determinism_ext_test.go covers the full method.
	same := func(key string) Job { return quickJob(key, 42, baselines.HybridDP{}) }
	rs, err := eng.Run(context.Background(), []Job{same("a"), same("b"), quickJob("c", 43, baselines.HybridDP{})})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Executed != 2 || rs.CacheHits != 1 {
		t.Fatalf("executed=%d cacheHits=%d, want 2/1", rs.Executed, rs.CacheHits)
	}
	if rs.Get("a") != rs.Get("b") {
		t.Fatal("memoized duplicate must share the leader's result")
	}
	if rs.Get("a") == rs.Get("c") {
		t.Fatal("different seeds must not share a result")
	}

	// A second Run on the same engine hits the persistent cache.
	rs2, err := eng.Run(context.Background(), []Job{same("again")})
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Executed != 0 || rs2.CacheHits != 1 {
		t.Fatalf("cross-run: executed=%d cacheHits=%d, want 0/1", rs2.Executed, rs2.CacheHits)
	}
	if eng.CacheSize() != 2 {
		t.Fatalf("cache size = %d, want 2", eng.CacheSize())
	}
}

// TestMethodFieldsKeepDistinctCacheEntries guards the hash against the
// display-name trap: TECP{} and TECP{Routed: true} share Name() but are
// different methods and must not be memoized together.
func TestMethodFieldsKeepDistinctCacheEntries(t *testing.T) {
	rs, err := New(Options{}).Run(context.Background(), []Job{
		quickJob("plain", 7, baselines.TECP{}),
		quickJob("routed", 7, baselines.TECP{Routed: true}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.CacheHits != 0 {
		t.Fatal("methods differing only in fields must not share cache entries")
	}
}

func TestAnonymousSamplersNeverMemoize(t *testing.T) {
	eng := New(Options{})
	j1, j2 := quickJob("a", 5, baselines.TECP{}), quickJob("b", 5, baselines.TECP{})
	j1.SamplerName, j2.SamplerName = "", ""
	rs, err := eng.Run(context.Background(), []Job{j1, j2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Executed != 2 || rs.CacheHits != 0 || eng.CacheSize() != 0 {
		t.Fatalf("anonymous samplers memoized: executed=%d hits=%d cache=%d",
			rs.Executed, rs.CacheHits, eng.CacheSize())
	}
}

func TestForEach(t *testing.T) {
	out := make([]int, 40)
	if err := ForEach(context.Background(), 8, len(out), func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	sentinel := errors.New("boom")
	err := ForEach(context.Background(), 4, 10, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("slot %d: %w", i, sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "slot 3") {
		t.Fatalf("ForEach must surface the lowest-index error, got %v", err)
	}
}

func TestForEachWorker(t *testing.T) {
	// The pool is bounded: at most workers fn calls run at a time, and
	// every index runs exactly once.
	const workers, n = 5, 64
	var inflight, peak atomic.Int32
	runs := make([]atomic.Int32, n)
	if err := ForEach(context.Background(), workers, n, func(i int) error {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runs[i].Add(1)
		runtime.Gosched()
		inflight.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p < 1 || p > workers {
		t.Fatalf("peak in-flight fn calls = %d, want 1..%d", p, workers)
	}
	for i := range runs {
		if c := runs[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	// Zero items is a no-op, not a hang.
	if err := ForEach(context.Background(), 4, 0, func(i int) error {
		t.Fatalf("fn called for empty range (i=%d)", i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
