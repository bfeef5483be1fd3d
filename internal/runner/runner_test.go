package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zeppelin/internal/baselines"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/zeppelin"
)

// TestSerialParallelDeterminism is the pool's acceptance criterion: a
// (dataset × method × seed) grid of simulations must produce
// bit-identical trainer.Results on one worker and on a saturated pool.
func TestSerialParallelDeterminism(t *testing.T) {
	type job struct {
		cfg    trainer.Config
		method trainer.Method
		sample func(int, *rand.Rand) []seq.Sequence
	}
	var jobs []job
	for _, d := range []workload.Dataset{workload.ArXiv, workload.GitHub} {
		for _, m := range []trainer.Method{baselines.TECP{}, baselines.HybridDP{}, zeppelin.Full()} {
			for s := 0; s < 3; s++ {
				jobs = append(jobs, job{
					cfg: trainer.Config{
						Model: model.LLaMA3B, Spec: cluster.ClusterA, Nodes: 1, TP: 1,
						TokensPerGPU: 1024, Seed: int64(1000 + 37*s),
					},
					method: m,
					sample: d.Batch,
				})
			}
		}
	}
	run := func(workers int) []*trainer.Result {
		out := make([]*trainer.Result, len(jobs))
		if err := ForEach(context.Background(), workers, len(jobs), func(i int) error {
			var err error
			out[i], err = trainer.Run(jobs[i].cfg, jobs[i].method, jobs[i].cfg.Batch(jobs[i].sample))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := run(1), run(2*runtime.GOMAXPROCS(0))
	for i := range jobs {
		if serial[i] == nil || !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("job %d: serial and parallel results differ:\n%+v\nvs\n%+v", i, serial[i], parallel[i])
		}
	}
}

// TestPoolSizing: the pool runs exactly `want` calls at once — a
// non-positive worker count selects GOMAXPROCS — and every index once.
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
			n := 3 * tc.want
			var inflight, peak atomic.Int32
			runs := make([]atomic.Int32, n)
			full := make(chan struct{}) // closed once want calls are in flight
			var once sync.Once
			deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			err := ForEach(context.Background(), tc.workers, n, func(i int) error {
				cur := inflight.Add(1)
				defer inflight.Add(-1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				if cur == int32(tc.want) {
					once.Do(func() { close(full) })
				}
				runs[i].Add(1)
				select {
				case <-full:
					return nil
				case <-deadline.Done():
					return fmt.Errorf("index %d: the pool never ran %d calls at once", i, tc.want)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if p := peak.Load(); p != int32(tc.want) {
				t.Fatalf("peak in-flight calls = %d, want %d", p, tc.want)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("index %d ran %d times", i, c)
				}
			}
		})
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
