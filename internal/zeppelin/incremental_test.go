package zeppelin

import (
	"math/rand"
	"reflect"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/partition"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
)

// exact is the complete system over an exact-mode incremental planner.
func exact() *Incremental { return NewIncremental(Full(), partition.IncrementalConfig{}) }

func incCfg(seed int64) trainer.Config {
	return trainer.Config{
		Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 2,
		TokensPerGPU: 4096, Seed: seed,
	}
}

// TestIncrementalMatchesMethodExactly: in exact mode, every simulated
// result through the Incremental front-end is bit-identical to the
// stateless Method — full solves produce the same plan, and cache hits
// replay it.
func TestIncrementalMatchesMethodExactly(t *testing.T) {
	cfg := incCfg(5)
	inc := exact()
	rng := rand.New(rand.NewSource(99))
	for it := 0; it < 4; it++ {
		batch := workload.ArXiv.Batch(cfg.TotalTokens(), rng)
		want, err := trainer.Run(cfg, Full(), batch)
		if err != nil {
			t.Fatal(err)
		}
		// Plan the same batch twice so the second run exercises the cache.
		for pass := 0; pass < 2; pass++ {
			got, err := trainer.Run(cfg, inc, batch)
			if err != nil {
				t.Fatal(err)
			}
			if got.IterTime != want.IterTime || got.LayerTime != want.LayerTime ||
				got.TokensPerSec != want.TokensPerSec || got.RemapTime != want.RemapTime {
				t.Fatalf("iter %d pass %d (%s): incremental result diverges: %+v vs %+v",
					it, pass, inc.LastPlanMode(), got, want)
			}
		}
		if mode := inc.LastPlanMode(); mode != "cached" {
			t.Fatalf("iter %d: second pass mode = %s, want cached", it, mode)
		}
	}
	c := inc.PlannerCounters()
	if c.Full != 4 || c.Cached != 4 {
		t.Fatalf("counters = %+v, want 4 full + 4 cached", c)
	}
}

// TestIncrementalRemapReuse: a cache-hit placement carries the very same
// partition plan object, and its remap solution equals the first one.
func TestIncrementalRemapReuse(t *testing.T) {
	cfg := incCfg(7)
	inc := exact()
	batch := cfg.Batch(workload.GitHub.Batch)

	env1, err := cfg.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	pl1, err := inc.Plan(env1, batch)
	if err != nil {
		t.Fatal(err)
	}
	env2, err := cfg.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := inc.Plan(env2, batch)
	if err != nil {
		t.Fatal(err)
	}
	p1 := pl1.(*placement)
	p2 := pl2.(*placement)
	if p1.remapPlan == nil || !reflect.DeepEqual(p1.remapPlan, p2.remapPlan) || !reflect.DeepEqual(p1.reverse, p2.reverse) {
		t.Fatal("cache hit must carry an equal remap solution")
	}
	if p1.plan != p2.plan {
		t.Fatal("cache hit must reuse the identical partition plan")
	}
}

// TestIncrementalDegradedViewPlans: under a degraded health view the
// incremental front-end plans speed-aware exactly like the stateless
// method, and the view change forces a full solve.
func TestIncrementalDegradedView(t *testing.T) {
	cfg := incCfg(11)
	batch := cfg.Batch(workload.ArXiv.Batch)
	inc := exact()
	if _, err := trainer.Run(cfg, inc, batch); err != nil {
		t.Fatal(err)
	}

	slow := make([]float64, cfg.GPUs())
	for i := range slow {
		slow[i] = 1
	}
	slow[2] = 2.5 // rank 2 runs 2.5× slow
	deg := cfg
	deg.Health = &cluster.Health{Slow: slow}

	want, err := trainer.Run(deg, Full(), batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trainer.Run(deg, inc, batch)
	if err != nil {
		t.Fatal(err)
	}
	if mode := inc.LastPlanMode(); mode != "full" {
		t.Fatalf("health change planned as %s, want full", mode)
	}
	if got.IterTime != want.IterTime || got.TokensPerSec != want.TokensPerSec {
		t.Fatalf("degraded incremental result diverges: %+v vs %+v", got, want)
	}
}

// TestIncrementalPatchedPlacementsSimulate: tolerance mode produces valid
// placements end to end (plan validation plus a full simulated iteration).
func TestIncrementalPatchedPlacementsSimulate(t *testing.T) {
	cfg := incCfg(13)
	inc := NewIncremental(Full(), partition.IncrementalConfig{MaxDeltaFrac: 0.3})
	rng := rand.New(rand.NewSource(17))
	batch := workload.FineWeb.Batch(cfg.TotalTokens(), rng)
	if _, err := trainer.Run(cfg, inc, batch); err != nil {
		t.Fatal(err)
	}
	patched := 0
	for it := 0; it < 10; it++ {
		// Drop one short sequence, add a replacement — a patchable delta.
		shortest := 0
		for i, s := range batch {
			if s.Len < batch[shortest].Len {
				shortest = i
			}
		}
		dropped := batch[shortest]
		batch = append(batch[:shortest:shortest], batch[shortest+1:]...)
		batch = append(batch, seq.Sequence{ID: 1<<20 + it, Len: dropped.Len})
		res, err := trainer.Run(cfg, inc, batch)
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		if res.TokensPerSec <= 0 {
			t.Fatalf("iter %d: no throughput", it)
		}
		if inc.LastPlanMode() == "patched" {
			patched++
		}
	}
	if patched == 0 {
		t.Fatal("tolerance mode never patched")
	}
}

func TestIncrementalNameAndInterfaces(t *testing.T) {
	inc := exact()
	if inc.Name() != Full().Name() {
		t.Fatalf("name %q != %q", inc.Name(), Full().Name())
	}
	if !inc.SpeedAware() {
		t.Fatal("incremental Zeppelin must stay speed-aware")
	}
	inc.ResetPlanner()
	if c := inc.PlannerCounters(); c.Plans() != 0 {
		t.Fatalf("reset left counters %+v", c)
	}
	if _, err := inc.Plan(&trainer.Env{}, nil); err == nil {
		t.Fatal("empty batch must fail")
	}
}
