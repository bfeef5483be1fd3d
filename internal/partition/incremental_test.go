package partition

import (
	"math/rand"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/seq"
	"zeppelin/internal/workload"
)

// incCell is the standard incremental-planner test cell: 4 nodes of
// Cluster A with the default per-rank capacity regime.
func incCell(t *testing.T) Config {
	t.Helper()
	return Config{Cluster: cluster.MustNew(cluster.ClusterA, 4), CapacityTokens: 5120}
}

// sampleBatch draws a capacity-respecting batch for a cell. FineWeb's
// short-tailed distribution yields the high-multiplicity streams (many
// local-zone sequences) the patching fast path targets; chunky datasets
// mostly decline to patch via the delta and drift guards.
func sampleBatch(cfg Config, rng *rand.Rand, frac float64) []seq.Sequence {
	budget := int(frac * float64(cfg.Cluster.World()*cfg.CapacityTokens))
	return workload.FineWeb.Batch(budget, rng)
}

// mutate replaces roughly `frac` of the batch's sequences (capped at
// ~10% of its tokens) with fresh short ones of similar total length,
// keeping IDs unique and the total under the original. It models the
// per-iteration churn of a streaming arrival; at least one sequence
// always changes so consecutive batches are never cache-identical.
func mutate(batch []seq.Sequence, rng *rand.Rand, frac float64, nextID int) ([]seq.Sequence, int) {
	total := seq.TotalLen(batch)
	budget := total / 10
	out := make([]seq.Sequence, 0, len(batch))
	removedTokens := 0
	for _, s := range batch {
		if removedTokens+s.Len <= budget && rng.Float64() < frac {
			removedTokens += s.Len
			continue
		}
		out = append(out, s)
	}
	if removedTokens == 0 && len(out) > 0 {
		removedTokens = out[len(out)-1].Len
		out = out[:len(out)-1]
	}
	for removedTokens > 256 {
		l := 256 + rng.Intn(1024)
		if l > removedTokens {
			l = removedTokens
		}
		out = append(out, seq.Sequence{ID: nextID, Len: l})
		nextID++
		removedTokens -= l
	}
	return out, nextID
}

func mustPlan(t *testing.T, p *Incremental, cfg Config, batch []seq.Sequence) (*Result, PlanMode) {
	t.Helper()
	res, st, err := p.Plan(cfg, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatalf("%s plan invalid: %v", st, err)
	}
	return res, st
}

func TestIncrementalExactCacheHit(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(1))
	batch := sampleBatch(cfg, rng, 0.8)

	p := NewIncremental(IncrementalConfig{})
	res1, st1 := mustPlan(t, p, cfg, batch)
	if st1 != PlanFull {
		t.Fatalf("first plan mode = %s, want full", st1)
	}
	res2, st2 := mustPlan(t, p, cfg, batch)
	if st2 != PlanCached {
		t.Fatalf("repeat plan mode = %s, want cached", st2)
	}
	if res1 != res2 {
		t.Fatal("cache hit must return the identical result")
	}
	if c := p.Counters(); c.Full != 1 || c.Cached != 1 || c.Patched != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestIncrementalExactModeNeverPatches(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(2))
	batch := sampleBatch(cfg, rng, 0.8)
	p := NewIncremental(IncrementalConfig{}) // MaxDeltaFrac 0: exact mode
	mustPlan(t, p, cfg, batch)

	next, _ := mutate(batch, rng, 0.05, 1<<20)
	_, st := mustPlan(t, p, cfg, next)
	if st != PlanFull {
		t.Fatalf("exact mode planned %s on a delta, want full", st)
	}
}

// TestIncrementalPatchCostEqual is the golden fast-path property: over a
// chain of small-delta batches, the patched plan conserves tokens (via
// Validate in mustPlan) and stays cost-equal to an independent full solve
// within tolerance.
func TestIncrementalPatchCostEqual(t *testing.T) {
	const tol = 1.20
	for _, seed := range []int64{3, 17, 91} {
		cfg := incCell(t)
		rng := rand.New(rand.NewSource(seed))
		batch := sampleBatch(cfg, rng, 0.8)

		p := NewIncremental(IncrementalConfig{MaxDeltaFrac: 0.3})
		full, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustPlan(t, p, cfg, batch)
		nextID := 1 << 20
		patched := 0
		for it := 0; it < 30; it++ {
			batch, nextID = mutate(batch, rng, 0.06, nextID)
			res, st := mustPlan(t, p, cfg, batch)
			ref, err := full.Plan(batch)
			if err != nil {
				t.Fatal(err)
			}
			gotImb := LoadImbalance(res.Plan, nil)
			refImb := LoadImbalance(ref.Plan, nil)
			if gotImb > refImb*tol {
				t.Fatalf("seed %d iter %d (%s): imbalance %.4f vs full %.4f exceeds %.0f%% tolerance",
					seed, it, st, gotImb, refImb, (tol-1)*100)
			}
			if st == PlanPatched {
				patched++
			}
		}
		if patched < 20 {
			t.Fatalf("seed %d: only %d/30 iterations patched — the fast path is not engaging", seed, patched)
		}
	}
}

func TestIncrementalPatchDeterminism(t *testing.T) {
	cfg := incCell(t)
	run := func() []*Result {
		rng := rand.New(rand.NewSource(7))
		batch := sampleBatch(cfg, rng, 0.8)
		p := NewIncremental(IncrementalConfig{MaxDeltaFrac: 0.3})
		out := make([]*Result, 0, 12)
		nextID := 1 << 20
		for it := 0; it < 12; it++ {
			res, _ := mustPlan(t, p, cfg, batch)
			out = append(out, res)
			batch, nextID = mutate(batch, rng, 0.06, nextID)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !samePlanStructure(a[i].Plan, b[i].Plan) {
			t.Fatalf("iteration %d: plans differ across identical runs", i)
		}
	}
}

// samePlanStructure compares two plans' local lists and rings exactly.
func samePlanStructure(a, b *seq.Plan) bool {
	if a.World != b.World || len(a.Rings) != len(b.Rings) {
		return false
	}
	for r := range a.Local {
		if len(a.Local[r]) != len(b.Local[r]) {
			return false
		}
		for i := range a.Local[r] {
			if a.Local[r][i] != b.Local[r][i] {
				return false
			}
		}
	}
	for i := range a.Rings {
		ra, rb := a.Rings[i], b.Rings[i]
		if ra.Seq != rb.Seq || ra.Zone != rb.Zone || len(ra.Ranks) != len(rb.Ranks) {
			return false
		}
		for j := range ra.Ranks {
			if ra.Ranks[j] != rb.Ranks[j] {
				return false
			}
		}
	}
	return true
}

func TestIncrementalCacheEviction(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(11))
	batches := make([][]seq.Sequence, DefaultCacheCap+1)
	for i := range batches {
		batches[i] = sampleBatch(cfg, rng, 0.7)
	}

	p := NewIncremental(IncrementalConfig{})
	for _, b := range batches[:DefaultCacheCap] {
		mustPlan(t, p, cfg, b)
	}
	if _, st := mustPlan(t, p, cfg, batches[0]); st != PlanCached {
		t.Fatalf("batch 0 should still be cached, got %s", st)
	}
	// One more batch evicts the least recently used entry (batch 1).
	mustPlan(t, p, cfg, batches[DefaultCacheCap])
	if _, st := mustPlan(t, p, cfg, batches[1]); st != PlanFull {
		t.Fatalf("evicted batch planned as %s, want full", st)
	}
	// Re-solving batch 1 evicted the next least recently used (batch 2).
	if _, st := mustPlan(t, p, cfg, batches[2]); st == PlanCached {
		t.Fatal("batch 2 should have been evicted by batch 1's re-solve")
	}
}

// TestIncrementalHealthInvalidation pins the fault-arrival rule: a change
// in the effective-speed view (straggler onset or clearing) must force a
// full solve even when the batch barely changed.
func TestIncrementalHealthInvalidation(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(13))
	batch := sampleBatch(cfg, rng, 0.8)
	p := NewIncremental(IncrementalConfig{MaxDeltaFrac: 0.3})
	mustPlan(t, p, cfg, batch)

	// Same-view small delta patches...
	next, nextID := mutate(batch, rng, 0.04, 1<<20)
	if _, st := mustPlan(t, p, cfg, next); st != PlanPatched {
		t.Fatalf("healthy small delta planned as %s, want patched", st)
	}

	// ...but the same delta under a new straggler view must full-solve.
	degraded := cfg
	degraded.Speeds = make([]float64, cfg.Cluster.World())
	for i := range degraded.Speeds {
		degraded.Speeds[i] = 1
	}
	degraded.Speeds[3] = 0.4
	next, nextID = mutate(next, rng, 0.04, nextID)
	res, st, err := p.Plan(degraded, next)
	if err != nil {
		t.Fatal(err)
	}
	if st != PlanFull {
		t.Fatalf("straggler onset planned as %s, want full", st)
	}
	if err := res.Plan.Validate(next); err != nil {
		t.Fatal(err)
	}

	// Under the unchanged degraded view, patching resumes (speed-aware
	// greedy placement).
	next, _ = mutate(next, rng, 0.04, nextID)
	if _, st := mustPlan(t, p, degraded, next); st != PlanPatched {
		t.Fatalf("stable degraded view planned as %s, want patched", st)
	}

	// Fault clearing (back to nil speeds) invalidates again.
	if _, st := mustPlan(t, p, cfg, next); st != PlanFull {
		t.Fatalf("fault clearing planned as %s, want full", st)
	}
}

func TestIncrementalResizeInvalidation(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(19))
	batch := sampleBatch(cfg, rng, 0.4)
	p := NewIncremental(IncrementalConfig{MaxDeltaFrac: 0.5})
	mustPlan(t, p, cfg, batch)

	shrunk := Config{Cluster: cluster.MustNew(cluster.ClusterA, 2), CapacityTokens: cfg.CapacityTokens}
	if _, st := mustPlan(t, p, shrunk, batch); st != PlanFull {
		t.Fatalf("elastic resize planned as %s, want full", st)
	}

	grown := cfg
	grown.CapacityTokens = cfg.CapacityTokens * 2
	if _, st := mustPlan(t, p, grown, batch); st != PlanFull {
		t.Fatalf("capacity change planned as %s, want full", st)
	}
}

// TestIncrementalLongArrivalFallsBack: an arrival at or above the intra
// threshold needs the ring machinery, so the patch declines.
func TestIncrementalLongArrivalFallsBack(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(23))
	batch := sampleBatch(cfg, rng, 0.5)
	p := NewIncremental(IncrementalConfig{MaxDeltaFrac: 0.9})
	res, _ := mustPlan(t, p, cfg, batch)
	minS0 := cfg.CapacityTokens
	for _, s0 := range res.S0 {
		if s0 < minS0 {
			minS0 = s0
		}
	}
	long := append(append([]seq.Sequence(nil), batch...), seq.Sequence{ID: 1 << 20, Len: minS0})
	if _, st := mustPlan(t, p, cfg, long); st != PlanFull {
		t.Fatalf("ring-zone arrival planned as %s, want full", st)
	}
}

func TestIncrementalReset(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(29))
	batch := sampleBatch(cfg, rng, 0.8)
	p := NewIncremental(IncrementalConfig{MaxDeltaFrac: 0.3})
	mustPlan(t, p, cfg, batch)
	p.Reset()
	if c := p.Counters(); c.Plans() != 0 {
		t.Fatalf("counters survive Reset: %+v", c)
	}
	if _, st := mustPlan(t, p, cfg, batch); st != PlanFull {
		t.Fatalf("post-Reset plan mode = %s, want full", st)
	}
}

// TestIncrementalPatchedEqualsCachedOnRepeat: a batch planned by patching
// and then repeated verbatim must come back from the cache as the very
// same plan (patched plans are first-class cache entries).
func TestIncrementalPatchRepeatCached(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(31))
	batch := sampleBatch(cfg, rng, 0.8)
	p := NewIncremental(IncrementalConfig{MaxDeltaFrac: 0.3})
	mustPlan(t, p, cfg, batch)
	// An explicitly tiny delta: drop the shortest sequence, add two
	// small arrivals of the same total.
	shortest := 0
	for i, s := range batch {
		if s.Len < batch[shortest].Len {
			shortest = i
		}
	}
	dropped := batch[shortest].Len
	next := append(append([]seq.Sequence(nil), batch[:shortest]...), batch[shortest+1:]...)
	next = append(next, seq.Sequence{ID: 1 << 20, Len: (dropped + 1) / 2}, seq.Sequence{ID: 1<<20 + 1, Len: dropped / 2})
	for len(next) > 0 && next[len(next)-1].Len == 0 {
		next = next[:len(next)-1]
	}
	res1, st := mustPlan(t, p, cfg, next)
	if st != PlanPatched {
		t.Fatalf("delta planned as %s, want patched", st)
	}
	res2, st2 := mustPlan(t, p, cfg, next)
	if st2 != PlanCached || res2 != res1 {
		t.Fatalf("verbatim repeat of patched batch: mode %s, same=%v", st2, res1 == res2)
	}
}

// TestIncrementalCacheHitRestoresDriftAnchor: a cache hit on a patched
// plan must restore the patch-run count it was cached with, not restart
// the chain from zero. After MaxPatchRun consecutive patches, an
// unrelated full solve and a replay of the last patched batch, the next
// small delta must be a full solve — the restored bound forbids a 17th
// patch on the same base.
func TestIncrementalCacheHitRestoresDriftAnchor(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(37))
	batch := sampleBatch(cfg, rng, 0.8)
	p := NewIncremental(IncrementalConfig{MaxDeltaFrac: 0.3})
	mustPlan(t, p, cfg, batch)

	// Each step retires the shortest sequence and admits an arrival of
	// the same length under a fresh, larger ID: the smallest delta there
	// is, so every step patches.
	nextID := 1 << 20
	swapShortest := func(b []seq.Sequence) []seq.Sequence {
		shortest := 0
		for i, s := range b {
			if s.Len < b[shortest].Len {
				shortest = i
			}
		}
		out := append(append([]seq.Sequence(nil), b[:shortest]...), b[shortest+1:]...)
		out = append(out, seq.Sequence{ID: nextID, Len: b[shortest].Len})
		nextID++
		return out
	}
	for i := 0; i < MaxPatchRun; i++ {
		batch = swapShortest(batch)
		if _, st := mustPlan(t, p, cfg, batch); st != PlanPatched {
			t.Fatalf("chain step %d planned as %s, want patched", i, st)
		}
	}
	if _, st := mustPlan(t, p, cfg, sampleBatch(cfg, rng, 0.6)); st != PlanFull {
		t.Fatalf("unrelated batch planned as %s, want full", st)
	}
	if _, st := mustPlan(t, p, cfg, batch); st != PlanCached {
		t.Fatalf("replayed patched batch planned as %s, want cached", st)
	}
	if _, st := mustPlan(t, p, cfg, swapShortest(batch)); st != PlanFull {
		t.Fatalf("delta after a cached %d-patch chain planned as %s, want full", MaxPatchRun, st)
	}
}
