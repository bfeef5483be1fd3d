package campaign

import (
	"context"
	"encoding/json"
	"testing"

	"zeppelin/internal/faults"
	"zeppelin/internal/partition"
	"zeppelin/internal/workload"
	"zeppelin/internal/zeppelin"
)

// exactZeppelin is the complete system over an exact-mode incremental
// planner, the way pkg/zeppelin plans every Zeppelin campaign.
func exactZeppelin() *zeppelin.Incremental {
	return zeppelin.NewIncremental(zeppelin.Full(), partition.IncrementalConfig{})
}

// reportJSON canonicalizes a report for stream-identity comparison.
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestIncrementalCampaignStreamIdentity is the plan-cache property test:
// a campaign planned through the exact-mode incremental planner emits an
// IterRecord stream identical to the full-only campaign — the fast path
// may change how plans are computed, never what is planned. The replay
// arrival cycles a short trace so later iterations are genuine cache
// hits, not just full solves by another name.
func TestIncrementalCampaignStreamIdentity(t *testing.T) {
	const iters = 12
	cell := testCell(5)
	replay := Record(workload.ArXiv, 4, cell.TotalTokens(), 777)

	base := Config{
		Trainer: cell, Method: zeppelin.Full(), Iters: iters,
		Arrival: replay, Policy: Threshold{},
	}
	want := runCampaign(t, base)

	inc := exactZeppelin()
	fast := base
	fast.Method = inc
	got := runCampaign(t, fast)

	if reportJSON(t, got) != reportJSON(t, want) {
		t.Fatal("incremental campaign stream differs from full-only campaign")
	}
	c := inc.PlannerCounters()
	if c.Cached == 0 {
		t.Fatalf("replay campaign produced no cache hits: %+v", c)
	}
	if c.Full != 4 || c.Cached != iters-4 {
		t.Fatalf("counters = %+v, want 4 full + %d cached", c, iters-4)
	}
}

// TestIncrementalCampaignStreamIdentityUnderDrift covers the
// incremental-then-full sequencing on a drifting stream: exact mode
// never patches, so every iteration either full-solves or replays an
// exact repeat, and the stream still matches the stateless method bit
// for bit.
func TestIncrementalCampaignStreamIdentityUnderDrift(t *testing.T) {
	const iters = 8
	base := Config{
		Trainer: testCell(7), Method: zeppelin.Full(), Iters: iters,
		Arrival: driftArrival(iters), Policy: Threshold{},
	}
	want := runCampaign(t, base)

	inc := exactZeppelin()
	fast := base
	fast.Method = inc
	got := runCampaign(t, fast)
	if reportJSON(t, got) != reportJSON(t, want) {
		t.Fatal("incremental campaign stream differs under drift")
	}
	if c := inc.PlannerCounters(); c.Patched != 0 || c.Full+c.Cached != iters || c.Full == 0 {
		t.Fatalf("drift stream counters = %+v, want full/cached only", c)
	}
}

// TestIncrementalCampaignFaultForcesFullSolve: a fault arriving
// mid-campaign changes the effective-speed view, so iterations inside the
// fault window must full-solve even though the replay arrival repeats
// batches the cache already holds (their keys changed with the view).
// The stream still matches the stateless method under the same schedule.
func TestIncrementalCampaignFaultForcesFullSolve(t *testing.T) {
	const iters = 10
	cell := testCell(9)
	replay := Record(workload.ArXiv, 5, cell.TotalTokens(), 778)
	sched, err := faults.ByName("straggler:from=6,to=9,rank=2,x=2.5", iters, cell.Nodes, cell.Spec.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}

	base := Config{
		Trainer: cell, Method: zeppelin.Full(), Iters: iters,
		Arrival: replay, Policy: Threshold{}, Faults: sched,
	}
	want := runCampaign(t, base)

	inc := exactZeppelin()
	fast := base
	fast.Method = inc
	got := runCampaign(t, fast)
	if reportJSON(t, got) != reportJSON(t, want) {
		t.Fatal("incremental faulted campaign stream differs from full-only")
	}

	// Healthy replay would cache iterations 5..9. The straggler window
	// [6,9) degrades the view for 6..8, forcing full solves there; only
	// 5 and 9 (healthy, repeated batches) hit the cache.
	c := inc.PlannerCounters()
	if c.Cached >= 5 {
		t.Fatalf("fault window did not invalidate cached plans: %+v", c)
	}
	if c.Full != iters-c.Cached {
		t.Fatalf("unexpected mode split: %+v", c)
	}
}

// TestIncrementalCampaignRunTwiceDeterministic: the campaign resets
// stateful planners at Run start (Replanner), so reusing one method
// instance across runs yields identical reports.
func TestIncrementalCampaignRunTwiceDeterministic(t *testing.T) {
	const iters = 8
	inc := zeppelin.NewIncremental(zeppelin.Full(), partition.IncrementalConfig{MaxDeltaFrac: 0.3})
	cfg := Config{
		Trainer: testCell(11), Method: inc, Iters: iters,
		Arrival: driftArrival(iters), Policy: Threshold{},
	}
	a := runCampaign(t, cfg)
	b := runCampaign(t, cfg)
	if reportJSON(t, a) != reportJSON(t, b) {
		t.Fatal("incremental campaign is not deterministic across runs")
	}
}

// TestIncrementalCampaignGridSerialEqualsParallel: independent
// incremental campaigns (one planner instance per grid cell) stay
// bit-identical across worker pool sizes.
func TestIncrementalCampaignGridSerialEqualsParallel(t *testing.T) {
	const iters = 6
	build := func() []Config {
		cfgs := make([]Config, 0, 4)
		for s := 0; s < 4; s++ {
			cfgs = append(cfgs, Config{
				Trainer: testCell(int64(100 + s)), Method: exactZeppelin(),
				Iters: iters, Arrival: driftArrival(iters), Policy: Threshold{},
			})
		}
		return cfgs
	}
	serial, err := RunGrid(context.Background(), build(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunGrid(context.Background(), build(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if reportJSON(t, serial[i]) != reportJSON(t, parallel[i]) {
			t.Fatalf("grid cell %d differs between pool sizes", i)
		}
	}
}
