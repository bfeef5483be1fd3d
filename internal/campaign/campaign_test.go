package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"zeppelin/internal/baselines"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/runner"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/zeppelin"
)

// testCell is a small, fast cell: 3B on one node of Cluster A.
func testCell(seed int64) trainer.Config {
	return trainer.Config{
		Model: model.LLaMA3B, Spec: cluster.ClusterA, Nodes: 1, TP: 1,
		TokensPerGPU: 4096, Seed: seed,
	}
}

func driftArrival(iters int) Arrival {
	return Drift{Path: []workload.Dataset{workload.ArXiv, workload.GitHub}, Iters: iters}
}

func runCampaign(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCampaignBasicShape(t *testing.T) {
	const iters = 12
	rep := runCampaign(t, Config{
		Trainer: testCell(1), Method: zeppelin.Full(), Iters: iters,
		Arrival: driftArrival(iters), Policy: Always{},
	})
	if len(rep.Records) != iters {
		t.Fatalf("%d records, want %d", len(rep.Records), iters)
	}
	if rep.Summary.Replans != iters {
		t.Fatalf("always policy replanned %d of %d iterations", rep.Summary.Replans, iters)
	}
	for _, rec := range rep.Records {
		if rec.Time <= 0 || rec.TokensPerSec <= 0 {
			t.Fatalf("iteration %d has non-positive time/throughput: %+v", rec.Iter, rec)
		}
		if rec.Imbalance < 1 || rec.Penalty != 1 {
			t.Fatalf("iteration %d metrics out of range: %+v", rec.Iter, rec)
		}
		if rec.Utilization <= 0 || rec.Utilization > 1 {
			t.Fatalf("iteration %d utilization %v out of (0,1]", rec.Iter, rec.Utilization)
		}
	}
	cell := testCell(1)
	world := cell.GPUs()
	if len(rep.PerRankUtil) != world {
		t.Fatalf("per-rank utilization has %d entries, want %d", len(rep.PerRankUtil), world)
	}
	if rep.Summary.P50IterTime > rep.Summary.P95IterTime ||
		rep.Summary.P95IterTime > rep.Summary.P99IterTime ||
		rep.Summary.P99IterTime > rep.Summary.MaxIterTime {
		t.Fatalf("percentiles not monotone: %+v", rep.Summary)
	}
}

func TestNeverPolicyPlansExactlyOnce(t *testing.T) {
	const iters = 10
	rep := runCampaign(t, Config{
		Trainer: testCell(2), Method: zeppelin.Full(), Iters: iters,
		Arrival: driftArrival(iters), Policy: Never{},
	})
	if rep.Summary.Replans != 1 {
		t.Fatalf("never policy replanned %d times, want 1 (the initial plan)", rep.Summary.Replans)
	}
	if !rep.Records[0].Replanned {
		t.Fatal("iteration 0 must carry the initial plan")
	}
	for _, rec := range rep.Records[1:] {
		if rec.Replanned {
			t.Fatalf("iteration %d replanned under Never", rec.Iter)
		}
		if rec.Penalty < 1 {
			t.Fatalf("iteration %d reuse penalty %v < 1", rec.Iter, rec.Penalty)
		}
	}
}

func TestThresholdSitsBetweenAlwaysAndNever(t *testing.T) {
	const iters = 40
	replans := func(p Policy) int {
		rep := runCampaign(t, Config{
			Trainer: testCell(3), Method: zeppelin.Full(), Iters: iters,
			Arrival: driftArrival(iters), Policy: p,
		})
		return rep.Summary.Replans
	}
	always, thresh, never := replans(Always{}), replans(Threshold{Ratio: 1.5}), replans(Never{})
	if always != iters || never != 1 {
		t.Fatalf("always=%d never=%d, want %d and 1", always, never, iters)
	}
	if thresh <= never || thresh > always {
		t.Fatalf("threshold replans %d not in (1, %d]", thresh, always)
	}
}

func TestDriftDegradesStalePlans(t *testing.T) {
	// Under a drifting stream, never-replanning must cost throughput
	// against threshold replanning for a shape-dependent method.
	const iters = 60
	run := func(p Policy) float64 {
		rep := runCampaign(t, Config{
			Trainer: testCell(4), Method: zeppelin.Full(), Iters: iters,
			Arrival: Drift{Path: []workload.Dataset{workload.ArXiv, workload.ProLong64k}, Iters: iters},
			Policy:  p,
		})
		return rep.Summary.TokensPerSec
	}
	adaptive, frozen := run(Threshold{}), run(Never{})
	if frozen >= adaptive {
		t.Fatalf("frozen plan (%.0f tok/s) should underperform adaptive replanning (%.0f tok/s) under drift",
			frozen, adaptive)
	}
}

func TestShapeIndependentMethodsNeverReplan(t *testing.T) {
	const iters = 8
	for _, m := range []trainer.Method{baselines.TECP{}, baselines.LLaMACP{}} {
		rep := runCampaign(t, Config{
			Trainer: testCell(5), Method: m, Iters: iters,
			Arrival: driftArrival(iters), Policy: Always{}, // policy must be ignored
		})
		if rep.Summary.Replans != 0 {
			t.Fatalf("%s replanned %d times", m.Name(), rep.Summary.Replans)
		}
		if !strings.Contains(rep.Summary.Policy, "shape-independent") {
			t.Fatalf("%s policy label %q", m.Name(), rep.Summary.Policy)
		}
		for _, rec := range rep.Records {
			if rec.Penalty != 1 {
				t.Fatalf("%s iteration %d penalty %v", m.Name(), rec.Iter, rec.Penalty)
			}
		}
	}
}

func TestCampaignDeterministicAndParallelSafe(t *testing.T) {
	// The acceptance invariant one level down: identical campaigns are
	// bit-identical, whether run serially or fanned out via the runner.
	cfgFor := func(seed int64) Config {
		return Config{
			Trainer: testCell(seed), Method: zeppelin.Full(), Iters: 10,
			Arrival: driftArrival(10), Policy: Threshold{},
		}
	}
	serial := make([]*Report, 4)
	for i := range serial {
		serial[i] = runCampaign(t, cfgFor(int64(100+i)))
	}
	parallel := make([]*Report, 4)
	if err := runner.ForEach(context.Background(), 4, 4, func(i int) error {
		rep, err := Run(context.Background(), cfgFor(int64(100+i)))
		parallel[i] = rep
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		a, _ := json.Marshal(serial[i])
		b, _ := json.Marshal(parallel[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("campaign %d: serial and parallel reports differ", i)
		}
	}
}

func TestReportJSONRoundTrips(t *testing.T) {
	rep := runCampaign(t, Config{
		Trainer: testCell(6), Method: zeppelin.Full(), Iters: 5,
		Arrival: driftArrival(5), Policy: Threshold{},
	})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Summary != rep.Summary || len(decoded.Records) != len(rep.Records) {
		t.Fatal("JSON round trip lost data")
	}
	rows := rep.TraceRows()
	if len(rows) != len(rep.Records) {
		t.Fatalf("%d trace rows for %d records", len(rows), len(rep.Records))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Trainer: testCell(1), Iters: 5}); err == nil {
		t.Fatal("missing method must error")
	}
	if _, err := Run(context.Background(), Config{Trainer: testCell(1), Method: zeppelin.Full(), Iters: 0}); err == nil {
		t.Fatal("zero iterations must error")
	}
	// An unbounded horizon is a validation error, not an unbounded run.
	if _, err := Run(context.Background(), Config{Trainer: testCell(1), Method: zeppelin.Full(), Iters: 1 << 50}); !IsValidation(err) {
		t.Fatalf("iters 2^50: err = %v, want validation error", err)
	}
	atCap := Config{Trainer: testCell(1), Method: zeppelin.Full(), Iters: MaxIters}
	if err := atCap.Validate(); err != nil {
		t.Fatalf("iters = MaxIters must validate: %v", err)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	// Input must not be reordered.
	if vals[0] != 4 {
		t.Error("Percentile mutated its input")
	}
}

func TestSlotPlanFillMatchesBuildOnSameBatch(t *testing.T) {
	batch := []seq.Sequence{
		{ID: 0, Len: 30 << 10}, {ID: 1, Len: 8 << 10}, {ID: 2, Len: 4 << 10},
		{ID: 3, Len: 2 << 10}, {ID: 4, Len: 1 << 10},
	}
	sp := buildSlotPlan(batch, 8, 5120, nil)
	if got := sp.fill(batch, nil); got != sp.imbalance {
		t.Fatalf("filling a plan with its own batch: imbalance %v != %v", got, sp.imbalance)
	}
	if sp.imbalance < 1 {
		t.Fatalf("imbalance %v < 1", sp.imbalance)
	}
}

func TestSlotPlanOverflowFallsBackToLocal(t *testing.T) {
	sp := buildSlotPlan([]seq.Sequence{{ID: 0, Len: 4096}}, 4, 8192, nil)
	// Twice as many sequences as slots: the extras go greedy-local and
	// the projection stays finite and ≥ 1.
	batch := []seq.Sequence{{ID: 0, Len: 4096}, {ID: 1, Len: 4096}}
	if imb := sp.fill(batch, nil); imb < 1 {
		t.Fatalf("overflow imbalance %v < 1", imb)
	}
}

func TestOverloadArrivalsAreAdmitted(t *testing.T) {
	// Bursty 1.75× and Poisson spikes exceed the cluster's placement
	// capacity; admission control must defer the excess instead of the
	// partitioner rejecting the batch mid-campaign.
	const iters = 20
	for _, a := range []Arrival{
		Bursty{D: workload.ArXiv, Period: 4, Factor: 1.75},
		Poisson{D: workload.ArXiv, Mean: 4},
	} {
		rep := runCampaign(t, Config{
			Trainer: testCell(8), Method: zeppelin.Full(), Iters: iters,
			Arrival: a, Policy: Threshold{},
		})
		for _, rec := range rep.Records {
			if rec.Deferred < 0 {
				t.Fatalf("%s iteration %d: negative deferral %d", a.Name(), rec.Iter, rec.Deferred)
			}
		}
	}
	// The bursty stream must actually trigger deferrals.
	rep := runCampaign(t, Config{
		Trainer: testCell(8), Method: zeppelin.Full(), Iters: iters,
		Arrival: Bursty{D: workload.ArXiv, Period: 4, Factor: 1.75}, Policy: Threshold{},
	})
	if rep.Summary.DeferredTokens == 0 {
		t.Fatal("1.75x bursts within 1.25x capacity must defer tokens")
	}
}

func TestAdmit(t *testing.T) {
	batch := []seq.Sequence{{ID: 0, Len: 100}, {ID: 1, Len: 50}, {ID: 2, Len: 50}}
	// Fits: untouched.
	got, deferred := admit(batch, 200)
	if len(got) != 3 || deferred != 0 {
		t.Fatalf("admit within capacity: %v deferred %d", got, deferred)
	}
	// Clamp the boundary sequence, defer the rest.
	got, deferred = admit(batch, 120)
	if len(got) != 2 || got[1].Len != 20 || deferred != 80 {
		t.Fatalf("admit(120): %v deferred %d, want clamp to 20 and 80 deferred", got, deferred)
	}
	// A sub-16-token remnant is dropped rather than creating a degenerate
	// sequence.
	got, deferred = admit(batch, 110)
	if len(got) != 1 || deferred != 100 {
		t.Fatalf("admit(110): %v deferred %d, want 1 seq and 100 deferred", got, deferred)
	}
}
