package tune

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"zeppelin/internal/experiments"
)

// driftOptions is the fig13 drift scenario at the horizon the CI smoke
// and the acceptance pin share.
func driftOptions(t *testing.T, workers int) Options {
	t.Helper()
	sp, err := ParseSpace("")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Base:    experiments.TuneScenario(60),
		Space:   sp,
		Budget:  12,
		Iters:   60,
		Workers: workers,
	}
}

// TestSearchBeatsDefaultOnDrift pins the acceptance criterion: on the
// fig13 drift scenario, the default space finds a configuration whose
// fitness strictly beats the hand-tuned Threshold{} default.
func TestSearchBeatsDefaultOnDrift(t *testing.T) {
	rep, err := Search(context.Background(), driftOptions(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.Fitness.Total != 1 {
		t.Fatalf("baseline fitness = %v, want exactly 1", rep.Baseline.Fitness.Total)
	}
	if !rep.Improved {
		t.Fatalf("search did not improve on the default: winner %q scored %v",
			rep.Winner.Key, rep.Winner.Fitness.Total)
	}
	if rep.Winner.Fitness.Total <= rep.Baseline.Fitness.Total {
		t.Fatalf("winner %q fitness %v does not strictly beat baseline %v",
			rep.Winner.Key, rep.Winner.Fitness.Total, rep.Baseline.Fitness.Total)
	}
	if rep.Winner.Flags == "" {
		t.Fatal("winner has no ready-to-paste flag set")
	}
	if rep.Evaluated == 0 || rep.Evaluated > rep.Budget {
		t.Fatalf("evaluated %d candidates against budget %d", rep.Evaluated, rep.Budget)
	}
}

// TestSearchSerialParallelIdentical asserts the tentpole invariant: the
// whole report — winner, per-candidate fitness breakdowns, evaluation
// order — is bit-identical across worker pools {1, 4, GOMAXPROCS}.
func TestSearchSerialParallelIdentical(t *testing.T) {
	pools := []int{1, 4, runtime.GOMAXPROCS(0)}
	raws := make([][]byte, len(pools))
	for i, workers := range pools {
		rep, err := Search(context.Background(), driftOptions(t, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	for i := 1; i < len(pools); i++ {
		if string(raws[i]) != string(raws[0]) {
			t.Fatalf("reports differ between worker pools %d and %d", pools[0], pools[i])
		}
	}
}

func TestSearchAutoscaleSpace(t *testing.T) {
	sp, err := ParseSpace("autoscale=on|off,down-util=0.8:0.9,cooldown=2:6")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Search(context.Background(), Options{
		Base:    experiments.TuneScenario(40),
		Space:   sp,
		Budget:  8,
		Iters:   40,
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawAutoscale := false
	for _, c := range rep.Candidates {
		if c.Invalid != "" {
			t.Fatalf("candidate %q invalid: %s", c.Key, c.Invalid)
		}
		if c.Params.Autoscale {
			sawAutoscale = true
		}
	}
	if !sawAutoscale {
		t.Fatal("autoscale dimension never evaluated an autoscaled candidate")
	}
}

func TestSearchInvalidCandidatesCannotWin(t *testing.T) {
	// down-util pinned above up-util: every autoscaled point is invalid,
	// so the off points must carry the search.
	sp, err := ParseSpace("autoscale=on|off,up-util=0.7,down-util=0.9,threshold=1.2:1.5")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Search(context.Background(), Options{
		Base:    experiments.TuneScenario(20),
		Space:   sp,
		Budget:  6,
		Iters:   20,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawInvalid := false
	for _, c := range rep.Candidates {
		if c.Invalid != "" {
			sawInvalid = true
			if c.Fitness.Total != 0 {
				t.Fatalf("invalid candidate %q scored %v", c.Key, c.Fitness.Total)
			}
		}
	}
	if !sawInvalid {
		t.Fatal("space produced no invalid candidates; the guard was not exercised")
	}
	if rep.Winner.Invalid != "" {
		t.Fatalf("invalid candidate %q won", rep.Winner.Key)
	}
}

func TestSearchOptionValidation(t *testing.T) {
	if _, err := Search(context.Background(), Options{}); err == nil {
		t.Error("Search accepted a missing scenario")
	}
	opts := driftOptions(t, 1)
	opts.Budget = -1
	if _, err := Search(context.Background(), opts); err == nil {
		t.Error("Search accepted a negative budget")
	}
	opts = driftOptions(t, 1)
	opts.Weights = Weights{Goodput: -1}
	if _, err := Search(context.Background(), opts); err == nil {
		t.Error("Search accepted negative weights")
	}
	opts = driftOptions(t, 1)
	opts.Weights = Weights{P99: math.NaN()}
	if _, err := Search(context.Background(), opts); err == nil {
		t.Error("Search accepted a NaN weight")
	}
}

// TestWeightsValidate: a NaN or infinite weight would make every
// fitness total NaN and name an arbitrary winner, so it is rejected
// like a negative one, by Validate and by normalize.
func TestWeightsValidate(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		w := Weights{Goodput: 1, P99: 1, Migration: 1, Utilization: v}
		if err := w.Validate(); err == nil {
			t.Errorf("Validate accepted utilization weight %v", v)
		}
		if _, err := w.normalize(); err == nil {
			t.Errorf("normalize accepted utilization weight %v", v)
		}
	}
	for _, w := range []Weights{{}, DefaultWeights, {Goodput: 1}} {
		if err := w.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", w, err)
		}
	}
}

func TestWeightsNormalize(t *testing.T) {
	w, err := Weights{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if w != DefaultWeights {
		t.Fatalf("zero weights normalized to %+v, want defaults", w)
	}
	w, err = Weights{Goodput: 2, P99: 1, Migration: 1, Utilization: 0}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if sum := w.Goodput + w.P99 + w.Migration + w.Utilization; sum < 0.999 || sum > 1.001 {
		t.Fatalf("normalized weights sum to %v", sum)
	}
	if w.Goodput != 0.5 {
		t.Fatalf("goodput weight = %v, want 0.5", w.Goodput)
	}
}

func TestScoreBaselineIsExactlyOne(t *testing.T) {
	m := Metrics{TokensPerSec: 100, P99IterTime: 2, MigrationCost: 0.5, MeanUtilization: 0.9}
	f := score(m, m, DefaultWeights)
	if f.Total != 1 {
		t.Fatalf("self-score = %v, want exactly 1", f.Total)
	}
	// Zero-cost corner: both bills zero reads as parity, not a blowup.
	z := Metrics{TokensPerSec: 100, P99IterTime: 2, MeanUtilization: 0.9}
	f = score(z, z, DefaultWeights)
	if f.Total != 1 {
		t.Fatalf("zero-cost self-score = %v, want exactly 1", f.Total)
	}
	// A vanishing candidate bill against a real baseline bill clamps at
	// the component cap instead of diverging.
	better := m
	better.MigrationCost = 0
	f = score(better, m, DefaultWeights)
	if f.Migration != componentCap {
		t.Fatalf("migration component = %v, want cap %v", f.Migration, componentCap)
	}
}
