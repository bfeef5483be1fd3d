package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"zeppelin/internal/decision"
)

// tracedConfig is the decision-test cell: an incremental planner (so
// placement records appear) under a threshold controller over a drifting
// stream (so both replan and reuse verdicts occur).
func tracedConfig(seed int64, iters int, tr *decision.Trace, flip *Flip) Config {
	return Config{
		Trainer: testCell(seed), Method: exactZeppelin(), Iters: iters,
		Arrival: driftArrival(iters), Policy: Threshold{Ratio: 1.3},
		Decisions: tr, Flip: flip,
	}
}

func traceNDJSON(t *testing.T, tr *decision.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := decision.WriteNDJSON(&buf, "", tr.Records()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecisionLogDeterministicAcrossWorkers: the same campaign grid run
// serially and on a 4-worker pool produces byte-identical decision logs
// per cell — the tracing analogue of the stream-identity guarantee.
func TestDecisionLogDeterministicAcrossWorkers(t *testing.T) {
	const iters, cells = 20, 3
	run := func(workers int) [][]byte {
		cfgs := make([]Config, cells)
		traces := make([]*decision.Trace, cells)
		for i := range cfgs {
			traces[i] = &decision.Trace{}
			cfgs[i] = tracedConfig(int64(i+1), iters, traces[i], nil)
		}
		if _, err := RunGrid(context.Background(), cfgs, workers); err != nil {
			t.Fatal(err)
		}
		logs := make([][]byte, cells)
		for i, tr := range traces {
			logs[i] = traceNDJSON(t, tr)
		}
		return logs
	}
	serial, parallel := run(1), run(4)
	for i := range serial {
		if len(serial[i]) == 0 {
			t.Fatalf("cell %d produced an empty decision log", i)
		}
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Fatalf("cell %d decision logs differ between workers=1 and workers=4", i)
		}
	}
}

// TestDecisionRecordsMatchStream: replan-execution records line up with
// the event stream's replan count (the CI cross-check), iteration 0 is
// forced, and placement records name real plan modes.
func TestDecisionRecordsMatchStream(t *testing.T) {
	const iters = 25
	tr := &decision.Trace{}
	rep := runCampaign(t, tracedConfig(7, iters, tr, nil))
	if got := tr.CountKind(decision.KindReplan, "replan"); got != rep.Summary.Replans {
		t.Fatalf("decision log has %d replan executions, stream replanned %d times",
			got, rep.Summary.Replans)
	}
	if got := tr.CountKind(decision.KindReplan, ""); got != iters {
		t.Fatalf("%d replan decisions recorded, want one per iteration (%d)", got, iters)
	}
	if got := tr.CountKind(decision.KindPlacement, ""); got != iters {
		t.Fatalf("%d placement decisions recorded, want %d", got, iters)
	}
	recs := tr.Records()
	if recs[0].Kind != decision.KindReplan || !recs[0].Forced || recs[0].Chosen != "replan" {
		t.Fatalf("iteration 0 must be a forced replan, got %+v", recs[0])
	}
	modes := map[string]bool{"full": true, "patched": true, "cached": true, "shared": true}
	for _, r := range recs {
		if r.Flipped {
			t.Fatalf("factual run recorded a flip: %+v", r)
		}
		if r.Kind == decision.KindPlacement && !modes[r.PlanMode] {
			t.Fatalf("placement record carries unknown plan mode %q", r.PlanMode)
		}
		if r.Kind == decision.KindReplan && len(r.Alternatives) != 2 {
			t.Fatalf("replan record should weigh 2 alternatives, got %+v", r)
		}
	}
}

// TestFlipOverridesOneVerdict: flipping a non-forced replan to reuse
// changes exactly that iteration's verdict and perturbs the downstream
// stream; flipping it to its factual verdict is a no-op (bit-identical
// records).
func TestFlipOverridesOneVerdict(t *testing.T) {
	const iters = 30
	factTr := &decision.Trace{}
	factual := runCampaign(t, tracedConfig(11, iters, factTr, nil))

	// Find a non-forced executed replan to invert.
	flipIter := -1
	for _, r := range factTr.Records() {
		if r.Kind == decision.KindReplan && r.Chosen == "replan" && !r.Forced {
			flipIter = r.Iter
			break
		}
	}
	if flipIter < 0 {
		t.Fatal("factual run has no non-forced replan to flip; widen the drift")
	}

	cfTr := &decision.Trace{}
	counter := runCampaign(t, tracedConfig(11, iters, cfTr, &Flip{Iter: flipIter, Decision: "reuse"}))
	if counter.Records[flipIter].Replanned {
		t.Fatalf("iteration %d still replanned under the flip", flipIter)
	}
	if !counter.Records[flipIter].Flipped {
		t.Fatalf("iteration %d not marked flipped", flipIter)
	}
	if counter.Summary.Replans >= factual.Summary.Replans {
		t.Fatalf("flip to reuse did not reduce replans: %d vs factual %d",
			counter.Summary.Replans, factual.Summary.Replans)
	}
	flips := 0
	for _, r := range cfTr.Records() {
		if r.Flipped {
			flips++
		}
	}
	if flips != 1 {
		t.Fatalf("%d flipped records, want exactly 1", flips)
	}

	// A flip that matches the factual verdict changes nothing.
	noopTr := &decision.Trace{}
	noop := runCampaign(t, tracedConfig(11, iters, noopTr, &Flip{Iter: flipIter, Decision: "replan"}))
	a, _ := json.Marshal(factual.Records)
	b, _ := json.Marshal(noop.Records)
	if !bytes.Equal(a, b) {
		t.Fatal("agreeing flip perturbed the record stream")
	}
	if !bytes.Equal(traceNDJSON(t, factTr), traceNDJSON(t, noopTr)) {
		t.Fatal("agreeing flip perturbed the decision log")
	}

	// Forced decisions are not flippable: iteration 0 stays a replan.
	forcedTr := &decision.Trace{}
	forced := runCampaign(t, tracedConfig(11, iters, forcedTr, &Flip{Iter: 0, Decision: "reuse"}))
	if !forced.Records[0].Replanned || forced.Records[0].Flipped {
		t.Fatalf("forced iteration 0 was flipped: %+v", forced.Records[0])
	}
}
