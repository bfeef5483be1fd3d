package zeppelin

import (
	"bytes"
	"context"
	"testing"
)

// replayCell is a fig13-style drifting campaign on the small cell: the
// threshold controller fires mid-stream, so there are non-forced replan
// verdicts to flip.
func replayCell(iters int) CampaignRequest {
	return CampaignRequest{
		Model:    "3B",
		Cluster:  ClusterSpec{Preset: "A", Nodes: 1},
		Workload: WorkloadSpec{Arrival: "drift"},
		Policy:   PolicySpec{Name: "threshold"},
		Iters:    iters,
	}
}

// TestReplayNoFlipBitIdentical: replaying with zero flips reproduces
// the factual stream byte for byte, and the decision logs match too.
func TestReplayNoFlipBitIdentical(t *testing.T) {
	req := ReplayRequest{Campaign: replayCell(15)}
	rep, err := RunReplay(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical || rep.Flipped {
		t.Fatalf("no-flip replay: identical=%v flipped=%v, want true/false", rep.Identical, rep.Flipped)
	}
	if rep.Counterfactual != nil || rep.Delta != nil {
		t.Fatal("identical replay must omit counterfactual and delta")
	}
	if rep.Factual.Iters != 15 {
		t.Fatalf("factual summary has %d iters, want 15", rep.Factual.Iters)
	}
}

// TestReplayFlipReportsDelta: flipping one executed replan to reuse on
// a drift stream yields a nonzero goodput/p99 delta.
func TestReplayFlipReportsDelta(t *testing.T) {
	const iters = 30
	// Locate a non-forced executed replan in the factual run.
	fact, err := drainCampaign(context.Background(), replayCell(iters), WithCampaignDecisions())
	if err != nil {
		t.Fatal(err)
	}
	flipIter := -1
	for _, d := range fact.Decisions() {
		if d.Kind == "replan" && d.Chosen == "replan" && !d.Forced {
			flipIter = d.Iter
			break
		}
	}
	if flipIter < 0 {
		t.Fatal("factual run has no non-forced replan to flip")
	}

	rep, err := RunReplay(context.Background(), ReplayRequest{
		Campaign: replayCell(iters),
		Flip:     &FlipSpec{Iter: flipIter, Decision: "reuse"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Flipped || rep.Identical {
		t.Fatalf("flip replay: flipped=%v identical=%v, want true/false", rep.Flipped, rep.Identical)
	}
	if rep.Counterfactual == nil || rep.Delta == nil {
		t.Fatal("flipped replay must carry counterfactual and delta")
	}
	if rep.Delta.TokensPerSecPct == 0 && rep.Delta.P99IterTimePct == 0 {
		t.Fatalf("flip produced a zero goodput and p99 delta: %+v", rep.Delta)
	}
	// Flipping a replan to reuse cannot add replans: at worst the policy
	// fires one iteration later (the skeleton is still stale), at best
	// the replan disappears entirely.
	if rep.Delta.Replans > 0 {
		t.Fatalf("flipping a replan to reuse added replans: %+d", rep.Delta.Replans)
	}

	var buf bytes.Buffer
	rep.WriteText(&buf)
	if buf.Len() == 0 {
		t.Fatal("WriteText produced no output")
	}
}

// TestReplayFlipValidation: malformed flips are rejected up front.
func TestReplayFlipValidation(t *testing.T) {
	for _, f := range []FlipSpec{
		{Iter: -1, Decision: "reuse"},
		{Iter: 3, Decision: "maybe"},
	} {
		_, err := RunReplay(context.Background(), ReplayRequest{Campaign: replayCell(5), Flip: &f})
		if err == nil {
			t.Fatalf("flip %+v accepted", f)
		}
	}
}

// TestReplayNoopFlipIdentical: a flip that targets a forced decision
// reports no effect and a bit-identical stream.
func TestReplayNoopFlipIdentical(t *testing.T) {
	rep, err := RunReplay(context.Background(), ReplayRequest{
		Campaign: replayCell(10),
		Flip:     &FlipSpec{Iter: 0, Decision: "reuse"}, // iter 0 is forced
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flipped || !rep.Identical {
		t.Fatalf("forced-target flip: flipped=%v identical=%v, want false/true", rep.Flipped, rep.Identical)
	}
}

// TestDecisionNDJSONSessionStamp: the session id lands first on every
// line and the grep key survives.
func TestDecisionNDJSONSessionStamp(t *testing.T) {
	fact, err := drainCampaign(context.Background(), replayCell(5), WithCampaignDecisions())
	if err != nil {
		t.Fatal(err)
	}
	decs := fact.Decisions()
	if len(decs) == 0 {
		t.Fatal("no decisions recorded")
	}
	var buf bytes.Buffer
	if err := WriteDecisionNDJSON(&buf, "c42", decs); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) != len(decs) {
		t.Fatalf("%d NDJSON lines for %d records", len(lines), len(decs))
	}
	for _, line := range lines {
		if !bytes.HasPrefix(line, []byte(`{"session":"c42","iter":`)) {
			t.Fatalf("line missing session prefix: %s", line)
		}
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"kind":"replan","chosen":"replan"`)) {
		t.Fatal("decision log lost the replan grep key")
	}
}
