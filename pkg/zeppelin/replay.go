package zeppelin

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"zeppelin/internal/decision"
)

// RunReplay deterministically re-runs a campaign and compares the
// replay against the factual run. With no flip the replay must
// reproduce the factual event stream byte for byte — anything else is a
// determinism violation and an error. With a flip, exactly one replan
// verdict is inverted and the report carries the counterfactual summary
// and the goodput/p99/migration-cost delta. A flip that targets a
// forced decision or agrees with the factual verdict changes nothing;
// the report then records Flipped=false, Identical=true.
//
// Both runs execute in-process under ctx; options (a shared plan cache,
// decision recording) apply to both, and only their reports are read.
// Determinism makes this exact: the factual run here is bit-identical to
// the recorded stream the request originally produced.
func RunReplay(ctx context.Context, req ReplayRequest, opts ...CampaignOption) (*ReplayReport, error) {
	if req.Flip != nil {
		if err := req.Flip.Validate(); err != nil {
			return nil, err
		}
	}

	fc, err := drainCampaign(ctx, req.Campaign, opts...)
	if err != nil {
		return nil, err
	}
	factual := fc.Report()

	cfOpts := opts
	if req.Flip != nil {
		cfOpts = append(append([]CampaignOption(nil), opts...), WithCampaignFlip(*req.Flip))
	}
	cc, err := drainCampaign(ctx, req.Campaign, cfOpts...)
	if err != nil {
		return nil, err
	}
	counter := cc.Report()

	rep := &ReplayReport{
		Flip:    req.Flip,
		Factual: factual.Summary,
	}
	for _, ev := range counter.Events {
		if ev.Flipped {
			rep.Flipped = true
			break
		}
	}

	factBytes, err := eventStreamBytes(factual.Events)
	if err != nil {
		return nil, err
	}
	cfBytes, err := eventStreamBytes(counter.Events)
	if err != nil {
		return nil, err
	}
	rep.Identical = bytes.Equal(factBytes, cfBytes)

	if !rep.Flipped {
		// No verdict inverted: the replay must be pinned bit-identical.
		if !rep.Identical {
			return nil, fmt.Errorf("zeppelin: replay without an effective flip diverged from the factual stream (determinism violation)")
		}
		return rep, nil
	}
	cf := counter.Summary
	rep.Counterfactual = &cf
	rep.Delta = &ReplayDelta{
		TokensPerSecPct: pctDelta(cf.TokensPerSec, factual.Summary.TokensPerSec),
		P99IterTimePct:  pctDelta(cf.P99IterTime, factual.Summary.P99IterTime),
		WallTimeSec:     cf.WallTime - factual.Summary.WallTime,
		Replans:         cf.Replans - factual.Summary.Replans,
		RecoverySec:     cf.RecoverySeconds - factual.Summary.RecoverySeconds,
	}
	return rep, nil
}

// eventStreamBytes serializes an event stream exactly the way the
// zeppelind NDJSON endpoint does — one compact JSON object per line —
// so byte equality here is byte equality of the streamed wire format.
func eventStreamBytes(events []CampaignEvent) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// pctDelta is (a-b)/b in percent; 0 when the baseline is 0.
func pctDelta(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b * 100
}

// WriteDecisionNDJSON writes decision records as the structured
// decision-log format: one compact JSON record per line, fields in the
// fixed wire order, with an optional session id stamped on each line.
// Encoding is deterministic, so equal traces write byte-equal logs.
func WriteDecisionNDJSON(w io.Writer, session string, recs []DecisionRecord) error {
	return decision.WriteNDJSON(w, session, recs)
}

// WriteText renders the replay report for terminals.
func (r *ReplayReport) WriteText(w io.Writer) {
	if r.Flip != nil {
		verb := "replan"
		if r.Flip.Decision != "replan" {
			verb = "reuse"
		}
		fmt.Fprintf(w, "replay: flip iter %d -> %s\n", r.Flip.Iter, verb)
	} else {
		fmt.Fprintf(w, "replay: no flip (identity check)\n")
	}
	switch {
	case !r.Flipped && r.Identical:
		fmt.Fprintf(w, "  stream reproduced bit-identically (%d iters, %.0f tok/s, p99 %.3fs)\n",
			r.Factual.Iters, r.Factual.TokensPerSec, r.Factual.P99IterTime)
		if r.Flip != nil {
			fmt.Fprintf(w, "  flip had no effect: decision at iter %d was forced or already %q\n",
				r.Flip.Iter, r.Flip.Decision)
		}
	default:
		d := r.Delta
		fmt.Fprintf(w, "  factual:        %10.0f tok/s  p99 %8.3fs  %3d replans  wall %8.2fs\n",
			r.Factual.TokensPerSec, r.Factual.P99IterTime, r.Factual.Replans, r.Factual.WallTime)
		fmt.Fprintf(w, "  counterfactual: %10.0f tok/s  p99 %8.3fs  %3d replans  wall %8.2fs\n",
			r.Counterfactual.TokensPerSec, r.Counterfactual.P99IterTime,
			r.Counterfactual.Replans, r.Counterfactual.WallTime)
		fmt.Fprintf(w, "  delta: goodput %+.2f%%  p99 %+.2f%%  replans %+d  wall %+.3fs",
			d.TokensPerSecPct, d.P99IterTimePct, d.Replans, d.WallTimeSec)
		if d.RecoverySec != 0 {
			fmt.Fprintf(w, "  recovery %+.3fs", d.RecoverySec)
		}
		fmt.Fprintln(w)
	}
}
