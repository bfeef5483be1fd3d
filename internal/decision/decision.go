// Package decision is the decision-tracing layer of the campaign
// engine: a typed record of every choice the online controllers make —
// which replan verdict the policy returned and against which projected
// imbalances, what admission control trimmed and why, which fast path
// the incremental planner took — together with the scored alternatives
// that were actually on the table when the choice was made.
//
// Records are produced inside the single-goroutine campaign loop in
// iteration order, so a trace is deterministic per (Config, seed): the
// same campaign run at any worker count serializes to byte-identical
// NDJSON. That determinism is what makes the records replayable — the
// counterfactual engine re-runs a recorded stream with exactly one
// decision flipped and diffs the outcome against the factual run.
package decision

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind classifies a decision site.
type Kind string

// The decision sites: every kind but KindTune is recorded by the
// campaign loop.
const (
	// KindReplan is the replanning controller's verdict: re-run the
	// partitioner for the incoming batch, or stretch the stale skeleton.
	KindReplan Kind = "replan"
	// KindAdmission is the per-iteration capacity gate: an arrival that
	// exceeds placement capacity is trimmed and the excess deferred.
	// Recorded only when the gate actually trims — when everything fits
	// there was no choice to make.
	KindAdmission Kind = "admission"
	// KindPlacement is the incremental planner's fast-path outcome for
	// the iteration's plan: full solve, patched previous plan, local
	// cache hit, or shared-tier hit.
	KindPlacement Kind = "placement"
	// KindScale is the autoscaler's end-of-iteration verdict: grow,
	// shrink, or hold the active world for the next iteration, driven by
	// observed queue depth and utilization. Forced marks verdicts the
	// cooldown window overrode.
	KindScale Kind = "scale"
	// KindRoute is the serving router's placement verdict for a request
	// whose session already has a home rank: keep it home to reuse the
	// KV-cached prefix ("affinity") or spread it to the least-loaded rank
	// ("spread"). Recorded only for serve campaigns.
	KindRoute Kind = "route"
	// KindTune is a tune search's final selection: the winning
	// configuration against every evaluated candidate's fitness total.
	// Recorded by the service once per finished search, not by a
	// campaign.
	KindTune Kind = "tune"
)

// Kinds lists every decision kind, in declaration order — the fixed
// vocabulary metrics export (each kind present, zero when unseen).
func Kinds() []Kind {
	return []Kind{KindReplan, KindAdmission, KindPlacement, KindScale, KindRoute, KindTune}
}

// Alternative is one scored option the decision site considered.
type Alternative struct {
	// Choice names the option ("replan", "reuse", "full", "cached", ...).
	Choice string `json:"choice"`
	// Score is the option's figure of merit at decision time: projected
	// max/mean imbalance for replan alternatives, token counts for
	// admission, cumulative win counts for placement fast paths.
	Score float64 `json:"score"`
	// Chosen marks the option the decision selected.
	Chosen bool `json:"chosen,omitempty"`
}

// Record is one decision with its full context: what was chosen, what
// else was considered, and the controller state that drove the choice.
// Field order is part of the NDJSON contract — logs are compared and
// grepped byte-wise, so new fields append rather than reorder. Record
// is also the public wire type zeppelin.DecisionRecord.
type Record struct {
	// Session is the owning campaign session id, stamped by the service's
	// decision log where one file interleaves many sessions; empty in a
	// campaign's own trace.
	Session string `json:"session,omitempty"`
	// Iter is the campaign iteration the decision belongs to.
	Iter int `json:"iter"`
	// Kind classifies the decision site; Chosen names the winning
	// alternative. The two are adjacent so `"kind":"replan","chosen":"replan"`
	// is a stable grep key for replan executions in a log.
	Kind   Kind   `json:"kind"`
	Chosen string `json:"chosen"`
	// Forced marks decisions the controller had no say in: the first
	// iteration (no stale skeleton exists) and the iteration after an
	// elastic resize (the skeleton addresses ranks that no longer
	// exist). Forced decisions are not flippable.
	Forced bool `json:"forced,omitempty"`
	// Flipped marks the one decision a counterfactual replay overrode.
	Flipped bool `json:"flipped,omitempty"`
	// Policy and Threshold describe the replanning controller: the
	// policy name and, for threshold controllers, the ratio it fires at.
	Policy    string  `json:"policy,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// StaleImbalance and FreshImbalance are the projections the replan
	// verdict weighed: routing the batch through the stale skeleton vs
	// the best a fresh plan would achieve.
	StaleImbalance float64 `json:"stale_imbalance,omitempty"`
	FreshImbalance float64 `json:"fresh_imbalance,omitempty"`
	// SinceReplan counts iterations since the partitioner last ran.
	SinceReplan int `json:"since_replan,omitempty"`
	// PlanMode is the incremental planner's fast path for placement
	// records ("full", "patched", "cached", "shared").
	PlanMode string `json:"plan_mode,omitempty"`
	// Events and World snapshot the fault state the decision was made
	// under: the iteration's fault/recovery markers and the active
	// data-parallel world size (fault campaigns only).
	Events []string `json:"events,omitempty"`
	World  int      `json:"world,omitempty"`
	// Alternatives are the scored options considered, chosen included.
	Alternatives []Alternative `json:"alternatives,omitempty"`
}

// Trace accumulates a campaign's decision records in iteration order.
// The campaign loop appends from its single goroutine; snapshots and
// serialization may run concurrently (the zeppelind decisions route
// reads while a stream is running), so all methods are safe for
// concurrent use.
//
// Records are stored in fixed-size chunks linked in order, so adding a
// record never copies the ones before it: n Adds allocate ⌈n/chunkLen⌉
// chunks and nothing else.
type Trace struct {
	mu         sync.Mutex
	head, tail *chunk
	n          int // records held; the tail holds the last n - (chunks-1)·chunkLen
}

// chunkLen is the number of records in a chunk: 64 records of 184 bytes
// make a chunk of 11.5 KiB, which takes one 12 KiB allocation.
const chunkLen = 64

// chunk is one fixed-size run of records.
type chunk struct {
	recs [chunkLen]Record
	next *chunk
}

// Add appends one record.
func (t *Trace) Add(r Record) {
	t.mu.Lock()
	i := t.n % chunkLen
	if i == 0 {
		c := new(chunk)
		if t.tail == nil {
			t.head = c
		} else {
			t.tail.next = c
		}
		t.tail = c
	}
	t.tail.recs[i] = r
	t.n++
	t.mu.Unlock()
}

// each calls f with the held records chunk by chunk, in order. The
// caller holds mu.
func (t *Trace) each(f func([]Record)) {
	left := t.n
	for c := t.head; left > 0; c = c.next {
		k := min(left, chunkLen)
		f(c.recs[:k])
		left -= k
	}
}

// Len reports the number of records accumulated.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Records snapshots the accumulated records (a copy; safe to hold).
func (t *Trace) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, t.n)
	t.each(func(recs []Record) { out = append(out, recs...) })
	return out
}

// Reset drops all records; campaigns call it at stream start so a
// reused trace never mixes runs.
func (t *Trace) Reset() {
	t.mu.Lock()
	t.head, t.tail, t.n = nil, nil, 0
	t.mu.Unlock()
}

// WriteNDJSON writes records in the structured decision-log format: one
// compact JSON record per line, fields in the fixed wire order, with
// session stamped on every line (empty leaves the field out). Encoding
// is deterministic (fixed field order, no map iteration), so equal
// traces write byte-equal logs at any worker count.
func WriteNDJSON(w io.Writer, session string, recs []Record) error {
	for _, r := range recs {
		r.Session = session
		raw, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("decision: encode record: %w", err)
		}
		raw = append(raw, '\n')
		if _, err := w.Write(raw); err != nil {
			return err
		}
	}
	return nil
}

// CountKind counts records of one kind; with chosen non-empty, only
// those whose winning alternative matches. CountKind(KindReplan,
// "replan") is the number of iterations whose partitioner actually ran
// — the cross-check the CI decision-log smoke asserts against the event
// stream's replan count.
func (t *Trace) CountKind(kind Kind, chosen string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	t.each(func(recs []Record) {
		for i := range recs {
			if r := &recs[i]; r.Kind == kind && (chosen == "" || r.Chosen == chosen) {
				n++
			}
		}
	})
	return n
}
