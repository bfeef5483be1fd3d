package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"zeppelin/internal/trace"
)

// IterRecord is the online metrics row of one campaign iteration. It is
// also the public wire type zeppelin.CampaignEvent: its tags and field
// order are pinned by pkg/zeppelin's goldens.
type IterRecord struct {
	Iter   int `json:"iter"`
	Tokens int `json:"tokens"`
	Seqs   int `json:"seqs"`
	// Deferred is the token count admission control pushed past this
	// iteration because the arrival exceeded placement capacity.
	Deferred int `json:"deferred,omitempty"`
	// Replanned reports whether the partitioner ran this iteration.
	Replanned bool `json:"replanned"`
	// Flipped marks the one iteration a counterfactual replay overrode
	// the replan verdict on (never set in factual runs).
	Flipped bool `json:"flipped,omitempty"`
	// Time is the simulated wall time of the iteration in seconds,
	// including replan or reuse overheads.
	Time float64 `json:"time"`
	// TokensPerSec is the iteration's delivered throughput.
	TokensPerSec float64 `json:"tokens_per_sec"`
	// Imbalance is the realized max/mean per-rank busy-time ratio under
	// the placement the iteration actually executed.
	Imbalance float64 `json:"imbalance"`
	// Penalty is the stale-plan slowdown factor applied to the layer
	// critical path (1 on replan iterations and for shape-independent
	// methods).
	Penalty float64 `json:"penalty"`
	// Utilization is the mean per-rank busy fraction of the layer span.
	Utilization float64 `json:"utilization"`
	// Recovery is the fault-transition time charged to this iteration in
	// seconds: checkpoint restart after a fail-stop, or the Eq. 2 state
	// migration of a planned elastic shrink/grow.
	Recovery float64 `json:"recovery,omitempty"`
	// Events are the fault/recovery markers of this iteration
	// ("straggler:rank4 x2.5", "fail:node1", "grow:node1", ...).
	Events []string `json:"events,omitempty"`
	// World is the active data-parallel world size (only set for
	// campaigns running under a fault schedule, where it can change).
	World int `json:"world,omitempty"`
	// Serving-campaign fields (appended; zero for training campaigns).
	// Queued is the token backlog left waiting after this tick's batch
	// was formed; AffinityHits counts requests routed to their session's
	// home rank, SavedTokens the prefix tokens those hits skipped;
	// Violations counts requests this tick completed past their class
	// deadline.
	Queued       int `json:"queued,omitempty"`
	AffinityHits int `json:"affinity_hits,omitempty"`
	SavedTokens  int `json:"saved_tokens,omitempty"`
	Violations   int `json:"violations,omitempty"`
}

// Summary aggregates one campaign's iteration stream. It is also the
// public wire type zeppelin.CampaignSummary.
type Summary struct {
	Method  string `json:"method"`
	Arrival string `json:"arrival"`
	Policy  string `json:"policy"`
	Iters   int    `json:"iters"`
	Replans int    `json:"replans"`

	TotalTokens int `json:"total_tokens"`
	// DeferredTokens counts arrivals admission control pushed to later
	// iterations because they exceeded placement capacity.
	DeferredTokens int     `json:"deferred_tokens,omitempty"`
	WallTime       float64 `json:"wall_time"` // seconds of simulated campaign time
	// TokensPerSec is the campaign throughput: total tokens over total
	// simulated time — the long-horizon analogue of the paper's headline.
	TokensPerSec float64 `json:"tokens_per_sec"`

	// Iteration-time percentiles in seconds.
	MeanIterTime float64 `json:"mean_iter_time"`
	P50IterTime  float64 `json:"p50_iter_time"`
	P95IterTime  float64 `json:"p95_iter_time"`
	P99IterTime  float64 `json:"p99_iter_time"`
	MaxIterTime  float64 `json:"max_iter_time"`

	MeanImbalance   float64 `json:"mean_imbalance"`
	MaxImbalance    float64 `json:"max_imbalance"`
	MeanUtilization float64 `json:"mean_utilization"`

	// RecoverySeconds is the total fault-transition time the campaign
	// paid (restarts plus elastic migrations); FaultEvents counts the
	// fault/recovery markers observed. Both zero for healthy campaigns.
	RecoverySeconds float64 `json:"recovery_seconds,omitempty"`
	FaultEvents     int     `json:"fault_events,omitempty"`

	// Serving-campaign fields (appended; zero for training campaigns).
	// Requests/Violations total the per-class counts; Unserved counts
	// requests the horizon cut off before completion; StreamTime is the
	// stream clock at drain — wall time plus idle gaps — the denominator
	// of per-class goodput.
	Requests   int     `json:"requests,omitempty"`
	Violations int     `json:"violations,omitempty"`
	Unserved   int     `json:"unserved,omitempty"`
	StreamTime float64 `json:"stream_time,omitempty"`
}

// Report is the full artifact of one campaign run.
type Report struct {
	Summary Summary `json:"summary"`
	// PerRankUtil is each rank's campaign-cumulative busy fraction.
	PerRankUtil []float64 `json:"per_rank_util"`
	// Classes holds per-SLO-class metrics for serving campaigns, highest
	// priority first (nil for training campaigns).
	Classes []ClassMetrics `json:"classes,omitempty"`
	// Records holds every iteration in order.
	Records []IterRecord `json:"records"`
}

// Percentile returns the p-th percentile (0–100) of values by linear
// interpolation between closest ranks. It copies and sorts its input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// summarize folds the iteration stream into the Summary.
func (r *Report) summarize(method, arrival, policy string) {
	s := Summary{Method: method, Arrival: arrival, Policy: policy, Iters: len(r.Records)}
	times := make([]float64, 0, len(r.Records))
	for _, rec := range r.Records {
		if rec.Replanned {
			s.Replans++
		}
		s.TotalTokens += rec.Tokens
		s.DeferredTokens += rec.Deferred
		s.WallTime += rec.Time
		times = append(times, rec.Time)
		s.MeanImbalance += rec.Imbalance
		if rec.Imbalance > s.MaxImbalance {
			s.MaxImbalance = rec.Imbalance
		}
		s.MeanUtilization += rec.Utilization
		if rec.Time > s.MaxIterTime {
			s.MaxIterTime = rec.Time
		}
		s.RecoverySeconds += rec.Recovery
		s.FaultEvents += len(rec.Events)
	}
	if n := float64(len(r.Records)); n > 0 {
		s.MeanIterTime = s.WallTime / n
		s.MeanImbalance /= n
		s.MeanUtilization /= n
	}
	if s.WallTime > 0 {
		s.TokensPerSec = float64(s.TotalTokens) / s.WallTime
	}
	s.P50IterTime = Percentile(times, 50)
	s.P95IterTime = Percentile(times, 95)
	s.P99IterTime = Percentile(times, 99)
	r.Summary = s
}

// WriteJSON emits the report as an indented JSON artifact.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// TraceRows converts the iteration stream into the trace package's
// campaign-timeline rows, carrying fault/recovery markers: 'F' fail-stop,
// 'E' elastic shrink/grow/rejoin, 'S' straggler or NIC degradation
// onset, '+' fault clearing.
func (r *Report) TraceRows() []trace.CampaignRow {
	rows := make([]trace.CampaignRow, len(r.Records))
	for i, rec := range r.Records {
		rows[i] = trace.CampaignRow{
			Iter:      rec.Iter,
			Time:      rec.Time,
			Replan:    rec.Replanned,
			Flip:      rec.Flipped,
			Imbalance: rec.Imbalance,
			Mark:      eventMark(rec.Events),
			Note:      strings.Join(rec.Events, " "),
		}
	}
	return rows
}

// eventMark folds an iteration's fault events into one timeline glyph,
// most severe first (trace.MarkSeverity's order).
func eventMark(events []string) byte {
	mark := byte(0)
	for _, ev := range events {
		var m byte
		switch {
		case strings.HasPrefix(ev, "fail"):
			m = 'F'
		case strings.HasPrefix(ev, "shrink"), strings.HasPrefix(ev, "grow"), strings.HasPrefix(ev, "rejoin"):
			m = 'E'
		case strings.HasPrefix(ev, "straggler"), strings.HasPrefix(ev, "nic-degrade"):
			m = 'S'
		default:
			m = '+'
		}
		if trace.MarkSeverity(m) > trace.MarkSeverity(mark) {
			mark = m
		}
	}
	return mark
}

// RecoveryIters measures a fault's footprint on a campaign: the number
// of iterations at or after `baseline` (the first fault onset) whose
// goodput fell below the healthy band — median pre-fault goodput
// (records[:baseline]) divided by tol. A method that re-plans around a
// fault re-enters the band while the fault is still active and scores
// low; a method that cannot stays degraded until the fault clears.
// Goodput, not iteration time, defines the band so elastic phases with
// trimmed batches are judged by delivered work per second.
func RecoveryIters(records []IterRecord, baseline int, tol float64) int {
	if baseline <= 0 || baseline >= len(records) {
		return 0
	}
	if tol <= 0 {
		tol = 1.1
	}
	tputs := make([]float64, 0, baseline)
	for _, rec := range records[:baseline] {
		tputs = append(tputs, rec.TokensPerSec)
	}
	limit := Percentile(tputs, 50) / tol
	degraded := 0
	for _, rec := range records[baseline:] {
		if rec.TokensPerSec < limit {
			degraded++
		}
	}
	return degraded
}

// RowSummary aggregates one (method, policy) campaign cell across seeds:
// every field is the arithmetic seed mean of the per-seed Summary.
type RowSummary struct {
	Method  string  `json:"method"`
	Arrival string  `json:"arrival"`
	Policy  string  `json:"policy"`
	Seeds   int     `json:"seeds"`
	Replans float64 `json:"replans"`

	TokensPerSec    float64 `json:"tokens_per_sec"`
	MeanIterTime    float64 `json:"mean_iter_time"`
	P50IterTime     float64 `json:"p50_iter_time"`
	P95IterTime     float64 `json:"p95_iter_time"`
	P99IterTime     float64 `json:"p99_iter_time"`
	MeanImbalance   float64 `json:"mean_imbalance"`
	MeanUtilization float64 `json:"mean_utilization"`
	RecoverySeconds float64 `json:"recovery_seconds,omitempty"`
}

// WriteRowTable renders seed-averaged campaign rows as a text table —
// the one rendering the CLI campaign subcommand and the fig13
// experiment share.
func WriteRowTable(w io.Writer, rows []RowSummary) {
	fmt.Fprintf(w, "  %-28s %-24s %10s %9s %9s %9s %8s %6s\n",
		"method", "replan policy", "tok/s", "p50(s)", "p95(s)", "p99(s)", "replans", "imb")
	for _, row := range rows {
		fmt.Fprintf(w, "  %-28s %-24s %10.0f %9.3f %9.3f %9.3f %8.1f %6.3f\n",
			row.Method, row.Policy, row.TokensPerSec,
			row.P50IterTime, row.P95IterTime, row.P99IterTime,
			row.Replans, row.MeanImbalance)
	}
}

// Summarize seed-averages a cell's reports. All reports must come from
// the same (method, arrival, policy) cell.
func Summarize(reports []*Report) RowSummary {
	var row RowSummary
	if len(reports) == 0 {
		return row
	}
	row.Method = reports[0].Summary.Method
	row.Arrival = reports[0].Summary.Arrival
	row.Policy = reports[0].Summary.Policy
	row.Seeds = len(reports)
	for _, r := range reports {
		s := r.Summary
		row.Replans += float64(s.Replans)
		row.TokensPerSec += s.TokensPerSec
		row.MeanIterTime += s.MeanIterTime
		row.P50IterTime += s.P50IterTime
		row.P95IterTime += s.P95IterTime
		row.P99IterTime += s.P99IterTime
		row.MeanImbalance += s.MeanImbalance
		row.MeanUtilization += s.MeanUtilization
		row.RecoverySeconds += s.RecoverySeconds
	}
	n := float64(len(reports))
	row.Replans /= n
	row.TokensPerSec /= n
	row.MeanIterTime /= n
	row.P50IterTime /= n
	row.P95IterTime /= n
	row.P99IterTime /= n
	row.MeanImbalance /= n
	row.MeanUtilization /= n
	row.RecoverySeconds /= n
	return row
}
