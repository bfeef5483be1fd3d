package zeppelin

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"

	"zeppelin/internal/campaign"
	"zeppelin/internal/decision"
	"zeppelin/internal/experiments"
	"zeppelin/internal/trace"
)

// Default campaign knobs, re-exported for clients that surface them
// (the CLI's -threshold and -replan-cost flags).
const (
	// DefaultThreshold is the imbalance ratio the threshold policy
	// replans at when PolicySpec.Threshold is zero.
	DefaultThreshold = campaign.DefaultThreshold
	// DefaultReplanCostSec is the per-replan coordination charge when
	// CampaignRequest.ReplanCostSec is zero.
	DefaultReplanCostSec = campaign.DefaultReplanCost
)

// Campaign is an in-flight streaming campaign: the iterator-style public
// face of the internal campaign engine. NewCampaign resolves the request
// (building the session-owned Zeppelin planner), Start binds the
// context that governs the run, and each Next call simulates
// exactly one iteration and returns its event — the consumption model
// the zeppelind NDJSON endpoint streams over HTTP.
//
// A Campaign runs once: Start claims it, and a second Start returns an
// error. Next/Err/Report must be called from one goroutine (the stream
// is serial by construction).
type Campaign struct {
	cfg   campaign.Config
	trace *decision.Trace

	mu      sync.Mutex
	started bool

	st *campaign.Stream
}

// CampaignOption configures NewCampaign beyond the wire request.
type CampaignOption func(*campaignOptions)

type campaignOptions struct {
	cache     *PlanCache
	decisions bool
	flip      *FlipSpec
}

// WithCampaignPlanCache wires the campaign's session-owned planner to a
// process-wide shared plan cache: exact full-solve results are probed
// and published across sessions and plan requests. Reuse is
// bit-identical, so the event stream does not depend on cache state. A
// nil cache is ignored.
func WithCampaignPlanCache(c *PlanCache) CampaignOption {
	return func(o *campaignOptions) { o.cache = c }
}

// WithCampaignDecisions records every replan/admission/placement choice
// the campaign makes; the trace is readable through Campaign.Decisions
// while the stream runs and after it completes. Decision traces are
// deterministic per (request, seed): the same campaign produces a
// byte-identical decision log at any worker count.
func WithCampaignDecisions() CampaignOption {
	return func(o *campaignOptions) { o.decisions = true }
}

// WithCampaignFlip overrides the replan verdict at exactly one
// iteration — the counterfactual replay hook. Forced decisions (first
// iteration, post-resize) are not flippable; a flip agreeing with the
// factual verdict leaves the stream bit-identical. Implies decision
// recording so the flipped record is observable.
func WithCampaignFlip(f FlipSpec) CampaignOption {
	return func(o *campaignOptions) { o.flip = &f }
}

// NewCampaign resolves the request into a runnable campaign. The
// request's method instance — for Zeppelin, an exact-mode incremental
// planner — is owned by this campaign alone.
func NewCampaign(req CampaignRequest, opts ...CampaignOption) (*Campaign, error) {
	var o campaignOptions
	for _, opt := range opts {
		opt(&o)
	}
	cfg, err := req.configWith(o.cache)
	if err != nil {
		return nil, err
	}
	c := &Campaign{cfg: cfg}
	if o.flip != nil {
		if err := o.flip.Validate(); err != nil {
			return nil, err
		}
		c.cfg.Flip = o.flip
		o.decisions = true
	}
	if o.decisions {
		c.trace = &decision.Trace{}
		c.cfg.Decisions = c.trace
	}
	return c, nil
}

// Start begins the stream under ctx: once the context is cancelled the
// next Next call stops the campaign and Err reports ctx.Err(). Starting
// an already-started campaign is an error.
func (c *Campaign) Start(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("zeppelin: campaign already started")
	}
	st, err := campaign.Start(ctx, c.cfg)
	if err != nil {
		return err
	}
	c.started = true
	c.st = st
	return nil
}

// Next simulates the next iteration and returns its event. It returns
// ok=false when the campaign completed, its context was cancelled, or an
// iteration failed — Err distinguishes the three (nil on completion).
func (c *Campaign) Next() (CampaignEvent, bool) {
	if c.st == nil {
		return CampaignEvent{}, false
	}
	return c.st.Next()
}

// Err reports why the stream stopped; nil while events keep coming and
// after a complete campaign.
func (c *Campaign) Err() error {
	if c.st == nil {
		return nil
	}
	return c.st.Err()
}

// Iters is the campaign horizon the request asked for.
func (c *Campaign) Iters() int { return c.cfg.Iters }

// Decisions snapshots the decision records accumulated so far (empty
// without WithCampaignDecisions). Safe to call while the stream runs —
// records accumulate in iteration order from the campaign goroutine.
// The slice is a copy, but each record's Events and Alternatives are
// shared with the trace: treat them as read-only.
func (c *Campaign) Decisions() []DecisionRecord {
	if c.trace == nil {
		return nil
	}
	return c.trace.Records()
}

// Report returns the wire report accumulated so far; after Next has
// returned false it is finalized over the events that ran. The events
// and classes are copies: the stream keeps appending to its own.
func (c *Campaign) Report() *CampaignReport {
	if c.st == nil {
		return &CampaignReport{Events: []CampaignEvent{}}
	}
	rep := c.st.Report()
	return &CampaignReport{
		Summary:     rep.Summary,
		PerRankUtil: rep.PerRankUtil,
		Classes:     slices.Clone(rep.Classes),
		Events:      append([]CampaignEvent{}, rep.Records...),
	}
}

// StartCampaign is NewCampaign followed by Start.
func StartCampaign(ctx context.Context, req CampaignRequest) (*Campaign, error) {
	c, err := NewCampaign(req)
	if err != nil {
		return nil, err
	}
	if err := c.Start(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// RunCampaign drains a campaign to completion and returns its report —
// the one-call form of the streaming API, bit-identical to consuming the
// events one by one.
func RunCampaign(ctx context.Context, req CampaignRequest) (*CampaignReport, error) {
	c, err := drainCampaign(ctx, req)
	if err != nil {
		return nil, err
	}
	return c.Report(), nil
}

// drainCampaign runs one campaign to completion and returns it drained.
func drainCampaign(ctx context.Context, req CampaignRequest, opts ...CampaignOption) (*Campaign, error) {
	c, err := NewCampaign(req, opts...)
	if err != nil {
		return nil, err
	}
	if err := c.Start(ctx); err != nil {
		return nil, err
	}
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// CampaignComparison is the artifact of one comparison grid: the
// paper's four methods streamed through the same arrival/policy/faults
// cell across seeds. It marshals to the same JSON shape the zeppelin CLI
// has always emitted and renders the same text table and timeline.
type CampaignComparison struct {
	iters   int
	arrival string
	policy  string
	faults  string
	seeds   int
	rows    []campaign.RowSummary
	reports []*campaign.Report
}

// CompareCampaigns runs the campaign comparison grid: every compared
// method under the request's cell, arrival, policy, and fault schedule,
// `seeds` independent campaigns each, fanned over a bounded pool of
// `workers`. The request's Method and Seed fields are ignored — the
// comparison always covers the full method set, and each grid cell is
// seeded SeedValue(s) so the rows reproduce the fig13 experiment and
// individual cells can be replayed through the streaming API. Results
// are bit-identical at every worker count; cancelling ctx stops the
// grid and returns ctx.Err().
func CompareCampaigns(ctx context.Context, req CampaignRequest, seeds, workers int) (*CampaignComparison, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("zeppelin: seeds must be >= 1, got %d", seeds)
	}
	methods := Methods()
	var cfgs []campaign.Config
	for _, m := range methods {
		for s := 0; s < seeds; s++ {
			r := req
			r.Method = m.ID
			// Seed the grid exactly like fig13 so CLI campaigns and the
			// experiment stream identical per-seed batches.
			r.Seed = SeedValue(s)
			cfg, err := r.config()
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, cfg)
		}
	}
	reports, err := campaign.RunGrid(ctx, cfgs, workers)
	if err != nil {
		return nil, err
	}
	// Labels come from the drained summary rather than the config: serve
	// campaigns have no Arrival/Policy objects (the serve spec owns the
	// stream), and for training campaigns the summary carries the exact
	// same names.
	cmp := &CampaignComparison{
		iters:   req.Iters,
		arrival: reports[0].Summary.Arrival,
		policy:  reports[0].Summary.Policy,
		seeds:   seeds,
	}
	if cfgs[0].Faults != nil {
		cmp.faults = cfgs[0].Faults.Name
	}
	for m := range methods {
		cell := reports[m*seeds : (m+1)*seeds]
		cmp.rows = append(cmp.rows, campaign.Summarize(cell))
		cmp.reports = append(cmp.reports, cell[0])
	}
	return cmp, nil
}

// SeedValue is the per-seed RNG base every figure and campaign grid has
// always used (delegating to the experiments package's formula so the
// public API can never drift from fig13's seeding); exposed so clients
// can reproduce individual grid cells through the streaming API.
func SeedValue(s int) int64 { return experiments.SeedValue(s) }

// MarshalJSON emits the comparison in the CLI's campaign artifact shape.
func (a *CampaignComparison) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Iters   int                   `json:"iters"`
		Arrival string                `json:"arrival"`
		Policy  string                `json:"policy"`
		Faults  string                `json:"faults,omitempty"`
		Seeds   int                   `json:"seeds"`
		Rows    []campaign.RowSummary `json:"rows"`
		Reports []*campaign.Report    `json:"reports"`
	}{a.iters, a.arrival, a.policy, a.faults, a.seeds, a.rows, a.reports})
}

// WriteJSON emits the indented JSON artifact.
func (a *CampaignComparison) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteText renders the seed-averaged comparison table and the last
// method's (Zeppelin's) seed-0 iteration timeline — the CLI rendering.
func (a *CampaignComparison) WriteText(w io.Writer) error {
	label := ""
	if a.faults != "" {
		label = ", faults " + a.faults
	}
	fmt.Fprintf(w, "streaming campaign: %d iterations, arrival %s, policy %s%s, %d seed(s)\n\n",
		a.iters, a.arrival, a.policy, label, a.seeds)
	campaign.WriteRowTable(w, a.rows)
	last := a.reports[len(a.reports)-1]
	if len(last.Classes) > 0 {
		fmt.Fprintf(w, "\n%s per-class serving metrics (seed 0):\n", last.Summary.Method)
		campaign.WriteClassTable(w, last.Classes)
	}
	fmt.Fprintf(w, "\n%s campaign (seed 0):\n", last.Summary.Method)
	trace.CampaignTimeline(w, last.TraceRows(), 60, 25)
	return nil
}
