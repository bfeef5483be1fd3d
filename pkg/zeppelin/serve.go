package zeppelin

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"zeppelin/internal/campaign"
	"zeppelin/internal/workload/serve"
)

// ServeSpec is the wire form of a serving scenario: a ServeGen-style
// multi-client workload with SLO classes, batch formation, and a routing
// objective. The zero value of every field selects the engine default
// (two Poisson clients at 8 req/s over 60 s, interactive+batch classes,
// StackExchange lengths, priority formation, balance routing).
type ServeSpec struct {
	// Clients is the number of concurrent request clients; 0 selects 2.
	Clients int `json:"clients,omitempty"`
	// Arrival names the inter-arrival process: "poisson" (default),
	// "gamma", or "weibull".
	Arrival string `json:"arrival,omitempty"`
	// CV is the gamma process's coefficient of variation (0 selects 1;
	// CV > 1 is bursty); Shape the weibull shape (0 selects 1).
	CV    float64 `json:"cv,omitempty"`
	Shape float64 `json:"shape,omitempty"`
	// Windows schedule the aggregate request rate over stream time;
	// empty selects one 8 req/s window over the horizon.
	Windows []ServeWindow `json:"windows,omitempty"`
	// Classes are the SLO classes; empty selects interactive (p99 2s,
	// priority 2) and batch (p99 8s, priority 1). Clients round-robin
	// over classes.
	Classes []SLOClass `json:"classes,omitempty"`
	// Dataset names the request-length distribution; empty selects
	// "stackexchange".
	Dataset string `json:"dataset,omitempty"`
	// Sessions is the session count per client (0 selects 8); Prefix the
	// shared-prefix fraction of each request (0 selects 0.5, negative
	// selects none).
	Sessions int     `json:"sessions,omitempty"`
	Prefix   float64 `json:"prefix,omitempty"`
	// Formation orders the queue into batches: "fcfs", "priority"
	// (default), or "sjf".
	Formation string `json:"formation,omitempty"`
	// Route is the placement objective: "balance" (default,
	// least-loaded) or "affinity" (prefer a session's KV home rank).
	Route string `json:"route,omitempty"`
	// HorizonSec spans bare-rate windows (0 selects 60).
	HorizonSec float64 `json:"horizon_sec,omitempty"`
	// Trace, when non-empty, replaces the synthetic timeline with a
	// recorded one (trace-replay v2); TraceName labels it in reports.
	Trace     []ServeTraceEvent `json:"trace,omitempty"`
	TraceName string            `json:"trace_name,omitempty"`
}

// ServeWindow schedules an aggregate arrival rate (requests/second) over
// [FromSec, ToSec) of stream time.
type ServeWindow struct {
	FromSec float64 `json:"from_sec,omitempty"`
	ToSec   float64 `json:"to_sec"`
	Rate    float64 `json:"rate"`
}

// SLOClass is a named service class with a latency deadline: requests
// completing after P99Sec count as violations, and Priority orders
// classes for priority batch formation (higher first).
type SLOClass struct {
	Name     string  `json:"name"`
	P99Sec   float64 `json:"p99_sec"`
	Priority int     `json:"priority,omitempty"`
}

// ServeTraceEvent is one recorded request of a trace-replay v2 timeline.
// Field order matches the NDJSON trace files the CLI reads and writes.
type ServeTraceEvent struct {
	// T is the arrival time in seconds since stream start.
	T      float64 `json:"t"`
	Client int     `json:"client,omitempty"`
	Class  string  `json:"class"`
	Tokens int     `json:"tokens"`
	// Session groups requests sharing a KV prefix; Prefix is the shared
	// token count (< Tokens).
	Session int `json:"session,omitempty"`
	Prefix  int `json:"prefix,omitempty"`
}

// ClassMetrics is the wire form of one SLO class's campaign outcome —
// the engine's own per-class metrics.
type ClassMetrics = campaign.ClassMetrics

// ParseServeSpec resolves the CLI's -serve grammar into a wire spec —
// the serving counterpart of ParseAutoscaleSpec. The grammar is
// comma-separated key=value entries; see the serve package:
//
//	clients=3,arrival=gamma:cv=2.0,rate=50@0-60s;120@60-300s,slo=interactive:p99=200ms
//
// An empty string selects every default.
func ParseServeSpec(s string) (*ServeSpec, error) {
	spec, err := serve.Parse(s)
	if err != nil {
		return nil, err
	}
	return serveSpecOf(spec), nil
}

// serveSpecOf converts an internal spec to its fully explicit wire form.
func serveSpecOf(spec serve.Spec) *ServeSpec {
	out := &ServeSpec{
		Clients:    spec.Clients,
		Arrival:    spec.Process,
		CV:         spec.CV,
		Shape:      spec.Shape,
		Dataset:    spec.Dataset,
		Sessions:   spec.Sessions,
		Prefix:     spec.Prefix,
		Formation:  spec.Formation,
		Route:      spec.Route,
		HorizonSec: spec.Horizon.Seconds(),
	}
	if out.Prefix == 0 {
		out.Prefix = -1 // wire zero means "default"; explicit none is negative
	}
	for _, w := range spec.Windows {
		out.Windows = append(out.Windows, ServeWindow{
			FromSec: w.From.Seconds(), ToSec: w.To.Seconds(), Rate: w.Rate,
		})
	}
	for _, c := range spec.Classes {
		out.Classes = append(out.Classes, SLOClass{
			Name: c.Name, P99Sec: c.Deadline.Seconds(), Priority: c.Priority,
		})
	}
	return out
}

// resolve maps the wire spec onto the internal serve configuration.
func (s *ServeSpec) resolve() (*campaign.ServeConfig, error) {
	if s == nil {
		return nil, nil
	}
	spec := serve.DefaultSpec()
	if s.Clients != 0 {
		spec.Clients = s.Clients
	}
	if s.Arrival != "" {
		spec.Process = s.Arrival
	}
	if s.CV != 0 {
		spec.CV = s.CV
	}
	if s.Shape != 0 {
		spec.Shape = s.Shape
	}
	if s.Dataset != "" {
		spec.Dataset = s.Dataset
	}
	if s.Sessions != 0 {
		spec.Sessions = s.Sessions
	}
	switch {
	case s.Prefix < 0:
		spec.Prefix = 0
	case s.Prefix > 0:
		spec.Prefix = s.Prefix
	}
	if s.Formation != "" {
		spec.Formation = s.Formation
	}
	if s.Route != "" {
		spec.Route = s.Route
	}
	if s.HorizonSec != 0 {
		spec.Horizon = secDur(s.HorizonSec)
	}
	if len(s.Windows) > 0 {
		spec.Windows = nil
		for _, w := range s.Windows {
			spec.Windows = append(spec.Windows, serve.RateWindow{
				From: secDur(w.FromSec), To: secDur(w.ToSec), Rate: w.Rate,
			})
		}
	}
	if len(s.Classes) > 0 {
		spec.Classes = nil
		for _, c := range s.Classes {
			spec.Classes = append(spec.Classes, serve.SLOClass{
				Name: c.Name, Deadline: secDur(c.P99Sec), Priority: c.Priority,
			})
		}
	}
	sc := &campaign.ServeConfig{Spec: spec}
	if len(s.Trace) > 0 {
		name := s.TraceName
		if name == "" {
			name = "wire"
		}
		sc.Trace = &serve.Trace{Source: name, Events: traceEventsTo(s.Trace)}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func secDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

func traceEventsTo(events []ServeTraceEvent) []serve.Request {
	out := make([]serve.Request, len(events))
	for i, e := range events {
		out[i] = serve.Request{
			Client: e.Client, Class: e.Class, Arrive: e.T,
			Tokens: e.Tokens, Session: e.Session, Prefix: e.Prefix,
		}
	}
	return out
}

func traceEventsOf(reqs []serve.Request) []ServeTraceEvent {
	out := make([]ServeTraceEvent, len(reqs))
	for i, r := range reqs {
		out[i] = ServeTraceEvent{
			T: r.Arrive, Client: r.Client, Class: r.Class,
			Tokens: r.Tokens, Session: r.Session, Prefix: r.Prefix,
		}
	}
	return out
}

// GenerateServeTimeline expands a serve spec into its deterministic
// request timeline at a seed (0 selects DefaultSeed) — the "record" half
// of trace-replay v2. Writing the result with WriteServeTrace and
// replaying it through ServeSpec.Trace reproduces the generative
// campaign bit for bit.
func GenerateServeTimeline(spec *ServeSpec, seed int64) ([]ServeTraceEvent, error) {
	if spec == nil {
		spec = &ServeSpec{}
	}
	sc, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = DefaultSeed
	}
	reqs, err := sc.Spec.Timeline(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return traceEventsOf(reqs), nil
}

// WriteServeTrace serializes a timeline as NDJSON, one request per line —
// the trace-replay v2 file format.
func WriteServeTrace(w io.Writer, events []ServeTraceEvent) error {
	return serve.WriteTrace(w, traceEventsTo(events))
}

// ReadServeTrace parses an NDJSON request trace written by
// WriteServeTrace (or by hand; see ServeTraceEvent for the columns).
func ReadServeTrace(r io.Reader) ([]ServeTraceEvent, error) {
	reqs, err := serve.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	return traceEventsOf(reqs), nil
}

// IsValidationError reports whether an error from a campaign, replay, or
// serve API call was caused by bad input rather than an internal
// failure — the distinction zeppelind uses to answer 400 vs 500.
func IsValidationError(err error) bool { return campaign.IsValidation(err) }

// ServeRouteResult is one routing objective's seed-averaged outcome in a
// serve comparison.
type ServeRouteResult struct {
	Route string `json:"route"`
	// Row carries the standard campaign aggregates (throughput,
	// iteration-time percentiles); Classes the per-SLO-class serving
	// metrics, highest priority first.
	Row     campaign.RowSummary `json:"row"`
	Classes []ClassMetrics      `json:"classes"`
}

// ServeComparison is the artifact of one serve-routing comparison: the
// same serving scenario streamed under each routing objective across
// seeds.
type ServeComparison struct {
	Iters     int                `json:"iters"`
	Generator string             `json:"generator"`
	Formation string             `json:"formation"`
	Seeds     int                `json:"seeds"`
	Routes    []ServeRouteResult `json:"routes"`
}

// CompareServeRoutes runs the request's serving scenario once per
// routing objective (balance, affinity) across `seeds` campaigns each,
// fanned over `workers`. The request must carry a Serve spec; its Route
// and Seed fields are overridden per cell (seeds follow SeedValue, like
// every grid). Results are bit-identical at every worker count.
func CompareServeRoutes(ctx context.Context, req CampaignRequest, seeds, workers int) (*ServeComparison, error) {
	if req.Serve == nil {
		return nil, fmt.Errorf("zeppelin: serve comparison needs a serve spec")
	}
	if seeds < 1 {
		return nil, fmt.Errorf("zeppelin: seeds must be >= 1, got %d", seeds)
	}
	routes := serve.Routes
	var cfgs []campaign.Config
	for _, route := range routes {
		for s := 0; s < seeds; s++ {
			r := req
			spec := *req.Serve
			spec.Route = route
			r.Serve = &spec
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
	cmp := &ServeComparison{
		Iters:     req.Iters,
		Generator: reports[0].Summary.Arrival,
		Formation: cfgs[0].Serve.Spec.Formation,
		Seeds:     seeds,
	}
	for i, route := range routes {
		cell := reports[i*seeds : (i+1)*seeds]
		cmp.Routes = append(cmp.Routes, ServeRouteResult{
			Route:   route,
			Row:     campaign.Summarize(cell),
			Classes: campaign.SummarizeClasses(cell),
		})
	}
	return cmp, nil
}

// WriteJSON emits the comparison as an indented JSON artifact.
func (c *ServeComparison) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// WriteText renders the per-route serving tables.
func (c *ServeComparison) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "serving comparison: %s, formation %s, horizon %d ticks, %d seed(s)\n",
		c.Generator, c.Formation, c.Iters, c.Seeds)
	for _, r := range c.Routes {
		fmt.Fprintf(w, "\nroute %s: %.0f tok/s, p99 tick %.3fs\n", r.Route,
			r.Row.TokensPerSec, r.Row.P99IterTime)
		campaign.WriteClassTable(w, r.Classes)
	}
	return nil
}
