package zeppelin

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"zeppelin/internal/campaign"
	"zeppelin/internal/workload/serve"
)

// ServeSpec is the wire form of a serving scenario: a ServeGen-style
// multi-client workload with SLO classes, batch formation, and a routing
// objective — the serve engine's own spec. The zero value of every
// field selects the engine default (two Poisson clients at 8 req/s over
// 60 s, interactive+batch classes, StackExchange lengths, priority
// formation, balance routing). A non-empty Trace replaces the synthetic
// timeline with a recorded one (trace-replay v2).
type ServeSpec = serve.Spec

// ServeWindow schedules an aggregate arrival rate (requests/second) over
// [FromSec, ToSec) of stream time; a window with neither bound spans the
// spec's horizon.
type ServeWindow = serve.RateWindow

// SLOClass is a named service class with a latency deadline: requests
// completing after P99Sec count as violations, and Priority orders
// classes for priority batch formation (higher first).
type SLOClass = serve.SLOClass

// ServeTraceEvent is one recorded request of a trace-replay v2 timeline,
// and one line of the NDJSON trace files the CLI reads and writes.
type ServeTraceEvent = serve.Request

// ClassMetrics is the wire form of one SLO class's campaign outcome —
// the engine's own per-class metrics.
type ClassMetrics = campaign.ClassMetrics

// ParseServeSpec resolves the CLI's -serve grammar into a wire spec —
// the serving counterpart of ParseAutoscaleSpec. The grammar is
// comma-separated key=value entries; see the serve package:
//
//	clients=3,arrival=gamma:cv=2.0,rate=50@0-60s;120@60-300s,slo=interactive:p99=200ms
//
// An empty string selects every default. The spec comes back with every
// field explicit; the grammar's prefix=0 (none) becomes a negative
// Prefix.
func ParseServeSpec(s string) (*ServeSpec, error) {
	spec, err := serve.Parse(s)
	if err != nil {
		return nil, err
	}
	return &spec, nil
}

// GenerateServeTimeline expands a serve spec into its deterministic
// request timeline at a seed (0 selects DefaultSeed) — the "record" half
// of trace-replay v2. Writing the result with WriteServeTrace and
// replaying it through ServeSpec.Trace reproduces the generative
// campaign bit for bit.
func GenerateServeTimeline(spec *ServeSpec, seed int64) ([]ServeTraceEvent, error) {
	var s ServeSpec
	if spec != nil {
		s = *spec
	}
	s = s.WithDefaults()
	if seed == 0 {
		seed = DefaultSeed
	}
	return s.Timeline(rand.New(rand.NewSource(seed)))
}

// WriteServeTrace serializes a timeline as NDJSON, one request per line —
// the trace-replay v2 file format.
func WriteServeTrace(w io.Writer, events []ServeTraceEvent) error { return serve.WriteTrace(w, events) }

// ReadServeTrace parses an NDJSON request trace written by
// WriteServeTrace (or by hand; see ServeTraceEvent for the columns).
func ReadServeTrace(r io.Reader) ([]ServeTraceEvent, error) { return serve.ReadTrace(r) }

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
