// Package serve generates inference-style request streams for the
// campaign engine: multi-client workload specs with Poisson/Gamma/Weibull
// inter-arrival processes, per-window rate schedules, SLO classes with
// per-class deadlines, and session/prefix structure for KV-affinity-aware
// routing. A spec is written in the key=value grammar every spec shares
// (package kv: "clients=3,arrival=gamma:cv=2.0,rate=50@0-60s;120@60-300s,
// slo=interactive:p99=200ms") or as JSON, the wire form, where a zero
// field selects its default; either way it expands deterministically
// into a timestamped request timeline of at most 2 × MaxRequests
// requests. A spec may instead carry a recorded timeline (trace-replay
// v2), which round-trips through NDJSON.
package serve

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"zeppelin/internal/kv"
	"zeppelin/internal/workload"
)

// SLOClass is a named service class with a latency deadline: requests
// completing after P99Sec count as violations, and Priority orders
// classes for priority batch formation (higher first).
type SLOClass struct {
	Name     string  `json:"name"`
	P99Sec   float64 `json:"p99_sec"`
	Priority int     `json:"priority,omitempty"`
}

// RateWindow schedules an aggregate arrival rate (requests/second
// across all clients) over [FromSec, ToSec) of stream time. A window
// with neither bound spans the spec's horizon.
type RateWindow struct {
	FromSec float64 `json:"from_sec,omitempty"`
	ToSec   float64 `json:"to_sec"`
	Rate    float64 `json:"rate"`
}

// Request is one inference request on a timeline, and one line of a
// recorded trace (trace-replay v2). Prefix is the number of leading
// tokens shared with earlier requests of the same Session: a router
// that lands the request on the rank already holding that session's KV
// cache skips recomputing them. Field order is part of the NDJSON trace
// contract: append new fields, never reorder.
type Request struct {
	// T is the arrival time in seconds since stream start.
	T       float64 `json:"t"`
	Client  int     `json:"client"`
	Class   string  `json:"class"`
	Tokens  int     `json:"tokens"`
	Session int     `json:"session"`
	Prefix  int     `json:"prefix,omitempty"` // shared-prefix tokens, < Tokens
}

// Arrival processes understood by Spec.
const (
	ProcessPoisson = "poisson"
	ProcessGamma   = "gamma"
	ProcessWeibull = "weibull"
)

// Batch-formation disciplines and routing objectives understood by the
// campaign serving loop (validated here so a bad spec fails at parse
// time, not mid-stream).
var (
	Formations = []string{"fcfs", "priority", "sjf"}
	Routes     = []string{"balance", "affinity"}
)

// MaxRequests bounds what one spec may ask for: its client count, and
// the request count its windows expect, Σ rate × (To − From). Timeline
// holds the whole request list in memory (about 265 B a request) and
// stops past 2 × MaxRequests generated requests (ErrTooManyRequests).
const MaxRequests = 1_000_000

// Spec is a ServeGen-style multi-client workload description, and the
// wire form of a serving scenario (zeppelin.ServeSpec). The zero value
// of every field selects its default (WithDefaults): two Poisson
// clients at 8 req/s over 60 s, interactive+batch classes,
// StackExchange lengths, priority formation, balance routing.
type Spec struct {
	// Clients is the number of concurrent request clients; 0 selects 2.
	Clients int `json:"clients,omitempty"`
	// Arrival names the inter-arrival process: "poisson" (default),
	// "gamma", or "weibull".
	Arrival string `json:"arrival,omitempty"`
	// CV is the gamma process's coefficient of variation (0 selects 1;
	// CV > 1 is bursty); Shape the weibull shape (0 selects 1; k < 1
	// gives heavy-tailed gaps).
	CV    float64 `json:"cv,omitempty"`
	Shape float64 `json:"shape,omitempty"`
	// Windows schedule the aggregate request rate over stream time;
	// empty selects one 8 req/s window over the horizon.
	Windows []RateWindow `json:"windows,omitempty"`
	// Classes are the SLO classes; empty selects interactive (p99 2s,
	// priority 2) and batch (p99 8s, priority 1). Clients round-robin
	// over classes.
	Classes []SLOClass `json:"classes,omitempty"`
	// Dataset names the request-length distribution (workload.ByName);
	// empty selects "stackexchange".
	Dataset string `json:"dataset,omitempty"`
	// Sessions is the session count per client (0 selects 8); Prefix the
	// shared-prefix fraction of each request, at most 0.9 (0 selects
	// 0.5, negative selects none).
	Sessions int     `json:"sessions,omitempty"`
	Prefix   float64 `json:"prefix,omitempty"`
	// Formation orders the queue into batches: "fcfs", "priority"
	// (default), or "sjf".
	Formation string `json:"formation,omitempty"`
	// Route is the placement objective: "balance" (default,
	// least-loaded) or "affinity" (prefer a session's KV home rank).
	Route string `json:"route,omitempty"`
	// HorizonSec is the span in seconds of the default window and of
	// every window with neither bound; 0 selects 60.
	HorizonSec float64 `json:"horizon_sec,omitempty"`
	// Trace, when non-empty, replaces the synthetic timeline with a
	// recorded one (trace-replay v2); TraceName labels it in reports.
	Trace     []Request `json:"trace,omitempty"`
	TraceName string    `json:"trace_name,omitempty"`
}

// WithDefaults returns the spec with every zero field at its default
// (see the field docs); a window with neither bound, the default one
// included, spans the horizon. Resolving a resolved spec changes
// nothing, and the result never shares a changed element with s:
// specs that share Windows or Classes, like the cells of one grid,
// stay untouched.
func (s Spec) WithDefaults() Spec {
	if s.Clients == 0 {
		s.Clients = 2
	}
	if s.Arrival == "" {
		s.Arrival = ProcessPoisson
	}
	if s.CV == 0 {
		s.CV = 1
	}
	if s.Shape == 0 {
		s.Shape = 1
	}
	if s.HorizonSec == 0 {
		s.HorizonSec = 60
	}
	if len(s.Windows) == 0 {
		s.Windows = []RateWindow{{Rate: 8}}
	}
	if slices.ContainsFunc(s.Windows, RateWindow.bare) {
		s.Windows = slices.Clone(s.Windows)
		for i, w := range s.Windows {
			if w.bare() {
				s.Windows[i].ToSec = s.HorizonSec
			}
		}
	}
	if len(s.Classes) == 0 {
		s.Classes = []SLOClass{
			{Name: "interactive", P99Sec: 2, Priority: 2},
			{Name: "batch", P99Sec: 8, Priority: 1},
		}
	}
	if s.Dataset == "" {
		s.Dataset = "stackexchange"
	}
	if s.Sessions == 0 {
		s.Sessions = 8
	}
	if s.Prefix == 0 {
		s.Prefix = 0.5
	}
	if s.Formation == "" {
		s.Formation = "priority"
	}
	if s.Route == "" {
		s.Route = "balance"
	}
	return s
}

// bare reports whether the window has neither bound.
func (w RateWindow) bare() bool { return w.FromSec == 0 && w.ToSec == 0 }

// Parse reads the serve-spec grammar: ','-separated key=value entries
// under the kv package's rules (the README's "Spec grammar")
//
//	clients=3                          number of concurrent clients
//	arrival=gamma:cv=2.0               poisson | gamma[:cv=X] | weibull[:shape=X]
//	rate=50@0-60s;120@60-300s          per-window aggregate req/s ('@from-to')
//	slo=interactive:p99=200ms:prio=2;batch:p99=2s
//	dataset=stackexchange              request-length distribution
//	sessions=8                         sessions per client
//	prefix=0.5                         shared-prefix fraction (0: none)
//	form=priority                      fcfs | priority | sjf
//	route=affinity                     balance | affinity
//	horizon=120s                       span of bare rates (default 60s)
//
// The arrival and class parameters are ':'-separated key=value entries
// under the same rules. Omitted keys take their defaults; a value the
// grammar states is taken as given, so "clients=0" is an error rather
// than the default. The result is resolved (WithDefaults) and
// validated.
func Parse(s string) (Spec, error) {
	spec := Spec{}.WithDefaults()
	spec.Windows = nil // resolved below, after a later horizon key
	err := kv.Parse("serve", s, ",", map[string]kv.Field{
		"clients": kv.Int(&spec.Clients),
		"arrival": func(v string) error {
			name, params, _ := strings.Cut(v, ":")
			spec.Arrival = name
			return kv.Parse("arrival "+name, params, ":", map[string]kv.Field{
				"cv": kv.Float(&spec.CV), "shape": kv.Float(&spec.Shape),
			})
		},
		"rate": kv.Of(&spec.Windows, parseWindows),
		"slo": func(v string) error {
			spec.Classes = nil
			for i, c := range strings.Split(v, ";") {
				name, params, _ := strings.Cut(c, ":")
				cls := SLOClass{Name: name, Priority: -i} // later classes rank lower by default
				err := kv.Parse(fmt.Sprintf("class %q", name), params, ":", map[string]kv.Field{
					"p99": kv.Of(&cls.P99Sec, seconds), "prio": kv.Int(&cls.Priority),
				})
				if err != nil {
					return err
				}
				spec.Classes = append(spec.Classes, cls)
			}
			return nil
		},
		"dataset":  kv.String(&spec.Dataset),
		"sessions": kv.Int(&spec.Sessions),
		"prefix":   kv.Float(&spec.Prefix),
		"form":     kv.String(&spec.Formation),
		"route":    kv.String(&spec.Route),
		"horizon":  kv.Of(&spec.HorizonSec, seconds),
	})
	if err != nil {
		return Spec{}, err
	}
	switch {
	case spec.Prefix < 0:
		return Spec{}, fmt.Errorf("serve: prefix fraction must be in [0, 0.9], got %v", spec.Prefix)
	case spec.Prefix == 0:
		spec.Prefix = -1 // the grammar's none; a zero field selects the default
	}
	// Only the windows take their defaults here: any other zero was
	// written in the grammar, and Validate rejects it.
	spec.Windows = spec.WithDefaults().Windows
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// seconds reads a time.ParseDuration value ("200ms", "1m30s") as
// seconds.
func seconds(v string) (float64, error) {
	d, err := time.ParseDuration(v)
	return d.Seconds(), err
}

func parseWindows(val string) ([]RateWindow, error) {
	var out []RateWindow
	for _, w := range strings.Split(val, ";") {
		rateStr, span, windowed := strings.Cut(w, "@")
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil {
			return nil, err
		}
		win := RateWindow{Rate: rate}
		if windowed {
			fromStr, toStr, ok := strings.Cut(span, "-")
			if !ok {
				return nil, fmt.Errorf("window %q is not from-to", span)
			}
			if win.FromSec, err = spanBound(fromStr); err != nil {
				return nil, err
			}
			if win.ToSec, err = spanBound(toStr); err != nil {
				return nil, err
			}
		}
		out = append(out, win)
	}
	return out, nil
}

// spanBound reads a window bound in seconds: a duration, or a bare
// number of seconds, so window spans can be written "50@0-60s" or
// "120@60-300".
func spanBound(s string) (float64, error) {
	if sec, err := seconds(s); err == nil {
		return sec, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("duration %q needs a unit or a bare number of seconds", s)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("duration %q is not finite", s)
	}
	return f, nil
}

// Bounds on the arrival processes. An inter-arrival draw is float64
// seconds added to the stream clock; burstier processes and finer rates
// than these would draw gaps that no longer move it, so a timeline
// would hold far more requests than its windows expect, or never end.
const (
	minCV, maxCV  = 0.1, 10 // gamma: shape 1/CV² in [0.01, 100]
	minShape      = 0.25    // weibull: CV below 9
	maxResolution = 1 << 40
)

// Validate checks a resolved spec (WithDefaults) is well-formed,
// including that the dataset exists and its bin weights are sane
// (workload.Dataset.Validate). A trace's events are checked when
// Timeline replays them.
func (s *Spec) Validate() error {
	if s.Clients < 1 || s.Clients > MaxRequests {
		return fmt.Errorf("serve: clients must be in [1, %d], got %d", MaxRequests, s.Clients)
	}
	switch s.Arrival {
	case ProcessPoisson, ProcessGamma, ProcessWeibull:
	default:
		return fmt.Errorf("serve: unknown arrival process %q (want poisson, gamma, or weibull)", s.Arrival)
	}
	if !(s.CV >= minCV && s.CV <= maxCV) {
		return fmt.Errorf("serve: gamma cv must be in [%v, %v], got %v", minCV, maxCV, s.CV)
	}
	if !(s.Shape >= minShape) || math.IsInf(s.Shape, 1) {
		return fmt.Errorf("serve: weibull shape must be finite and >= %v, got %v", minShape, s.Shape)
	}
	if !finitePositive(s.HorizonSec) {
		return fmt.Errorf("serve: horizon must be finite and > 0 seconds, got %v", s.HorizonSec)
	}
	if len(s.Windows) == 0 {
		return fmt.Errorf("serve: at least one rate window required")
	}
	var expected float64
	for i, w := range s.Windows {
		if !finitePositive(w.Rate) {
			return fmt.Errorf("serve: window %d rate must be finite and > 0, got %v", i, w.Rate)
		}
		if !(w.FromSec >= 0 && w.ToSec > w.FromSec) {
			return fmt.Errorf("serve: window %d span [%gs,%gs) is empty or negative", i, w.FromSec, w.ToSec)
		}
		// A client's mean gap stays above 2^-40 of the window's end, or
		// 4096 steps of the float64 clock there.
		if w.ToSec*w.Rate/float64(s.Clients) > maxResolution {
			return fmt.Errorf("serve: window %d asks for arrivals finer than the stream clock resolves at %gs", i, w.ToSec)
		}
		if i > 0 && w.FromSec < s.Windows[i-1].ToSec {
			return fmt.Errorf("serve: window %d starts at %gs before window %d ends at %gs", i, w.FromSec, i-1, s.Windows[i-1].ToSec)
		}
		expected += w.Rate * (w.ToSec - w.FromSec)
	}
	if expected > MaxRequests {
		return fmt.Errorf("serve: rate windows expect %.0f requests, above the %d ceiling", expected, MaxRequests)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("serve: at least one SLO class required")
	}
	seen := map[string]bool{}
	for i, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("serve: class %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("serve: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if !(c.P99Sec > 0) {
			return fmt.Errorf("serve: class %s deadline must be > 0, got %gs", c.Name, c.P99Sec)
		}
	}
	d, err := workload.ByName(s.Dataset)
	if err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	if s.Sessions < 1 {
		return fmt.Errorf("serve: sessions must be >= 1, got %d", s.Sessions)
	}
	if s.Prefix > 0.9 || math.IsNaN(s.Prefix) {
		return fmt.Errorf("serve: prefix fraction must be in [0, 0.9], got %v", s.Prefix)
	}
	if !slices.Contains(Formations, s.Formation) {
		return fmt.Errorf("serve: unknown formation %q (want one of %v)", s.Formation, Formations)
	}
	if !slices.Contains(Routes, s.Route) {
		return fmt.Errorf("serve: unknown route objective %q (want one of %v)", s.Route, Routes)
	}
	return nil
}

func finitePositive(f float64) bool { return f > 0 && !math.IsInf(f, 1) }

// Class returns the class named name, or false.
func (s *Spec) Class(name string) (SLOClass, bool) {
	for _, c := range s.Classes {
		if c.Name == name {
			return c, true
		}
	}
	return SLOClass{}, false
}

// Name labels the timeline's source for reports: the synthetic
// process ("serve(2xpoisson,2cls)"), or a trace with its name and event
// count ("tracev2(name,N)").
func (s *Spec) Name() string {
	if len(s.Trace) > 0 {
		return fmt.Sprintf("tracev2(%s,%d)", cmp.Or(s.TraceName, "wire"), len(s.Trace))
	}
	proc := s.Arrival
	switch s.Arrival {
	case ProcessGamma:
		proc = fmt.Sprintf("gamma cv=%g", s.CV)
	case ProcessWeibull:
		proc = fmt.Sprintf("weibull k=%g", s.Shape)
	}
	return fmt.Sprintf("serve(%dx%s,%dcls)", s.Clients, proc, len(s.Classes))
}

// ErrTooManyRequests is the error Timeline stops with once a spec has
// generated more than 2 × MaxRequests requests. Validate bounds only the
// expected count: every client restarts its renewal process at each
// window start, so a bursty process can overshoot that expectation by
// orders of magnitude when each client expects few requests. The factor
// 2 keeps a Poisson spec at the ceiling (standard deviation about 1,000)
// far from the bound.
var ErrTooManyRequests = errors.New("serve: spec generates too many requests")

// Timeline expands the spec into an arrival-ordered request stream, or
// replays its Trace (see replay). Each client draws its own
// inter-arrival process at rate/Clients, resetting at window
// boundaries; request lengths come from the dataset distribution, and
// each request joins one of the client's sessions with a shared prefix
// of Prefix×Tokens tokens. All draws come sequentially from rng — same
// seed, same timeline, bit for bit. A spec that generates more than
// 2 × MaxRequests requests fails with ErrTooManyRequests.
func (s *Spec) Timeline(rng *rand.Rand) ([]Request, error) {
	return s.timeline(rng, 2*MaxRequests)
}

// timeline is Timeline with the bound on generated requests as an
// argument.
func (s *Spec) timeline(rng *rand.Rand, limit int) ([]Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.Trace) > 0 {
		return s.replay()
	}
	d, err := workload.ByName(s.Dataset)
	if err != nil {
		return nil, err
	}
	prefix := max(s.Prefix, 0) // negative selects none
	var out []Request
	for client := 0; client < s.Clients; client++ {
		class := s.Classes[client%len(s.Classes)].Name
		for _, w := range s.Windows {
			rate := w.Rate / float64(s.Clients)
			t := w.FromSec
			for {
				t += s.gap(rng, rate)
				if t >= w.ToSec {
					break
				}
				if len(out) == limit {
					return nil, fmt.Errorf("%w: more than %d", ErrTooManyRequests, limit)
				}
				tokens := d.SampleLen(rng)
				if tokens < 16 {
					tokens = 16
				}
				out = append(out, Request{
					T:       t,
					Client:  client,
					Class:   class,
					Tokens:  tokens,
					Session: client*s.Sessions + rng.Intn(s.Sessions),
					Prefix:  int(prefix * float64(tokens)),
				})
			}
		}
	}
	sortRequests(out)
	return out, nil
}

// gap draws one inter-arrival gap in seconds for a per-client rate.
func (s *Spec) gap(rng *rand.Rand, rate float64) float64 {
	switch s.Arrival {
	case ProcessGamma:
		// Gamma with mean 1/rate and coefficient of variation CV:
		// shape k = 1/CV², scale θ = CV²/rate. CV=1 degenerates to the
		// exponential; CV>1 produces bursts.
		k := 1 / (s.CV * s.CV)
		return gammaSample(rng, k) * s.CV * s.CV / rate
	case ProcessWeibull:
		// Weibull with mean 1/rate: scale λ = 1/(rate·Γ(1+1/k));
		// inverse-CDF sampling. k<1 gives heavy-tailed gaps.
		lambda := 1 / (rate * math.Gamma(1+1/s.Shape))
		return lambda * math.Pow(-math.Log(1-rng.Float64()), 1/s.Shape)
	default: // poisson
		return rng.ExpFloat64() / rate
	}
}

// gammaSample draws Gamma(k, 1) by Marsaglia–Tsang squeeze, with the
// standard boost for k < 1.
func gammaSample(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		return gammaSample(rng, k+1) * math.Pow(rng.Float64(), 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// sortRequests orders by arrival time, client, then draw order — the
// canonical timeline order.
func sortRequests(reqs []Request) {
	slices.SortStableFunc(reqs, func(a, b Request) int {
		return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.Client, b.Client))
	})
}
