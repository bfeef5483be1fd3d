// Package serve generates inference-style request streams for the
// campaign engine: multi-client workload specs with Poisson/Gamma/Weibull
// inter-arrival processes, per-window rate schedules, SLO classes with
// per-class deadlines, and session/prefix structure for KV-affinity-aware
// routing. A spec is written in the key=value grammar every spec shares
// (package kv: "clients=3,arrival=gamma:cv=2.0,rate=50@0-60s;120@60-300s,
// slo=interactive:p99=200ms") and expands deterministically into a
// timestamped request timeline of about MaxRequests requests at most.
// Recorded timelines round-trip through NDJSON (trace-replay v2), making
// captured traces a first-class generator alongside the synthetic
// processes.
package serve

import (
	"cmp"
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

// SLOClass is a named service class with a latency deadline. Requests in
// the class that complete after Deadline count as SLO violations; Priority
// orders classes for priority batch formation (higher first).
type SLOClass struct {
	Name     string
	Deadline time.Duration
	Priority int
}

// RateWindow schedules an aggregate arrival rate (requests/second across
// all clients) over [From, To).
type RateWindow struct {
	From, To time.Duration
	Rate     float64
}

// Request is one inference request on the generated timeline. Arrive is
// seconds since stream start. Prefix is the number of leading tokens
// shared with earlier requests of the same Session: a router that lands
// the request on the rank already holding that session's KV cache skips
// recomputing them.
type Request struct {
	ID      int
	Client  int
	Class   string
	Arrive  float64 // seconds
	Tokens  int
	Session int
	Prefix  int // shared-prefix tokens, < Tokens
}

// Generator is the pluggable source of request timelines: synthetic specs
// and recorded traces both implement it, and the campaign engine consumes
// either without knowing which.
type Generator interface {
	Name() string
	// Timeline expands the generator into an arrival-ordered request
	// list. All randomness is drawn sequentially from rng, so equal
	// seeds give bit-identical timelines; trace generators ignore rng.
	Timeline(rng *rand.Rand) ([]Request, error)
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
// holds the whole request list in memory (about 265 B a request).
const MaxRequests = 1_000_000

// Spec is a ServeGen-style multi-client workload description.
type Spec struct {
	Clients   int
	Process   string  // poisson | gamma | weibull
	CV        float64 // gamma coefficient of variation (CV>1 → bursty)
	Shape     float64 // weibull shape (k<1 → heavy-tailed gaps)
	Windows   []RateWindow
	Classes   []SLOClass
	Dataset   string  // request-length distribution (workload.ByName)
	Sessions  int     // sessions per client
	Prefix    float64 // shared-prefix fraction of each request, [0,0.9]
	Formation string  // fcfs | priority | sjf
	Route     string  // balance | affinity
	Horizon   time.Duration
}

// DefaultSpec returns the baseline serving scenario: two clients on a
// Poisson process at 8 req/s over 60s, interactive+batch SLO classes,
// short-tailed StackExchange request lengths.
func DefaultSpec() Spec {
	return Spec{
		Clients:   2,
		Process:   ProcessPoisson,
		CV:        1,
		Shape:     1,
		Windows:   []RateWindow{{From: 0, To: 60 * time.Second, Rate: 8}},
		Classes:   DefaultClasses(),
		Dataset:   "stackexchange",
		Sessions:  8,
		Prefix:    0.5,
		Formation: "priority",
		Route:     "balance",
		Horizon:   60 * time.Second,
	}
}

// DefaultClasses are the two stock SLO classes used when a spec or trace
// does not declare its own.
func DefaultClasses() []SLOClass {
	return []SLOClass{
		{Name: "interactive", Deadline: 2 * time.Second, Priority: 2},
		{Name: "batch", Deadline: 8 * time.Second, Priority: 1},
	}
}

// Parse reads the serve-spec grammar: ','-separated key=value entries
// under the kv package's rules (the README's "Spec grammar")
//
//	clients=3                          number of concurrent clients
//	arrival=gamma:cv=2.0               poisson | gamma[:cv=X] | weibull[:shape=X]
//	rate=50@0-60s;120@60-300s          per-window aggregate req/s ('@from-to')
//	slo=interactive:p99=200ms:prio=2;batch:p99=2s
//	dataset=stackexchange              request-length distribution
//	sessions=8                         sessions per client
//	prefix=0.5                         shared-prefix fraction
//	form=priority                      fcfs | priority | sjf
//	route=affinity                     balance | affinity
//	horizon=120s                       default window span for bare rates
//
// The arrival and class parameters are ':'-separated key=value entries
// under the same rules. Omitted keys take DefaultSpec values. The result
// is validated.
func Parse(s string) (Spec, error) {
	spec := DefaultSpec()
	spec.Windows = []RateWindow{{Rate: 8}} // a bare rate spans the horizon
	var horizonSet bool
	err := kv.Parse("serve", s, ",", map[string]kv.Field{
		"clients": kv.Int(&spec.Clients),
		"arrival": func(v string) error {
			name, params, _ := strings.Cut(v, ":")
			spec.Process = name
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
					"p99": kv.Duration(&cls.Deadline), "prio": kv.Int(&cls.Priority),
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
		"horizon": func(v string) error {
			horizonSet = true
			return kv.Duration(&spec.Horizon)(v)
		},
	})
	if err != nil {
		return Spec{}, err
	}
	// Bare "rate=50" windows span the horizon; a later horizon key must
	// still apply, so resolve zero-width windows here.
	for i := range spec.Windows {
		if spec.Windows[i].To == 0 && spec.Windows[i].From == 0 {
			spec.Windows[i].To = spec.Horizon
		}
	}
	if !horizonSet {
		// Extend the horizon to cover explicit windows.
		for _, w := range spec.Windows {
			if w.To > spec.Horizon {
				spec.Horizon = w.To
			}
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
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
			if win.From, err = parseDur(fromStr); err != nil {
				return nil, err
			}
			if win.To, err = parseDur(toStr); err != nil {
				return nil, err
			}
		}
		out = append(out, win)
	}
	return out, nil
}

// parseDur reads a duration, treating a bare number as seconds so window
// spans can be written "50@0-60s" or "120@60-300s".
func parseDur(s string) (time.Duration, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("duration %q needs a unit or a bare number of seconds", s)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("duration %q is not finite", s)
	}
	return time.Duration(f * float64(time.Second)), nil
}

// Validate checks the spec is well-formed, including that the dataset
// exists and its bin weights are sane (workload.Dataset.Validate).
func (s *Spec) Validate() error {
	if s.Clients < 1 || s.Clients > MaxRequests {
		return fmt.Errorf("serve: clients must be in [1, %d], got %d", MaxRequests, s.Clients)
	}
	switch s.Process {
	case ProcessPoisson, ProcessGamma, ProcessWeibull:
	default:
		return fmt.Errorf("serve: unknown arrival process %q (want poisson, gamma, or weibull)", s.Process)
	}
	if s.CV <= 0 || math.IsNaN(s.CV) || math.IsInf(s.CV, 0) {
		return fmt.Errorf("serve: gamma cv must be finite and > 0, got %v", s.CV)
	}
	if s.Shape <= 0 || math.IsNaN(s.Shape) || math.IsInf(s.Shape, 0) {
		return fmt.Errorf("serve: weibull shape must be finite and > 0, got %v", s.Shape)
	}
	if len(s.Windows) == 0 {
		return fmt.Errorf("serve: at least one rate window required")
	}
	var expected float64
	for i, w := range s.Windows {
		if w.Rate <= 0 || math.IsNaN(w.Rate) || math.IsInf(w.Rate, 0) {
			return fmt.Errorf("serve: window %d rate must be finite and > 0, got %v", i, w.Rate)
		}
		if w.From < 0 || w.To <= w.From {
			return fmt.Errorf("serve: window %d span [%v,%v) is empty or negative", i, w.From, w.To)
		}
		if i > 0 && w.From < s.Windows[i-1].To {
			return fmt.Errorf("serve: window %d starts at %v before window %d ends at %v", i, w.From, i-1, s.Windows[i-1].To)
		}
		expected += w.Rate * (w.To - w.From).Seconds()
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
		if c.Deadline <= 0 {
			return fmt.Errorf("serve: class %s deadline must be > 0, got %v", c.Name, c.Deadline)
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
	if s.Prefix < 0 || s.Prefix > 0.9 || math.IsNaN(s.Prefix) {
		return fmt.Errorf("serve: prefix fraction must be in [0, 0.9], got %v", s.Prefix)
	}
	if !contains(Formations, s.Formation) {
		return fmt.Errorf("serve: unknown formation %q (want one of %v)", s.Formation, Formations)
	}
	if !contains(Routes, s.Route) {
		return fmt.Errorf("serve: unknown route objective %q (want one of %v)", s.Route, Routes)
	}
	return nil
}

func contains(set []string, s string) bool {
	for _, v := range set {
		if v == s {
			return true
		}
	}
	return false
}

// Class returns the class named name, or false.
func (s *Spec) Class(name string) (SLOClass, bool) {
	for _, c := range s.Classes {
		if c.Name == name {
			return c, true
		}
	}
	return SLOClass{}, false
}

// Name labels the generator for reports ("serve(2xpoisson,2cls)").
func (s *Spec) Name() string {
	proc := s.Process
	switch s.Process {
	case ProcessGamma:
		proc = fmt.Sprintf("gamma cv=%g", s.CV)
	case ProcessWeibull:
		proc = fmt.Sprintf("weibull k=%g", s.Shape)
	}
	return fmt.Sprintf("serve(%dx%s,%dcls)", s.Clients, proc, len(s.Classes))
}

// Timeline expands the spec into an arrival-ordered request stream. Each
// client draws its own inter-arrival process at rate/Clients, resetting
// at window boundaries; request lengths come from the dataset
// distribution, and each request joins one of the client's sessions with
// a shared prefix of Prefix×Tokens tokens. All draws come sequentially
// from rng — same seed, same timeline, bit for bit.
func (s *Spec) Timeline(rng *rand.Rand) ([]Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d, err := workload.ByName(s.Dataset)
	if err != nil {
		return nil, err
	}
	var out []Request
	for client := 0; client < s.Clients; client++ {
		class := s.Classes[client%len(s.Classes)].Name
		for _, w := range s.Windows {
			rate := w.Rate / float64(s.Clients)
			t := w.From.Seconds()
			end := w.To.Seconds()
			for {
				t += s.gap(rng, rate)
				if t >= end {
					break
				}
				tokens := d.SampleLen(rng)
				if tokens < 16 {
					tokens = 16
				}
				out = append(out, Request{
					Client:  client,
					Class:   class,
					Arrive:  t,
					Tokens:  tokens,
					Session: client*s.Sessions + rng.Intn(s.Sessions),
					Prefix:  int(s.Prefix * float64(tokens)),
				})
			}
		}
	}
	sortRequests(out)
	return out, nil
}

// gap draws one inter-arrival gap in seconds for a per-client rate.
func (s *Spec) gap(rng *rand.Rand, rate float64) float64 {
	switch s.Process {
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

// sortRequests orders by arrival time (client, then draw order break
// ties) and assigns sequential IDs — the canonical timeline order.
func sortRequests(reqs []Request) {
	slices.SortStableFunc(reqs, func(a, b Request) int {
		return cmp.Or(cmp.Compare(a.Arrive, b.Arrive), cmp.Compare(a.Client, b.Client))
	})
	for i := range reqs {
		reqs[i].ID = i
	}
}
