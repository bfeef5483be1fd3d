package serve

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestParseFull(t *testing.T) {
	spec, err := Parse("clients=3,arrival=gamma:cv=2.0,rate=50@0-60s;120@60-300s,slo=interactive:p99=200ms:prio=2;batch:p99=2s,dataset=arxiv,sessions=4,prefix=0.6,form=sjf,route=affinity")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Clients != 3 || spec.Arrival != ProcessGamma || spec.CV != 2.0 {
		t.Errorf("clients/arrival wrong: %+v", spec)
	}
	want := []RateWindow{
		{FromSec: 0, ToSec: 60, Rate: 50},
		{FromSec: 60, ToSec: 300, Rate: 120},
	}
	if !reflect.DeepEqual(spec.Windows, want) {
		t.Errorf("windows = %+v, want %+v", spec.Windows, want)
	}
	wantCls := []SLOClass{
		{Name: "interactive", P99Sec: 0.2, Priority: 2},
		{Name: "batch", P99Sec: 2, Priority: -1},
	}
	if !reflect.DeepEqual(spec.Classes, wantCls) {
		t.Errorf("classes = %+v, want %+v", spec.Classes, wantCls)
	}
	if spec.Dataset != "arxiv" || spec.Sessions != 4 || spec.Prefix != 0.6 {
		t.Errorf("dataset/sessions/prefix wrong: %+v", spec)
	}
	if spec.Formation != "sjf" || spec.Route != "affinity" {
		t.Errorf("form/route wrong: %+v", spec)
	}
	// The horizon spans only bare windows, so explicit ones leave it at
	// its default.
	if spec.HorizonSec != 60 {
		t.Errorf("horizon = %vs, want the 60s default", spec.HorizonSec)
	}
}

func TestParseDefaults(t *testing.T) {
	spec, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, Spec{}.WithDefaults()) {
		t.Errorf("Parse(\"\") = %+v, want the zero spec's defaults", spec)
	}
}

func TestParseBareRateUsesHorizon(t *testing.T) {
	spec, err := Parse("rate=20,horizon=90s")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Windows) != 1 || spec.Windows[0].ToSec != 90 || spec.Windows[0].Rate != 20 {
		t.Errorf("windows = %+v, want one 0-90s window at 20", spec.Windows)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"clients=0",
		"clients=x",
		"arrival=normal",
		"arrival=gamma:cv=0",
		"arrival=gamma:cv=nan",
		"arrival=weibull:shape=-1",
		"rate=0",
		"rate=-5",
		"rate=10@60s-30s",
		"rate=10@0-60s;20@30s-90s", // overlapping windows
		"slo=:p99=1s",
		"slo=a:p99=0s",
		"slo=a:p99=1s;a:p99=2s", // duplicate class
		"slo=a:p99=1s:prio=x",
		"dataset=nope",
		"sessions=0",
		"prefix=1.5",
		"prefix=-0.1",
		"form=lifo",
		"route=random",
		"bogus=1",
		"noequals",
		"horizon=0s",
		"horizon=-5s",
		// Draws that would stop moving the stream clock.
		"arrival=gamma:cv=11",
		"arrival=gamma:cv=0.05",
		"arrival=weibull:shape=0.001",
		"rate=1000000000000@1000000-1000000.000001",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestParseSharedGrammar: the serve spec and its arrival and class
// parameters follow the shared key=value rules — an empty entry is an
// error, values are trimmed, integer fields take integral float
// literals, and an empty parameter list means no parameters.
func TestParseSharedGrammar(t *testing.T) {
	for _, bad := range []string{",", "clients=2,", "clients=2,,rate=3"} {
		if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "is not key=value") {
			t.Errorf("Parse(%q) = %v, want an entry error", bad, err)
		}
	}
	for _, c := range []struct {
		spec string
		ok   func(Spec) bool
	}{
		{"clients=2.0", func(s Spec) bool { return s.Clients == 2 }},
		{"clients=1e1", func(s Spec) bool { return s.Clients == 10 }},
		{"clients= 2", func(s Spec) bool { return s.Clients == 2 }},
		{"clients =2", func(s Spec) bool { return s.Clients == 2 }},
		{"slo=a:p99=1s:prio=2.0", func(s Spec) bool { return s.Classes[0].Priority == 2 }},
		// The value is trimmed, so the class name loses its leading space.
		{"slo= a:p99=1s", func(s Spec) bool { return s.Classes[0].Name == "a" }},
		{"arrival=gamma:", func(s Spec) bool { return s.Arrival == ProcessGamma && s.CV == 1 }},
		{"arrival=gamma: cv=2", func(s Spec) bool { return s.CV == 2 }},
	} {
		spec, err := Parse(c.spec)
		if err != nil || !c.ok(spec) {
			t.Errorf("Parse(%q) = %+v, %v", c.spec, spec, err)
		}
	}
}

// TestValidateBoundsTimeline: Timeline holds every request in memory,
// so a spec may ask for at most MaxRequests clients and expected
// requests (Σ rate × span).
func TestValidateBoundsTimeline(t *testing.T) {
	for _, bad := range []string{
		"clients=1000001", "rate=1000@0-100000s", "rate=20000@0-100s", "rate=500000@0-1s;500001@1-2s",
	} {
		if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "1000000") {
			t.Errorf("Parse(%q) = %v, want a MaxRequests rejection", bad, err)
		}
	}
	if _, err := Parse("clients=1000000,rate=10000@0-100s"); err != nil {
		t.Errorf("a spec at the ceiling was rejected: %v", err)
	}
}

// TestTimelineBoundsGenerated: a bursty process restarted at every
// window start generates far more than Validate's expected count (this
// spec expects 100 requests and generates 108,348 at seed 1000), so the
// expansion stops once it passes its limit and is otherwise unchanged.
func TestTimelineBoundsGenerated(t *testing.T) {
	spec, err := Parse("clients=10000,rate=100@0-1s,arrival=gamma:cv=10")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.timeline(rand.New(rand.NewSource(1000)), 10_000); !errors.Is(err, ErrTooManyRequests) {
		t.Fatalf("limit 10000: err = %v, want ErrTooManyRequests", err)
	}
	got, err := spec.timeline(rand.New(rand.NewSource(1000)), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Timeline(rand.New(rand.NewSource(1000)))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 108_348 || !reflect.DeepEqual(got, want) {
		t.Fatalf("limit 200000 gave %d requests, Timeline %d (want 108348, identical)", len(got), len(want))
	}
}

func TestTimelineDeterministic(t *testing.T) {
	spec, err := Parse("clients=3,arrival=gamma:cv=2.0,rate=40@0-10s,slo=interactive:p99=500ms:prio=2;batch:p99=4s:prio=1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Timeline(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Timeline(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different timelines")
	}
	if len(a) == 0 {
		t.Fatal("empty timeline")
	}
	for i, r := range a {
		if i > 0 && r.T < a[i-1].T {
			t.Fatalf("timeline not sorted at %d", i)
		}
		if r.T < 0 || r.T >= 10 {
			t.Fatalf("arrival %v outside window", r.T)
		}
		if r.Tokens < 16 {
			t.Fatalf("request %d has %d tokens", i, r.Tokens)
		}
		if r.Prefix < 0 || r.Prefix >= r.Tokens {
			t.Fatalf("request %d prefix %d out of range", i, r.Prefix)
		}
		if r.Class != "interactive" && r.Class != "batch" {
			t.Fatalf("request %d has class %q", i, r.Class)
		}
	}
}

func TestTimelineRateRoughlyHonored(t *testing.T) {
	for _, proc := range []string{"poisson", "gamma:cv=2.0", "weibull:shape=0.7"} {
		spec, err := Parse("clients=4,arrival=" + proc + ",rate=50@0-100s")
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := spec.Timeline(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		// 50 req/s × 100 s = 5000 expected; allow a wide tolerance since
		// bursty processes have high variance.
		if n := len(reqs); n < 3500 || n > 6500 {
			t.Errorf("%s: %d requests, want ~5000", proc, n)
		}
	}
}

func TestGammaSampleMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []float64{0.25, 1, 4} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += gammaSample(rng, k)
		}
		if mean := sum / n; math.Abs(mean-k) > 0.1*k {
			t.Errorf("gamma(k=%v) mean = %v, want ~%v", k, mean, k)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	spec := Spec{}.WithDefaults()
	reqs, err := spec.Timeline(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spec.Trace, spec.TraceName = got, "test"
	replayed, err := spec.Timeline(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, reqs) {
		t.Fatal("trace round trip changed the timeline")
	}
}

func TestTraceValidation(t *testing.T) {
	cases := []struct {
		name string
		ev   Request
	}{
		{"negative arrive", Request{T: -1, Tokens: 32, Class: "a"}},
		{"nan arrive", Request{T: math.NaN(), Tokens: 32, Class: "a"}},
		{"zero tokens", Request{T: 0, Tokens: 0, Class: "a"}},
		{"no class", Request{T: 0, Tokens: 32}},
		{"unknown class", Request{T: 0, Tokens: 32, Class: "b"}},
		{"prefix too big", Request{T: 0, Tokens: 32, Class: "a", Prefix: 32}},
		{"negative client", Request{T: 0, Tokens: 32, Class: "a", Client: -1}},
	}
	for _, c := range cases {
		spec := Spec{Classes: []SLOClass{{Name: "a", P99Sec: 1}}, Trace: []Request{c.ev}}.WithDefaults()
		if _, err := spec.Timeline(nil); err == nil {
			t.Errorf("%s: Timeline succeeded, want error", c.name)
		}
	}
}

func TestReadTraceBadJSON(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"t\":1}\nnot json\n")); err == nil {
		t.Fatal("bad NDJSON accepted")
	}
}

func TestSpecName(t *testing.T) {
	spec := Spec{}.WithDefaults()
	if got := spec.Name(); got != "serve(2xpoisson,2cls)" {
		t.Errorf("Name = %q", got)
	}
	spec.Arrival = ProcessGamma
	spec.CV = 2
	if got := spec.Name(); got != "serve(2xgamma cv=2,2cls)" {
		t.Errorf("Name = %q", got)
	}
}
