package tune

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseSpaceDefault(t *testing.T) {
	sp, err := ParseSpace("")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Grammar != DefaultSpaceGrammar {
		t.Fatalf("default grammar = %q, want %q", sp.Grammar, DefaultSpaceGrammar)
	}
	if !reflect.DeepEqual(sp.Policies, []string{"threshold"}) {
		t.Fatalf("default policies = %v", sp.Policies)
	}
	if sp.Threshold.Lo != 1.05 || sp.Threshold.Hi != 1.6 {
		t.Fatalf("default threshold range = %+v", sp.Threshold)
	}
}

func TestParseSpaceForms(t *testing.T) {
	sp, err := ParseSpace("policy=threshold|periodic,threshold=1.1|1.3|1.5,every=2:20,replan-cost=0.005:0.08,capacity=1.25,autoscale=on|off,up-util=0.9:0.98,down-util=0.6|0.8,cooldown=2:10,step=1:2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Policies, []string{"threshold", "periodic"}) {
		t.Fatalf("policies = %v", sp.Policies)
	}
	if !reflect.DeepEqual(sp.Threshold.Set, []float64{1.1, 1.3, 1.5}) {
		t.Fatalf("threshold set = %v", sp.Threshold.Set)
	}
	if sp.Every.Lo != 2 || sp.Every.Hi != 20 {
		t.Fatalf("every = %+v", sp.Every)
	}
	if sp.Capacity.Lo != 1.25 || sp.Capacity.Hi != 1.25 {
		t.Fatalf("capacity = %+v", sp.Capacity)
	}
	if !reflect.DeepEqual(sp.Autoscale, []bool{true, false}) {
		t.Fatalf("autoscale = %v", sp.Autoscale)
	}
	if !reflect.DeepEqual(sp.DownUtil.Set, []float64{0.6, 0.8}) {
		t.Fatalf("down-util = %+v", sp.DownUtil)
	}
}

func TestParseSpaceRejects(t *testing.T) {
	cases := []string{
		"threshold",             // not key=value
		"threshold=",            // empty value
		"bogus=1",               // unknown key
		"policy=sometimes",      // unknown policy
		"threshold=1.6:1.05",    // inverted range
		"threshold=0.5",         // below floor
		"threshold=abc",         // not a number
		"every=1.5",             // non-integer int dimension
		"replan-cost=-0.01",     // negative cost
		"up-util=1.2",           // above ceiling
		"autoscale=maybe",       // unknown state
		"cooldown=0",            // below floor
		"threshold=1.1:1.2:1.3", // malformed range tail
		"replan-cost=1|x",       // bad set element
	}
	for _, s := range cases {
		if _, err := ParseSpace(s); err == nil {
			t.Errorf("ParseSpace(%q) accepted invalid grammar", s)
		}
	}
}

// TestParseSpaceRejectsNonFinite: NaN fails every bound comparison, so
// the range check must be written to reject it, not just ±Inf.
func TestParseSpaceRejectsNonFinite(t *testing.T) {
	for _, key := range []string{"threshold", "replan-cost", "capacity", "up-util", "down-util", "every", "cooldown", "step"} {
		for _, v := range []string{"NaN", "Inf", "-Inf"} {
			for _, form := range []string{"%s", "1:%s", "%s:1", "1|%s"} {
				s := key + "=" + strings.Replace(form, "%s", v, 1)
				if _, err := ParseSpace(s); err == nil {
					t.Errorf("ParseSpace(%q) accepted a non-finite value", s)
				}
			}
		}
	}
}

func TestParamsKeyCanonicalizes(t *testing.T) {
	// Fields the selected policy ignores must not split keys.
	a := Params{Policy: "always", Threshold: 1.4, Every: 7}
	b := Params{Policy: "always"}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	c := Params{Policy: "threshold", Threshold: 1.4, UpUtil: 0.9, Cooldown: 3}
	d := Params{Policy: "threshold", Threshold: 1.4}
	if c.Key() != d.Key() {
		t.Fatalf("autoscaler gains leaked into key with autoscale off: %q vs %q", c.Key(), d.Key())
	}
	e := Params{Policy: "threshold", Threshold: 1.4, Autoscale: true, UpUtil: 0.9}
	if e.Key() == d.Key() {
		t.Fatal("autoscale=on did not change the key")
	}
}

func TestParamsFlagsPasteable(t *testing.T) {
	p := Params{Policy: "threshold", Threshold: 1.45, ReplanCost: 0.03,
		Capacity: 1.5, Autoscale: true, UpUtil: 0.95, DownUtil: 0.9, Cooldown: 3, Step: 1}
	flags := p.Flags()
	for _, want := range []string{
		"-policy threshold", "-threshold 1.45", "-replan-cost 0.03",
		"-capacity 1.5", "-autoscale up-util=0.95,down-util=0.9,cooldown=3,step=1",
	} {
		if !strings.Contains(flags, want) {
			t.Errorf("flags %q missing %q", flags, want)
		}
	}
}

func TestGridSeedsDedupAndBudget(t *testing.T) {
	sp, err := ParseSpace("policy=always|threshold,threshold=1.1:1.5")
	if err != nil {
		t.Fatal(err)
	}
	seeds := gridSeeds(sp, 100)
	// policy=always collapses every threshold value into one key, so the
	// 2×3 grid dedups to 4 points: always, and threshold at {1.1,1.3,1.5}.
	if len(seeds) != 4 {
		t.Fatalf("got %d grid seeds, want 4: %+v", len(seeds), seeds)
	}
	seen := map[string]bool{}
	for _, p := range seeds {
		k := p.Key()
		if seen[k] {
			t.Fatalf("duplicate grid seed %q", k)
		}
		seen[k] = true
	}
	// A budget below the grid size truncates deterministically.
	small := gridSeeds(sp, 3)
	if len(small) > 3 {
		t.Fatalf("budget 3 produced %d seeds", len(small))
	}
}

func FuzzParseSpace(f *testing.F) {
	f.Add("")
	f.Add(DefaultSpaceGrammar)
	f.Add("policy=always|never|threshold|periodic,threshold=1.05:1.6,every=2|8,replan-cost=0.001:0.1")
	f.Add("autoscale=on,up-util=0.9:0.98,down-util=0.8,cooldown=2:6,step=1")
	f.Add("threshold=1.1|1.2|1.3,capacity=0.5:2")
	f.Add("policy=,=,=x,a=b=c")
	f.Add("threshold=1e300:1e300,replan-cost=0x1p-3")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpace(s)
		if err != nil {
			return
		}
		// Any accepted space must seed a grid without panicking, every
		// seed must carry a stable identity, and parsing must be
		// deterministic.
		for _, p := range gridSeeds(sp, 32) {
			if p.Key() != p.canonical().Key() {
				t.Fatalf("non-canonical grid seed %+v", p)
			}
		}
		sp2, err2 := ParseSpace(s)
		if err2 != nil || !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("ParseSpace not deterministic for %q", s)
		}
	})
}
