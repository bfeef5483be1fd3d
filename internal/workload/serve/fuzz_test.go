package serve

import (
	"errors"
	"math/rand"
	"testing"
)

// FuzzParse mirrors FuzzParseSpace: any input must either fail cleanly or
// yield a spec that validates and expands into a well-formed timeline.
func FuzzParse(f *testing.F) {
	f.Add("clients=3,arrival=gamma:cv=2.0,rate=50@0-60s;120@60-300s,slo=interactive:p99=200ms")
	f.Add("rate=20,horizon=90s,form=sjf,route=affinity")
	f.Add("arrival=weibull:shape=0.5,prefix=0.9")
	f.Add("slo=a:p99=1s:prio=3;b:p99=10s")
	f.Add("")
	f.Add("clients=-1")
	f.Add("rate=1e309")
	f.Add("arrival=gamma:cv=10,rate=20@0-4s")
	f.Add("arrival=gamma:cv=0.1,rate=20@0-4s")
	f.Add("arrival=weibull:shape=0.25,rate=20@0-4s")
	f.Add("clients=10000,rate=100@0-1s,arrival=gamma:cv=10")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("Parse(%q) accepted a spec that fails Validate: %v", s, verr)
		}
		// Expand at most 50,000 requests: the expected count does not
		// bound what a bursty process restarted at every window start
		// generates, and a fuzzed "rate=1000@0-10000s" must not
		// allocate millions of requests.
		reqs, terr := spec.timeline(rand.New(rand.NewSource(1)), 50_000)
		if errors.Is(terr, ErrTooManyRequests) {
			return
		}
		if terr != nil {
			t.Fatalf("Parse(%q) accepted a spec whose Timeline fails: %v", s, terr)
		}
		for i, r := range reqs {
			if r.Tokens < 1 || r.Prefix < 0 || r.Prefix >= r.Tokens || r.T < 0 {
				t.Fatalf("Parse(%q) timeline event %d malformed: %+v", s, i, r)
			}
			if i > 0 && r.T < reqs[i-1].T {
				t.Fatalf("Parse(%q) timeline unsorted at %d", s, i)
			}
		}
	})
}
