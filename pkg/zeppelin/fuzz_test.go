package zeppelin

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zeppelin/internal/workload/serve"
)

// FuzzServeSpecJSON is FuzzParse for the wire form: any request body
// decoded the way zeppelind decodes one must either fail validation
// cleanly or carry a spec whose defaults resolve idempotently, that
// validation left untouched, and that expands into a well-formed
// timeline.
func FuzzServeSpecJSON(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "campaign_request_serve.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"model":"3B","cluster":{"preset":"A","nodes":1,"tp":1,"tokens_per_gpu":4096},"iters":500,"seed":42,"serve":{"clients":2,"arrival":"gamma","cv":2.0,"windows":[{"to_sec":4,"rate":20}],"route":"affinity"}}`))
	f.Add([]byte(`{"iters":1,"serve":{"horizon_sec":120}}`))
	f.Add([]byte(`{"iters":1,"serve":{"windows":[{"rate":20}],"horizon_sec":90}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req CampaignRequest
		if dec.Decode(&req) != nil || req.Serve == nil {
			return
		}
		before, err := json.Marshal(req.Serve)
		if err != nil {
			t.Fatal(err)
		}
		verr := req.Validate()
		if after, _ := json.Marshal(req.Serve); !bytes.Equal(before, after) {
			t.Fatalf("Validate wrote into the request's spec:\n%s\n%s", before, after)
		}
		spec := req.Serve.WithDefaults()
		if twice := spec.WithDefaults(); !reflect.DeepEqual(twice, spec) {
			t.Fatalf("resolving defaults twice changed the spec:\n%+v\n%+v", spec, twice)
		}
		if verr != nil {
			return
		}
		// Keep the expansion small: every client draws at least one gap
		// per window, whatever the window's rate.
		expected := float64(len(spec.Trace) + spec.Clients*len(spec.Windows))
		for _, w := range spec.Windows {
			expected += w.Rate * (w.ToSec - w.FromSec)
		}
		if expected > 50000 {
			return
		}
		reqs, err := GenerateServeTimeline(req.Serve, req.Seed)
		if errors.Is(err, serve.ErrTooManyRequests) {
			return // a bursty process overshot its expected count
		}
		if err != nil {
			if len(spec.Trace) > 0 {
				return // trace events are checked when the stream starts
			}
			t.Fatalf("accepted spec's timeline fails: %v", err)
		}
		for i, r := range reqs {
			if _, ok := spec.Class(r.Class); !ok || r.Tokens < 1 || r.Prefix < 0 || r.Prefix >= r.Tokens || r.T < 0 {
				t.Fatalf("timeline event %d malformed: %+v", i, r)
			}
			if i > 0 && r.T < reqs[i-1].T {
				t.Fatalf("timeline unsorted at %d", i)
			}
		}
	})
}
