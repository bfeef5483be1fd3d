package zeppelin

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zeppelin/internal/campaign"
	"zeppelin/internal/workload/serve"
)

// serveReq builds a small bursty two-class serving request that drains
// in a few dozen ticks on a one-node cell.
func serveReq(route string) CampaignRequest {
	spec, err := ParseServeSpec("clients=3,arrival=gamma:cv=2.0,rate=30@0-8s,slo=interactive:p99=2s:prio=2;batch:p99=8s:prio=1,prefix=0.6,route=" + route)
	if err != nil {
		panic(err)
	}
	return CampaignRequest{
		Model:   "3B",
		Cluster: ClusterSpec{Preset: "A", Nodes: 1, TP: 1, TokensPerGPU: 4096},
		Method:  "zeppelin",
		Iters:   500,
		Serve:   spec,
	}
}

// TestServeCampaignThroughSDK pins the serve request resolution: the
// public API drains the scenario and surfaces per-class metrics.
func TestServeCampaignThroughSDK(t *testing.T) {
	rep, err := RunCampaign(context.Background(), serveReq("affinity"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) == 0 {
		t.Fatal("no serving ticks ran")
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("%d class rows, want 2", len(rep.Classes))
	}
	if rep.Classes[0].Class != "interactive" || rep.Classes[1].Class != "batch" {
		t.Fatalf("classes out of priority order: %+v", rep.Classes)
	}
	if rep.Summary.Arrival != "serve(3xgamma cv=2,2cls)" {
		t.Fatalf("arrival label = %q", rep.Summary.Arrival)
	}
	if rep.Summary.Policy != "serve:priority+affinity" {
		t.Fatalf("policy label = %q", rep.Summary.Policy)
	}
	if rep.Summary.Requests == 0 || rep.Summary.StreamTime <= 0 {
		t.Fatalf("serving aggregates missing: %+v", rep.Summary)
	}
	if rep.Summary.Unserved != 0 {
		t.Fatalf("stream left %d requests unserved", rep.Summary.Unserved)
	}
	var saved int
	for _, ev := range rep.Events {
		saved += ev.SavedTokens
	}
	if saved == 0 {
		t.Fatal("affinity routing with a 0.6 prefix saved no tokens")
	}
}

// TestServeSDKMatchesInternalRun: a serve request drained through the
// public API is bit-identical (on the wire bytes) to internal
// campaign.Run on the resolved configuration.
func TestServeSDKMatchesInternalRun(t *testing.T) {
	req := serveReq("balance")
	rep, err := RunCampaign(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := req.config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, _ := json.Marshal(rep.Summary)
	expSum, _ := json.Marshal(want.Summary)
	if !bytes.Equal(gotSum, expSum) {
		t.Fatalf("summary differs:\n got %s\nwant %s", gotSum, expSum)
	}
	gotCls, _ := json.Marshal(rep.Classes)
	expCls, _ := json.Marshal(want.Classes)
	if !bytes.Equal(gotCls, expCls) {
		t.Fatalf("class metrics differ:\n got %s\nwant %s", gotCls, expCls)
	}
	for i := range rep.Events {
		got, _ := json.Marshal(rep.Events[i])
		exp, _ := json.Marshal(want.Records[i])
		if !bytes.Equal(got, exp) {
			t.Fatalf("event %d differs from internal record:\n got %s\nwant %s", i, got, exp)
		}
	}
}

// serveSpecTexts are the grammar strings the CLI == SDK == HTTP table
// covers: the README example, fig16's spec, CI's specs, and
// zbench serve-burst's spec text.
var serveSpecTexts = []string{
	"clients=3,arrival=gamma:cv=2.0,rate=50@0-60s;120@60-300s,slo=interactive:p99=200ms",
	"clients=6,arrival=gamma:cv=2.0,rate=20@0-20s;60@20-40s;15@40-80s," +
		"slo=interactive:p99=2.5s:prio=2;batch:p99=15s:prio=1,dataset=stackexchange,sessions=8,prefix=0.6,form=priority,route=affinity",
	"clients=2,arrival=gamma:cv=2.0,rate=20@0-4s",
	"clients=2,rate=20@0-4s",
	"clients=2,rate=20@0-4s,form=fcfs",
	"clients=2,rate=20@0-4s,form=sjf",
	"clients=2,rate=15@0-3s",
	"clients=16,arrival=gamma:cv=2.0,rate=40@0-20s;400@20-40s;40@40-80s," +
		"slo=interactive:p99=2.5s:prio=2;batch:p99=15s:prio=1,dataset=stackexchange,sessions=8,prefix=0.6,form=priority,route=affinity",
	"",
	"prefix=0",
}

// decodeServeSpec decodes a wire spec the way zeppelind decodes a
// request body: unknown fields are an error.
func decodeServeSpec(t *testing.T, body []byte) *ServeSpec {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec ServeSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return &spec
}

// TestServeSpecCLIMatchesWire: a grammar string's timeline is the same
// whether the spec stays in-process (serve.Parse) or rides the wire
// (ParseServeSpec, JSON, zeppelind's strict decode,
// GenerateServeTimeline), and hand-written wire bodies expand like
// their grammar equivalents.
func TestServeSpecCLIMatchesWire(t *testing.T) {
	want := func(t *testing.T, text string, seed int64) []ServeTraceEvent {
		t.Helper()
		spec, err := serve.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := spec.Timeline(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	for _, text := range serveSpecTexts {
		wire, err := ParseServeSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{DefaultSeed, 7} {
			got, err := GenerateServeTimeline(decodeServeSpec(t, body), seed)
			if err != nil {
				t.Fatalf("%q: %v", text, err)
			}
			if exp := want(t, text, seed); !reflect.DeepEqual(got, exp) {
				t.Errorf("%q seed %d: wire timeline has %d requests, grammar %d", text, seed, len(got), len(exp))
			}
		}
	}
	for _, c := range []struct {
		body, text string
		horizon    float64
	}{
		{`{"horizon_sec":120}`, "horizon=120s", 120},
		{`{"windows":[{"rate":20}],"horizon_sec":90}`, "rate=20,horizon=90s", 90},
	} {
		got, err := GenerateServeTimeline(decodeServeSpec(t, []byte(c.body)), DefaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		exp := want(t, c.text, DefaultSeed)
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s: %d requests, want %d as %q", c.body, len(got), len(exp), c.text)
		}
		if last := exp[len(exp)-1].T; last < 0.9*c.horizon {
			t.Errorf("%q: last arrival %vs does not reach across its horizon", c.text, last)
		}
	}
}

// TestCompareServeRoutesSharesNoDefaults: grid cells share the
// request's Windows and Classes, so resolving a cell's defaults, a bare
// window's span included, must leave the request's spec as it was.
func TestCompareServeRoutesSharesNoDefaults(t *testing.T) {
	req := serveReq("balance")
	spec := &ServeSpec{Clients: 3, Windows: []ServeWindow{{Rate: 30}}, HorizonSec: 4}
	req.Serve = spec
	if _, err := CompareServeRoutes(context.Background(), req, 2, 2); err != nil {
		t.Fatal(err)
	}
	if spec.Windows[0] != (ServeWindow{Rate: 30}) || spec.Classes != nil || spec.Prefix != 0 {
		t.Fatalf("comparison wrote its defaults into the request's spec: %+v", *spec)
	}
}

// TestServeSpecPrefixConvention: wire zero selects the default prefix,
// negative selects none — the faults.Schedule.RestartCost convention —
// and the grammar's prefix=0 (none) reaches the wire as a negative.
func TestServeSpecPrefixConvention(t *testing.T) {
	if p := (ServeSpec{}).WithDefaults().Prefix; p != 0.5 {
		t.Fatalf("zero prefix resolved to %v, want the 0.5 default", p)
	}
	none, err := GenerateServeTimeline(&ServeSpec{Prefix: -1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range none {
		if ev.Prefix != 0 {
			t.Fatalf("negative prefix shared %d tokens, want none", ev.Prefix)
		}
	}
	parsed, err := ParseServeSpec("prefix=0")
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Prefix >= 0 {
		t.Fatalf("parsed prefix=0 encodes as %v, want negative sentinel", parsed.Prefix)
	}
	if _, err := ParseServeSpec("prefix=-0.1"); err == nil {
		t.Fatal("the grammar accepted a negative prefix")
	}
}

// TestServeTraceRoundTripThroughWire: generating a timeline, writing it
// as NDJSON, reading it back, and replaying it through the Trace field
// reproduces the generative campaign bit for bit.
func TestServeTraceRoundTripThroughWire(t *testing.T) {
	req := serveReq("affinity")
	specRep, err := RunCampaign(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	events, err := GenerateServeTimeline(req.Serve, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteServeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadServeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatal("trace NDJSON round trip lost events")
	}

	trReq := serveReq("affinity")
	trReq.Serve.Trace = back
	trReq.Serve.TraceName = "recorded"
	traceRep, err := RunCampaign(context.Background(), trReq)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(specRep.Events)
	b, _ := json.Marshal(traceRep.Events)
	if !bytes.Equal(a, b) {
		t.Fatal("trace replay diverged from the generative run")
	}
	ac, _ := json.Marshal(specRep.Classes)
	bc, _ := json.Marshal(traceRep.Classes)
	if !bytes.Equal(ac, bc) {
		t.Fatal("trace replay class metrics diverged")
	}
}

// TestServeTraceGolden pins the trace-replay v2 file format: CI's spec
// at DefaultSeed writes the checked-in NDJSON byte for byte, and reading
// the file back and writing it again gives the same bytes.
func TestServeTraceGolden(t *testing.T) {
	spec, err := ParseServeSpec("clients=2,rate=20@0-4s")
	if err != nil {
		t.Fatal(err)
	}
	events, err := GenerateServeTimeline(spec, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteServeTrace(&got, events); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "serve_trace.golden.ndjson")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteServeTrace drifted from %s:\n got: %s\nwant: %s", path, got.Bytes(), want)
	}
	back, err := ReadServeTrace(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteServeTrace(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatalf("%s does not round-trip through ReadServeTrace:\n got: %s", path, again.Bytes())
	}
}

// TestCompareServeRoutesDeterministicAcrossWorkers: the route
// comparison is bit-identical at every worker count, and affinity's
// per-class rows are present.
func TestCompareServeRoutesDeterministicAcrossWorkers(t *testing.T) {
	req := serveReq("balance")
	var base []byte
	for _, workers := range []int{1, 4} {
		cmp, err := CompareServeRoutes(context.Background(), req, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(cmp.Routes) != 2 {
			t.Fatalf("%d route rows, want 2", len(cmp.Routes))
		}
		for _, r := range cmp.Routes {
			if len(r.Classes) != 2 {
				t.Fatalf("route %s has %d class rows, want 2", r.Route, len(r.Classes))
			}
		}
		raw, err := json.Marshal(cmp)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = raw
			continue
		}
		if !bytes.Equal(base, raw) {
			t.Fatalf("workers=%d produced a different comparison", workers)
		}
	}
}

// TestServeRequestValidation: conflicting or malformed serve requests
// are rejected and classified as validation errors, so zeppelind
// answers 400 rather than 500.
func TestServeRequestValidation(t *testing.T) {
	withWorkload := serveReq("balance")
	withWorkload.Workload = WorkloadSpec{Arrival: "poisson"}
	withPolicy := serveReq("balance")
	withPolicy.Policy = PolicySpec{Name: "always"}
	withFaults := serveReq("balance")
	withFaults.Faults = "straggler"
	withAutoscale := serveReq("balance")
	withAutoscale.Autoscale = &AutoscaleSpec{MaxNodes: 1}
	withReplanCost := serveReq("balance")
	withReplanCost.ReplanCostSec = 5
	badSpec := serveReq("balance")
	badSpec.Serve = &ServeSpec{Clients: -1}
	badTrace := serveReq("balance")
	badTrace.Serve = &ServeSpec{Trace: []ServeTraceEvent{{T: 0, Class: "nope", Tokens: 64}}}
	badHorizon := serveReq("balance")
	badHorizon.Serve = &ServeSpec{HorizonSec: -5}

	for name, req := range map[string]CampaignRequest{
		"workload+serve":    withWorkload,
		"policy+serve":      withPolicy,
		"faults+serve":      withFaults,
		"autoscale+serve":   withAutoscale,
		"replan-cost+serve": withReplanCost,
		"bad spec":          badSpec,
		"unknown class":     badTrace,
		"negative horizon":  badHorizon,
	} {
		_, err := RunCampaign(context.Background(), req)
		if err == nil {
			t.Errorf("%s: campaign ran, want validation error", name)
			continue
		}
		if !IsValidationError(err) {
			t.Errorf("%s: error not validation-classified: %v", name, err)
		}
	}
	// "none" and "healthy" both name no fault schedule.
	for _, f := range []string{"none", "healthy"} {
		req := serveReq("balance")
		req.Faults = f
		if err := req.Validate(); err != nil {
			t.Errorf("faults %q on a serve request: %v", f, err)
		}
	}
	// A healthy serve request must NOT trip the classifier's inverse:
	// internal errors stay unclassified.
	if IsValidationError(context.Canceled) {
		t.Error("context.Canceled misclassified as validation error")
	}
}

// TestServeRequestCeiling: a serve spec asking for more than
// serve.MaxRequests clients or expected requests is a validation error
// on every entry point — the CLI grammar, request validation, and
// timeline generation — before any timeline is expanded.
func TestServeRequestCeiling(t *testing.T) {
	if _, err := ParseServeSpec("rate=1000@0-100000s"); err == nil {
		t.Error("ParseServeSpec accepted a 10^8-request spec")
	}
	for _, spec := range []*ServeSpec{
		{Clients: 2_000_000},
		{Windows: []ServeWindow{{ToSec: 100000, Rate: 1000}}},
	} {
		// Fatal, not Error: past a missed check, GenerateServeTimeline
		// would expand the spec.
		if err := (CampaignRequest{Iters: 1, Serve: spec}).Validate(); !IsValidationError(err) {
			t.Fatalf("%+v: Validate = %v, want a validation error", *spec, err)
		}
		if _, err := GenerateServeTimeline(spec, 1); err == nil {
			t.Errorf("%+v: GenerateServeTimeline expanded an over-ceiling spec", *spec)
		}
	}
}
