package zeppelin

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
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

// TestParseServeSpecMirrorsInternalGrammar: the wire parser and the
// internal parser resolve the issue's example grammar identically.
func TestParseServeSpecMirrorsInternalGrammar(t *testing.T) {
	const grammar = "clients=3,arrival=gamma:cv=2.0,rate=50@0-60s;120@60-300s,slo=interactive:p99=200ms"
	wire, err := ParseServeSpec(grammar)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := wire.resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.Parse(grammar)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Spec, want) {
		t.Fatalf("wire resolution diverged from internal parse:\n got %+v\nwant %+v", sc.Spec, want)
	}
}

// TestServeSpecPrefixConvention: wire zero selects the default prefix,
// negative selects none — the faults.Schedule.RestartCost convention.
func TestServeSpecPrefixConvention(t *testing.T) {
	def, err := (&ServeSpec{}).resolve()
	if err != nil {
		t.Fatal(err)
	}
	if def.Spec.Prefix != serve.DefaultSpec().Prefix {
		t.Fatalf("zero prefix resolved to %v, want default %v", def.Spec.Prefix, serve.DefaultSpec().Prefix)
	}
	none, err := (&ServeSpec{Prefix: -1}).resolve()
	if err != nil {
		t.Fatal(err)
	}
	if none.Spec.Prefix != 0 {
		t.Fatalf("negative prefix resolved to %v, want 0", none.Spec.Prefix)
	}
	// And the parser preserves an explicit prefix=0 through the wire form.
	parsed, err := ParseServeSpec("prefix=0")
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Prefix >= 0 {
		t.Fatalf("parsed prefix=0 encodes as %v, want negative sentinel", parsed.Prefix)
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

// TestGenerateServeTimelineMatchesInternal: the public generator is the
// internal spec timeline at the same seed.
func TestGenerateServeTimelineMatchesInternal(t *testing.T) {
	wire, err := ParseServeSpec("clients=2,rate=20@0-4s")
	if err != nil {
		t.Fatal(err)
	}
	events, err := GenerateServeTimeline(wire, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := serve.Parse("clients=2,rate=20@0-4s")
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Timeline(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(want) {
		t.Fatalf("%d events, want %d", len(events), len(want))
	}
	for i := range events {
		if events[i].T != want[i].Arrive || events[i].Tokens != want[i].Tokens {
			t.Fatalf("event %d = %+v, want %+v", i, events[i], want[i])
		}
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

	for name, req := range map[string]CampaignRequest{
		"workload+serve":    withWorkload,
		"policy+serve":      withPolicy,
		"faults+serve":      withFaults,
		"autoscale+serve":   withAutoscale,
		"replan-cost+serve": withReplanCost,
		"bad spec":          badSpec,
		"unknown class":     badTrace,
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
