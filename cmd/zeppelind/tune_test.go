package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zeppelin/pkg/zeppelin"
)

// TestTuneEndpoint drives a small search through POST /v1/tune and
// checks the report shape plus the decision-trace side effect: the
// winner selection counts under the "tune" kind on /metrics.
func TestTuneEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader(
		`{"workload":{"arrival":"drift","drift_path":["arxiv","github"]},`+
			`"space":"policy=threshold,threshold=1.1:1.5","budget":3,"iters":15}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var rep zeppelin.TuneReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.Fitness.Total != 1 {
		t.Fatalf("baseline fitness = %v, want exactly 1", rep.Baseline.Fitness.Total)
	}
	if rep.Winner.Key == "" || rep.Winner.Flags == "" {
		t.Fatalf("winner missing identity or flags: %+v", rep.Winner)
	}
	if rep.Evaluated == 0 || rep.Evaluated > rep.Budget {
		t.Fatalf("evaluated %d against budget %d", rep.Evaluated, rep.Budget)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	raw, _ := io.ReadAll(metrics.Body)
	if !strings.Contains(string(raw), `zeppelind_decisions_total{kind="tune"} 1`) {
		t.Fatalf("metrics do not count the tune decision:\n%s", raw)
	}
}

// TestTuneRejectsBadRequests: grammar and parameter failures surface as
// the structured 400 envelope before any simulation runs.
func TestTuneRejectsBadRequests(t *testing.T) {
	ts := testServer(t)
	for _, body := range []string{
		`{"space":"bogus=1"}`,
		`{"budget":-1}`,
		`{"weights":{"goodput":-0.5}}`,
		`{"unknown_field":true}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb zeppelin.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
			t.Fatalf("body %s: status=%d error=%+v", body, resp.StatusCode, eb)
		}
	}
}

// TestTuneWrongMethodIs405: the route participates in the structured
// 405 envelope like every other /v1 route.
func TestTuneWrongMethodIs405(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/tune")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb zeppelin.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed || eb.Error.Code != "method_not_allowed" {
		t.Fatalf("status=%d error=%+v", resp.StatusCode, eb)
	}
}

// TestCampaignNegativeReplanCostIs400 is the HTTP face of the
// replan-cost regression: the old silent clamp-to-zero is now a
// structured validation error.
func TestCampaignNegativeReplanCostIs400(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"iters":10,"replan_cost_sec":-0.01}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb zeppelin.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
		t.Fatalf("status=%d error=%+v", resp.StatusCode, eb)
	}
	if !strings.Contains(eb.Error.Message, "replan cost") {
		t.Fatalf("message %q does not explain the replan-cost failure", eb.Error.Message)
	}
}

// TestCampaignAutoscaleOverHTTP: an autoscaled campaign streams through
// the daemon, its world stays within the cluster, and the scale verdicts
// reach the session's decision trace.
func TestCampaignAutoscaleOverHTTP(t *testing.T) {
	ts := testServer(t)
	id := createCampaign(t, ts, zeppelin.CampaignRequest{
		Workload:  zeppelin.WorkloadSpec{Arrival: "drift", DriftPath: []string{"arxiv", "github", "prolong64k"}},
		Iters:     25,
		Autoscale: &zeppelin.AutoscaleSpec{UpUtil: 0.95, DownUtil: 0.9, Cooldown: 2},
	})
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev zeppelin.CampaignEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if ev.World < 1 {
			t.Fatalf("iter %d: world %d below 1", ev.Iter, ev.World)
		}
	}

	var trace struct {
		Decisions []zeppelin.DecisionRecord `json:"decisions"`
	}
	getJSON(t, ts.URL+"/v1/campaigns/"+id+"/decisions", &trace)
	sawScale := false
	for _, d := range trace.Decisions {
		if d.Kind == "scale" {
			sawScale = true
			break
		}
	}
	if !sawScale {
		t.Fatal("autoscaled session traced no scale decisions")
	}
}

// TestNonFiniteAndOversizedInputsAre400: NaN/±Inf inside a fault spec or
// a tune space, a capacity factor above the ceiling, iters above
// campaign.MaxIters, nodes or tokens_per_gpu above the trainer's
// ceilings, a tune search past zeppelin.MaxTuneIters and negative tune
// seeds are rejected up front with the structured 400 — not
// a 201 session whose event stream dies on a NaN or never ends, a 200
// with an empty body, a dropped connection, or a 500 from an
// overflowed partitioner capacity.
func TestNonFiniteAndOversizedInputsAre400(t *testing.T) {
	ts := testServer(t)
	type badCase struct{ route, body, substr string }
	var cases []badCase
	for _, v := range []string{"NaN", "Inf", "-Inf"} {
		cases = append(cases,
			badCase{"/v1/campaigns", `{"iters":4,"faults":"failstop:restart=` + v + `"}`, "finite"},
			badCase{"/v1/campaigns", `{"iters":4,"faults":"straggler:x=` + v + `"}`, "finite"},
			badCase{"/v1/tune", `{"space":"policy=threshold,threshold=` + v + `"}`, "threshold"},
		)
	}
	for _, c := range []string{"1e300", "100.5"} {
		cases = append(cases,
			badCase{"/v1/plan", `{"cluster":{"capacity":` + c + `}}`, "capacity factor"},
			badCase{"/v1/campaigns", `{"iters":4,"cluster":{"capacity":` + c + `}}`, "capacity factor"},
		)
	}
	cases = append(cases,
		badCase{"/v1/campaigns", `{"iters":1125899906842624}`, "100000"},
		badCase{"/v1/tune", `{"budget":1,"iters":1125899906842624}`, "100000"},
		badCase{"/v1/plan", `{"cluster":{"nodes":1073741824}}`, "nodes must be <= 128"},
		badCase{"/v1/plan", `{"cluster":{"tokens_per_gpu":1099511627776}}`, "tokens per GPU must be <= 1048576"},
		badCase{"/v1/campaigns", `{"iters":1,"cluster":{"nodes":1073741824}}`, "nodes must be <= 128"},
		badCase{"/v1/tune", `{"budget":1000000000}`, "100000"},
		badCase{"/v1/tune", `{"seeds":-1}`, "seeds"},
	)
	for _, c := range cases {
		want400(t, ts, c.route, c.body, c.substr)
	}
}

// TestUnplannableClusterSpecsAre400: a cluster spec the planner cannot
// honour is the client's mistake. A capacity factor that cannot hold the
// batch answered 500 on /v1/plan (or 201 on /v1/campaigns, failing the
// session at iteration 0), and a negative tp or tokens_per_gpu was
// silently replaced by its default; each now answers a structured 400.
// So does the removed "incremental" campaign field.
func TestUnplannableClusterSpecsAre400(t *testing.T) {
	ts := testServer(t)
	for _, c := range []struct{ route, body, substr string }{
		{"/v1/plan", `{"cluster":{"capacity":0.5}}`, "capacity factor"},
		{"/v1/plan", `{"cluster":{"capacity":0.0001}}`, "capacity factor"},
		{"/v1/campaigns", `{"iters":3,"cluster":{"capacity":0.0001}}`, "capacity factor"},
		{"/v1/plan", `{"cluster":{"tp":-1}}`, "tp"},
		{"/v1/plan", `{"cluster":{"tokens_per_gpu":-5}}`, "tokens_per_gpu"},
		{"/v1/campaigns", `{"iters":3,"cluster":{"tp":-1}}`, "tp"},
		{"/v1/tune", `{"cluster":{"tokens_per_gpu":-5}}`, "tokens_per_gpu"},
		{"/v1/campaigns", `{"iters":3,"incremental":true}`, "unknown field"},
	} {
		want400(t, ts, c.route, c.body, c.substr)
	}
}

// want400 posts body to route and asserts a structured 400 whose message
// mentions substr.
func want400(t *testing.T, ts *httptest.Server, route, body, substr string) {
	t.Helper()
	resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb zeppelin.ErrorBody
	err = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
		t.Fatalf("%s %s: status=%d err=%v error=%+v", route, body, resp.StatusCode, err, eb)
	}
	if !strings.Contains(eb.Error.Message, substr) {
		t.Fatalf("%s %s: message %q does not mention %q", route, body, eb.Error.Message, substr)
	}
}
