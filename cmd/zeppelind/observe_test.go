package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zeppelin/internal/promtext"
	"zeppelin/pkg/zeppelin"
)

// obsCampaignReq is the fig13-style drifting cell the observability
// tests stream: drift keeps the threshold policy firing, so the decision
// trace carries non-forced replan verdicts to inspect and flip.
func obsCampaignReq(iters int) zeppelin.CampaignRequest {
	return zeppelin.CampaignRequest{
		Workload: zeppelin.WorkloadSpec{Arrival: "drift", DriftPath: []string{"arxiv", "github"}},
		Iters:    iters,
		Seed:     42,
	}
}

// drainSession streams a session's events to completion and returns the
// NDJSON lines.
func drainSession(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// scrape GETs and parses /metrics.
func scrape(t *testing.T, ts *httptest.Server) promtext.Metrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	ms, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("metrics do not parse: %v", err)
	}
	return ms
}

// TestMetricsEndpoint: /metrics parses as text exposition, exports the
// full family inventory, and the decision counters track drained
// campaigns.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)

	before := scrape(t, ts)
	for _, fam := range []string{
		"zeppelind_admission_allowed_total",
		"zeppelind_admission_denied_total",
		"zeppelind_admission_bucket_tokens",
		"zeppelind_admission_bucket_saturation",
		"zeppelind_plan_cache_hits_total",
		"zeppelind_plan_cache_evictions_total",
		"zeppelind_plan_cache_capacity",
		"zeppelind_sessions",
		"zeppelind_http_request_duration_seconds_count",
		"zeppelind_plan_solve_seconds_count",
		"zeppelind_decisions_total",
	} {
		if !before.Has(fam) {
			t.Fatalf("metrics missing family %s", fam)
		}
	}
	if n := before.Sum("zeppelind_decisions_total"); n != 0 {
		t.Fatalf("fresh daemon has %v decisions", n)
	}
	// Every decision kind is emitted, at zero before anything drains.
	kinds := before.ByLabel("zeppelind_decisions_total", "kind")
	for _, k := range zeppelin.DecisionKinds() {
		if v, ok := kinds[string(k)]; !ok || v != 0 {
			t.Fatalf("decisions[%s] = %v, %v (want present and 0)", k, v, ok)
		}
	}
	// Every class appears on the saturation gauge, idle without limits.
	sat := before.ByLabel("zeppelind_admission_bucket_saturation", "class")
	for _, class := range zeppelin.AdmissionClasses() {
		if v, ok := sat[string(class)]; !ok || v != 0 {
			t.Fatalf("saturation[%s] = %v, %v (want present and 0)", class, v, ok)
		}
	}

	// A plan request lands in the solve histogram; a drained campaign
	// lands in the decision counters.
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"model":"7B","dataset":"arxiv","seed":42}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	const iters = 20
	id := createCampaign(t, ts, obsCampaignReq(iters))
	events := drainSession(t, ts, id)
	if len(events) != iters {
		t.Fatalf("drained %d events, want %d", len(events), iters)
	}

	after := scrape(t, ts)
	if n := after.Sum("zeppelind_plan_solve_seconds_count"); n != 1 {
		t.Fatalf("plan solve count = %v, want 1", n)
	}
	byKind := after.ByLabel("zeppelind_decisions_total", "kind")
	if byKind["replan"] != iters {
		t.Fatalf("replan decisions = %v, want %v (one verdict per iteration)", byKind["replan"], iters)
	}
	if byKind["placement"] != iters {
		t.Fatalf("placement decisions = %v, want %v", byKind["placement"], iters)
	}
	if n := after.Sum("zeppelind_http_request_duration_seconds_count"); n <= before.Sum("zeppelind_http_request_duration_seconds_count") {
		t.Fatalf("request latency histogram did not grow: %v", n)
	}
	if n := after.ByLabel("zeppelind_sessions", "state")["done"]; n != 1 {
		t.Fatalf("done sessions gauge = %v, want 1", n)
	}
}

// TestCampaignDecisionsRoute: the decision trace is served with every
// record stamped with the session id, one replan and one placement
// verdict per iteration, and the scored alternatives attached.
func TestCampaignDecisionsRoute(t *testing.T) {
	ts := testServer(t)
	const iters = 10
	id := createCampaign(t, ts, obsCampaignReq(iters))
	drainSession(t, ts, id)

	var body struct {
		Campaign  string                    `json:"campaign"`
		Decisions []zeppelin.DecisionRecord `json:"decisions"`
	}
	resp := getJSON(t, ts.URL+"/v1/campaigns/"+id+"/decisions", &body)
	if resp.StatusCode != http.StatusOK || body.Campaign != id {
		t.Fatalf("decisions route: status=%d campaign=%q", resp.StatusCode, body.Campaign)
	}
	replans, placements := 0, 0
	for _, d := range body.Decisions {
		if d.Session != id {
			t.Fatalf("record not stamped with session: %+v", d)
		}
		switch d.Kind {
		case "replan":
			replans++
			if len(d.Alternatives) != 2 {
				t.Fatalf("replan record without scored alternatives: %+v", d)
			}
		case "placement":
			placements++
		case "admission":
		default:
			t.Fatalf("unknown decision kind %q", d.Kind)
		}
	}
	if replans != iters || placements != iters {
		t.Fatalf("replans=%d placements=%d, want %d each", replans, placements, iters)
	}
	if body.Decisions[0].Kind != "replan" || !body.Decisions[0].Forced {
		t.Fatalf("first verdict not the forced iter-0 replan: %+v", body.Decisions[0])
	}
}

// TestReplayRouteMatchesInProcess: the HTTP replay endpoint returns the
// same report the public API computes in-process — identity without a
// flip, a nonzero delta with one.
func TestReplayRouteMatchesInProcess(t *testing.T) {
	req := obsCampaignReq(25)
	ts := testServer(t)
	id := createCampaign(t, ts, req)
	drainSession(t, ts, id)

	// Empty body: pure determinism check.
	resp, err := http.Post(ts.URL+"/v1/campaigns/"+id+"/replay", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ident zeppelin.ReplayReport
	err = json.NewDecoder(resp.Body).Decode(&ident)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("identity replay: status=%d err=%v", resp.StatusCode, err)
	}
	if !ident.Identical || ident.Flipped {
		t.Fatalf("identity replay = %+v", ident)
	}

	// Find a non-forced executed replan and flip it.
	var decisions struct {
		Decisions []zeppelin.DecisionRecord `json:"decisions"`
	}
	getJSON(t, ts.URL+"/v1/campaigns/"+id+"/decisions", &decisions)
	flipIter := -1
	for _, d := range decisions.Decisions {
		if d.Kind == "replan" && d.Chosen == "replan" && !d.Forced {
			flipIter = d.Iter
			break
		}
	}
	if flipIter < 0 {
		t.Fatal("no non-forced replan in the drift stream")
	}
	flip := zeppelin.FlipSpec{Iter: flipIter, Decision: "reuse"}
	raw, _ := json.Marshal(map[string]any{"flip": flip})
	resp, err = http.Post(ts.URL+"/v1/campaigns/"+id+"/replay", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var got zeppelin.ReplayReport
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("flip replay: status=%d err=%v", resp.StatusCode, err)
	}
	if !got.Flipped || got.Delta == nil {
		t.Fatalf("flip replay = %+v", got)
	}

	want, err := zeppelin.RunReplay(context.Background(),
		zeppelin.ReplayRequest{Campaign: req, Flip: &flip})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("HTTP replay diverges from in-process replay:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// Malformed flips are 400s.
	resp, err = http.Post(ts.URL+"/v1/campaigns/"+id+"/replay", "application/json",
		strings.NewReader(`{"flip":{"iter":3,"decision":"maybe"}}`))
	if err != nil {
		t.Fatal(err)
	}
	var envelope zeppelin.ErrorBody
	err = json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != "bad_request" {
		t.Fatalf("bad flip: status=%d body=%+v err=%v", resp.StatusCode, envelope, err)
	}
}

// TestDecisionLogWritten: with -decision-log set, drained sessions
// append one session-stamped NDJSON line per decision, and the number of
// chosen replans in the log equals the number of replanned events on the
// wire — the CI smoke's cross-check.
func TestDecisionLogWritten(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := testConfig()
	cfg.decisionLog = &logBuf
	ts := httptest.NewServer(newServer(context.Background(), cfg))
	t.Cleanup(ts.Close)

	id := createCampaign(t, ts, obsCampaignReq(15))
	events := drainSession(t, ts, id)

	replanned := 0
	for _, ev := range events {
		if strings.Contains(ev, `"replanned":true`) {
			replanned++
		}
	}
	if replanned == 0 {
		t.Fatal("drift stream produced no replans to cross-check")
	}

	var decisions struct {
		Decisions []zeppelin.DecisionRecord `json:"decisions"`
	}
	getJSON(t, ts.URL+"/v1/campaigns/"+id+"/decisions", &decisions)

	lines := strings.Split(strings.TrimRight(logBuf.String(), "\n"), "\n")
	if len(lines) != len(decisions.Decisions) {
		t.Fatalf("log has %d lines, trace has %d records", len(lines), len(decisions.Decisions))
	}
	logged := 0
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"session":"`+id+`","iter":`) {
			t.Fatalf("log line missing session stamp: %s", line)
		}
		if strings.Contains(line, `"kind":"replan","chosen":"replan"`) {
			logged++
		}
	}
	if logged != replanned {
		t.Fatalf("log records %d chosen replans, stream replanned %d times", logged, replanned)
	}
}
