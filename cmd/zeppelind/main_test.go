package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"zeppelin/pkg/zeppelin"
)

// testConfig is the default server shape for tests: 2 workers, 1 seed,
// no admission limits, shared plan cache on.
func testConfig() serverConfig {
	return serverConfig{workers: 2, seeds: 1, planCacheEntries: zeppelin.DefaultPlanCacheEntries}
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(context.Background(), testConfig()))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	var body map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, body)
	}
}

func TestVersionRoute(t *testing.T) {
	ts := testServer(t)
	var v zeppelin.VersionInfo
	resp := getJSON(t, ts.URL+"/v1/version", &v)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if v.APIVersion != "v1" || v.Module != "zeppelin" || !strings.HasPrefix(v.GoVersion, "go") {
		t.Fatalf("version payload = %+v", v)
	}
}

// TestUnknownV1RouteIsStructuredJSON: unknown /v1 paths return the error
// envelope, not the default text 404 page.
func TestUnknownV1RouteIsStructuredJSON(t *testing.T) {
	ts := testServer(t)
	var body zeppelin.ErrorBody
	resp := getJSON(t, ts.URL+"/v1/definitely/not/a/route", &body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	if body.Error.Code != "not_found" || body.Error.Message == "" {
		t.Fatalf("error body = %+v", body)
	}
}

// TestWrongMethodIsStructuredJSON: a GET on the POST-only plan route
// returns the 405 envelope.
func TestWrongMethodIsStructuredJSON(t *testing.T) {
	ts := testServer(t)
	var body zeppelin.ErrorBody
	resp := getJSON(t, ts.URL+"/v1/plan", &body)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if body.Error.Code != "method_not_allowed" {
		t.Fatalf("error body = %+v", body)
	}
}

func TestPlanEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"model":"7B","dataset":"arxiv","seed":42}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var plan zeppelin.PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatal(err)
	}
	if plan.World != 16 || plan.TokensPerSec <= 0 {
		t.Fatalf("plan = %+v", plan)
	}
	sum := 0
	for _, tok := range plan.TokensPerRank {
		sum += tok
	}
	if sum != plan.Tokens {
		t.Fatalf("plan places %d of %d tokens", sum, plan.Tokens)
	}
}

func TestPlanRejectsBadBodies(t *testing.T) {
	ts := testServer(t)
	cases := []string{
		`{"model":"900B"}`,       // unknown model
		`{"unknown_field":true}`, // schema violation
		`{"method":`,             // malformed JSON
	}
	for _, payload := range cases {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		var body zeppelin.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || body.Error.Code != "bad_request" {
			t.Fatalf("payload %q: status=%d err=%v body=%+v", payload, resp.StatusCode, err, body)
		}
	}
}

func TestExperimentRouteRejectsUnknown(t *testing.T) {
	ts := testServer(t)
	var body zeppelin.ErrorBody
	resp := getJSON(t, ts.URL+"/v1/experiments/fig99", &body)
	if resp.StatusCode != http.StatusNotFound || body.Error.Code != "not_found" {
		t.Fatalf("status=%d body=%+v", resp.StatusCode, body)
	}
}

func TestExperimentRouteServesTable2(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/experiments/table2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte("arxiv")) {
		t.Fatalf("table2 artifact missing datasets: %s", raw)
	}
}

// createCampaign POSTs a campaign request and returns the session id.
func createCampaign(t *testing.T, ts *httptest.Server, req zeppelin.CampaignRequest) string {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("create status = %d: %s", resp.StatusCode, body)
	}
	var status struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.ID == "" || status.State != "created" {
		t.Fatalf("session = %+v", status)
	}
	return status.ID
}

// TestCampaignStreamBitIdenticalToInProcess is the service's core
// contract: a 20-iteration campaign streamed over HTTP produces exactly
// the event sequence an in-process run of the same request produces —
// compared on the JSON wire bytes of every event.
func TestCampaignStreamBitIdenticalToInProcess(t *testing.T) {
	req := zeppelin.CampaignRequest{
		Workload: zeppelin.WorkloadSpec{Arrival: "drift", DriftPath: []string{"arxiv", "github"}},
		Iters:    20,
		Seed:     42,
	}
	want, err := zeppelin.RunCampaign(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	ts := testServer(t)
	id := createCampaign(t, ts, req)
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var got []string
	for scanner.Scan() {
		if line := strings.TrimSpace(scanner.Text()); line != "" {
			got = append(got, line)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Events) {
		t.Fatalf("streamed %d events, in-process run has %d", len(got), len(want.Events))
	}
	for i, line := range got {
		exp, err := json.Marshal(want.Events[i])
		if err != nil {
			t.Fatal(err)
		}
		if line != string(exp) {
			t.Fatalf("event %d differs over HTTP:\n got %s\nwant %s", i, line, exp)
		}
	}

	// The drained session reports done with every event accounted for.
	var status struct {
		State  string `json:"state"`
		Events int    `json:"events"`
	}
	getJSON(t, ts.URL+"/v1/campaigns/"+id, &status)
	if status.State != "done" || status.Events != req.Iters {
		t.Fatalf("final session = %+v", status)
	}

	// A session streams exactly once: the second fetch conflicts.
	var conflict zeppelin.ErrorBody
	r2 := getJSON(t, ts.URL+"/v1/campaigns/"+id+"/events", &conflict)
	if r2.StatusCode != http.StatusConflict || conflict.Error.Code != "conflict" {
		t.Fatalf("second events fetch: status=%d body=%+v", r2.StatusCode, conflict)
	}
}

// TestCampaignStreamHonorsClientDisconnect: dropping the HTTP request
// mid-stream cancels the session's campaign — the planner work stops,
// the session is marked cancelled, and the server's goroutines drain
// back to baseline.
func TestCampaignStreamHonorsClientDisconnect(t *testing.T) {
	ts := testServer(t)
	before := runtime.NumGoroutine()
	id := createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 10000, Incremental: true})

	ctx, cancel := context.WithCancel(context.Background())
	reqHTTP, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(reqHTTP)
	if err != nil {
		t.Fatal(err)
	}
	// Read a couple of events to prove the stream is live, then vanish.
	reader := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ {
		line, err := reader.ReadString('\n')
		if err != nil {
			t.Fatalf("reading event %d: %v", i, err)
		}
		var ev zeppelin.CampaignEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event %d not JSON: %v", i, err)
		}
	}
	cancel()
	resp.Body.Close()

	// The server must notice between iterations and mark the session
	// cancelled without finishing the 10000-iteration horizon.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var status struct {
			State  string `json:"state"`
			Events int    `json:"events"`
		}
		getJSON(t, ts.URL+"/v1/campaigns/"+id, &status)
		if status.State == "cancelled" {
			if status.Events >= 10000 {
				t.Fatalf("campaign ran to completion despite disconnect: %+v", status)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never cancelled; state = %+v", status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// No leaked simulation goroutines once the stream is torn down. The
	// HTTP client's keep-alive read/write loops are not leaks — drop
	// them while polling so the count converges to the pre-test
	// baseline.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		ts.Client().CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after disconnect: before=%d now=%d", before, runtime.NumGoroutine())
}

// TestCampaignRejectsBadRequest: resolution failures surface as 400s at
// session creation, before any simulation runs.
func TestCampaignRejectsBadRequest(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"iters":0}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body zeppelin.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || body.Error.Code != "bad_request" {
		t.Fatalf("status=%d body=%+v", resp.StatusCode, body)
	}
	if !strings.Contains(body.Error.Message, "iters") {
		t.Fatalf("message %q does not explain the failure", body.Error.Message)
	}
}

// TestSessionListing: created sessions appear in the listing in
// creation order — including past nine sessions, where lexicographic id
// order would interleave c10 between c1 and c2.
func TestSessionListing(t *testing.T) {
	ts := testServer(t)
	var ids []string
	for i := 0; i < 11; i++ {
		ids = append(ids, createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 1}))
	}
	var listing struct {
		Campaigns []struct {
			ID        string `json:"id"`
			EventsURL string `json:"events_url"`
		} `json:"campaigns"`
	}
	getJSON(t, ts.URL+"/v1/campaigns", &listing)
	if len(listing.Campaigns) != len(ids) {
		t.Fatalf("listing has %d sessions, want %d", len(listing.Campaigns), len(ids))
	}
	for i, want := range ids {
		if listing.Campaigns[i].ID != want {
			t.Fatalf("listing[%d] = %q, want %q (creation order)", i, listing.Campaigns[i].ID, want)
		}
	}
	if listing.Campaigns[0].EventsURL != fmt.Sprintf("/v1/campaigns/%s/events", ids[0]) {
		t.Fatalf("events url = %q", listing.Campaigns[0].EventsURL)
	}
}

// TestSessionDelete: DELETE reclaims a non-running session; running
// sessions refuse with a conflict.
func TestSessionDelete(t *testing.T) {
	ts := testServer(t)
	id := createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 1})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d, want 204", resp.StatusCode)
	}
	var body zeppelin.ErrorBody
	r2 := getJSON(t, ts.URL+"/v1/campaigns/"+id, &body)
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still present: %d", r2.StatusCode)
	}
}

// TestFinishedSessionsAreEvicted: once the table exceeds its cap, the
// oldest drained sessions are dropped at creation time while live ones
// survive.
func TestFinishedSessionsAreEvicted(t *testing.T) {
	srv := newServer(context.Background(), testConfig())
	srv.maxSessions = 2
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	first := createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 1})
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + first + "/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	live := createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 1})
	createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 1}) // exceeds the cap: first (done) must go
	if r := getJSON(t, ts.URL+"/v1/campaigns/"+first, nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("finished session %s not evicted: %d", first, r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/v1/campaigns/"+live, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("live session %s evicted: %d", live, r.StatusCode)
	}
}

// TestAbandonedCreatedSessionsAreEvicted: with no finished sessions to
// reclaim, abandoned never-streamed reservations are evicted oldest
// first, so repeated POST /v1/campaigns cannot grow the daemon without
// bound — and an evicted reservation can no longer start streaming.
func TestAbandonedCreatedSessionsAreEvicted(t *testing.T) {
	srv := newServer(context.Background(), testConfig())
	srv.maxSessions = 2
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	oldest := createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 1})
	createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 1})
	newest := createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 1}) // cap exceeded: oldest reservation goes
	if r := getJSON(t, ts.URL+"/v1/campaigns/"+oldest, nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("abandoned session %s not evicted: %d", oldest, r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/v1/campaigns/"+newest, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("just-created session %s evicted: %d", newest, r.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + oldest + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still streams: %d", resp.StatusCode)
	}
}
