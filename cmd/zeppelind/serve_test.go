package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"zeppelin/pkg/zeppelin"
)

// serveSessionReq builds a small bursty two-class serving request that
// drains in a few dozen ticks on a one-node cell.
func serveSessionReq(t *testing.T) zeppelin.CampaignRequest {
	t.Helper()
	spec, err := zeppelin.ParseServeSpec("clients=3,arrival=gamma:cv=2.0,rate=30@0-6s,slo=interactive:p99=2s:prio=2;batch:p99=8s:prio=1,prefix=0.6,route=affinity")
	if err != nil {
		t.Fatal(err)
	}
	return zeppelin.CampaignRequest{
		Model:   "3B",
		Cluster: zeppelin.ClusterSpec{Preset: "A", Nodes: 1, TP: 1, TokensPerGPU: 4096},
		Iters:   500,
		Seed:    42,
		Serve:   spec,
	}
}

// TestServeSessionThroughHTTP: a serve campaign streamed over HTTP is
// bit-identical to the in-process run, the drained session folds
// per-class serving counters and route decisions into /metrics, and the
// session report carries the class table.
func TestServeSessionThroughHTTP(t *testing.T) {
	req := serveSessionReq(t)
	want, err := zeppelin.RunCampaign(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	ts := testServer(t)
	id := createCampaign(t, ts, req)
	lines := drainSession(t, ts, id)
	if len(lines) != len(want.Events) {
		t.Fatalf("streamed %d events, in-process run has %d", len(lines), len(want.Events))
	}
	for i, line := range lines {
		exp, err := json.Marshal(want.Events[i])
		if err != nil {
			t.Fatal(err)
		}
		if line != string(exp) {
			t.Fatalf("event %d differs over HTTP:\n got %s\nwant %s", i, line, exp)
		}
	}

	ms := scrape(t, ts)
	reqByClass := ms.ByLabel("zeppelind_serve_requests_total", "class")
	violByClass := ms.ByLabel("zeppelind_serve_violations_total", "class")
	for _, cm := range want.Classes {
		if got := reqByClass[cm.Class]; got != float64(cm.Requests) {
			t.Fatalf("serve requests[%s] = %v, want %d", cm.Class, got, cm.Requests)
		}
		if got := violByClass[cm.Class]; got != float64(cm.Violations) {
			t.Fatalf("serve violations[%s] = %v, want %d", cm.Class, got, cm.Violations)
		}
	}
	if n := ms.ByLabel("zeppelind_decisions_total", "kind")["route"]; n == 0 {
		t.Fatal("drained serve session folded no route decisions")
	}
}

// TestServeSessionsDeterministicOverHTTP: two identical serve sessions
// stream byte-identical NDJSON — the service-level half of the
// trace-replay v2 determinism contract.
func TestServeSessionsDeterministicOverHTTP(t *testing.T) {
	ts := testServer(t)
	req := serveSessionReq(t)
	a := strings.Join(drainSession(t, ts, createCampaign(t, ts, req)), "\n")
	b := strings.Join(drainSession(t, ts, createCampaign(t, ts, req)), "\n")
	if a != b {
		t.Fatal("identical serve sessions streamed different events")
	}
}

// TestServeValidationAnswers400: bad serve inputs are the client's to
// fix — both create-time conflicts and start-time trace failures answer
// 400 with the structured envelope, never 500.
func TestServeValidationAnswers400(t *testing.T) {
	ts := testServer(t)

	// Create-time: serve conflicts with a workload spec.
	conflicted := serveSessionReq(t)
	conflicted.Workload = zeppelin.WorkloadSpec{Arrival: "poisson"}
	raw, _ := json.Marshal(conflicted)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var envelope zeppelin.ErrorBody
	json.NewDecoder(resp.Body).Decode(&envelope) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != "bad_request" {
		t.Fatalf("workload+serve create = %d %+v, want 400 bad_request", resp.StatusCode, envelope)
	}

	// Start-time: a trace referencing an unknown SLO class passes create
	// (the spec itself is valid) but must fail the stream as the
	// client's input — 400, not 500.
	broken := serveSessionReq(t)
	broken.Serve.Trace = []zeppelin.ServeTraceEvent{{T: 0, Class: "nope", Tokens: 64}}
	id := createCampaign(t, ts, broken)
	streamResp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(streamResp.Body)
	streamResp.Body.Close()
	if streamResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken trace stream = %d (%s), want 400", streamResp.StatusCode, body)
	}
	var streamEnvelope zeppelin.ErrorBody
	if err := json.Unmarshal(body, &streamEnvelope); err != nil || streamEnvelope.Error.Code != "bad_request" {
		t.Fatalf("broken trace envelope = %s", body)
	}
}

// TestServeCeilingAnswers400: a serve spec asking for more than
// serve.MaxRequests clients or expected requests answers 400 at create,
// instead of 201 and a timeline expanded into memory when the events
// stream starts.
func TestServeCeilingAnswers400(t *testing.T) {
	ts := testServer(t)
	for _, serve := range []string{`{"windows":[{"to_sec":100000,"rate":1000}]}`, `{"clients":2000000}`} {
		want400(t, ts, "/v1/campaigns", `{"iters":1,"serve":`+serve+`}`, "1000000")
	}
}
