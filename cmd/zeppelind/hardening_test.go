package main

// Fleet-hardening tests: the write-error and shutdown-drain bugfixes,
// overload determinism under admission control, the /v1/stats counters,
// and a session-churn hammer meant to run under -race.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"zeppelin/pkg/zeppelin"
)

// brokenPipeWriter is a ResponseWriter whose data writes always fail —
// the server-side view of a client that vanished mid-stream without the
// request context noticing yet.
type brokenPipeWriter struct {
	header http.Header
	code   int
	writes int
}

func (w *brokenPipeWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *brokenPipeWriter) WriteHeader(code int) { w.code = code }

func (w *brokenPipeWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("write tcp: broken pipe")
}

// TestEventsStreamStopsOnWriteError: when encoding an event fails, the
// handler must record the failure and stop — not keep simulating the
// rest of the horizon into a dead connection. The regression shape: a
// 20000-iteration campaign whose very first event write fails used to
// run all 20000 iterations and finish "done"; now it must finish
// "cancelled" immediately with the write error recorded.
func TestEventsStreamStopsOnWriteError(t *testing.T) {
	srv := newServer(context.Background(), testConfig())

	create := httptest.NewRequest(http.MethodPost, "/v1/campaigns",
		strings.NewReader(`{"iters":20000}`))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, create)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status = %d: %s", rec.Code, rec.Body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}

	bw := &brokenPipeWriter{}
	stream := httptest.NewRequest(http.MethodGet, "/v1/campaigns/"+created.ID+"/events", nil)
	start := time.Now()
	srv.ServeHTTP(bw, stream)
	elapsed := time.Since(start)
	if bw.code != http.StatusOK {
		t.Fatalf("stream status = %d, want 200 before the first write", bw.code)
	}
	if bw.writes != 1 {
		t.Fatalf("handler wrote %d times to a broken pipe, want exactly 1", bw.writes)
	}

	status := httptest.NewRecorder()
	srv.ServeHTTP(status, httptest.NewRequest(http.MethodGet, "/v1/campaigns/"+created.ID, nil))
	var got struct {
		State  string `json:"state"`
		Events int    `json:"events"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(status.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.State != "cancelled" {
		t.Fatalf("state = %q after write failure, want cancelled (events=%d, err=%q, handler took %v)",
			got.State, got.Events, got.Error, elapsed)
	}
	if got.Events != 0 {
		t.Fatalf("counted %d delivered events over a broken pipe", got.Events)
	}
	if !strings.Contains(got.Error, "client disconnected") {
		t.Fatalf("session error = %q, want the recorded write failure", got.Error)
	}
}

// TestShutdownDrainsRunningStreams: cancelling the daemon's base
// context (what SIGTERM does in main) stops in-flight campaign streams
// between iterations and marks their sessions cancelled — graceful
// drain instead of severed connections.
func TestShutdownDrainsRunningStreams(t *testing.T) {
	baseCtx, shutdown := context.WithCancel(context.Background())
	defer shutdown()
	srv := newServer(baseCtx, testConfig())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	before := runtime.NumGoroutine()

	id := createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 10000})
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reader := bufio.NewReader(resp.Body)
	events := 0
	for ; events < 2; events++ {
		if _, err := reader.ReadString('\n'); err != nil {
			t.Fatalf("reading event %d: %v", events, err)
		}
	}

	shutdown() // the daemon received SIGTERM

	// The stream must end well short of the horizon: the handler stops
	// at the next iteration boundary and closes the response.
	for {
		_, err := reader.ReadString('\n')
		if err != nil {
			break
		}
		events++
		if events >= 10000 {
			t.Fatal("stream ran to completion despite shutdown")
		}
	}

	var status struct {
		State string `json:"state"`
	}
	getJSON(t, ts.URL+"/v1/campaigns/"+id, &status)
	if status.State != "cancelled" {
		t.Fatalf("session state after shutdown = %q, want cancelled", status.State)
	}

	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		ts.Client().CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after drain: before=%d now=%d", before, runtime.NumGoroutine())
}

// postPlan fires one plan request and returns the status, raw body, and
// Retry-After header.
func postPlan(t *testing.T, url, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header.Get("Retry-After")
}

// TestOverloadDeterminism saturates a rate-limited single-worker server
// with identical plan requests: over-limit requests must carry the full
// 429 envelope (error.code, Retry-After), and every admitted response
// must be byte-identical — to each other, and to the same request
// served by an unlimited, cache-less server. Overload and cache state
// may change *whether* a request is answered, never *what* the answer
// is.
func TestOverloadDeterminism(t *testing.T) {
	limited := httptest.NewServer(newServer(context.Background(), serverConfig{
		workers: 1, seeds: 1,
		rate: 5, burst: 2,
		planCacheEntries: 64,
	}))
	t.Cleanup(limited.Close)
	// The reference server: no admission control, no shared cache.
	plain := httptest.NewServer(newServer(context.Background(), serverConfig{workers: 1, seeds: 1}))
	t.Cleanup(plain.Close)

	const body = `{"model":"7B","dataset":"arxiv","seed":42}`
	_, want, _ := postPlan(t, plain.URL, body)

	var admitted, denied int
	for i := 0; i < 30; i++ {
		status, raw, retryAfter := postPlan(t, limited.URL, body)
		switch status {
		case http.StatusOK:
			admitted++
			if !bytes.Equal(raw, want) {
				t.Fatalf("admitted plan %d differs from the cache-less reference:\n got %s\nwant %s", i, raw, want)
			}
		case http.StatusTooManyRequests:
			denied++
			var envelope zeppelin.ErrorBody
			if err := json.Unmarshal(raw, &envelope); err != nil {
				t.Fatalf("429 body is not the error envelope: %v: %s", err, raw)
			}
			if envelope.Error.Code != "rate_limited" || envelope.Error.Message == "" {
				t.Fatalf("429 envelope = %+v", envelope)
			}
			secs, err := strconv.Atoi(retryAfter)
			if err != nil || secs < 1 {
				t.Fatalf("Retry-After = %q, want an integer >= 1", retryAfter)
			}
		default:
			t.Fatalf("request %d: status = %d: %s", i, status, raw)
		}
	}
	// Burst guarantees the first requests land; 30 rapid-fire requests
	// against rate 5/s must overrun it.
	if admitted < 2 {
		t.Fatalf("admitted %d of 30, want at least the burst of 2", admitted)
	}
	if denied == 0 {
		t.Fatal("30 rapid requests against rate 5/s never hit 429")
	}

	// The same request through the *stateless* SDK solves identically —
	// cached plan responses never leak cache state.
	var req zeppelin.PlanRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	resp, err := zeppelin.NewPlanner().Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sdk, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(want)) != strings.TrimSpace(string(sdk)) {
		t.Fatalf("HTTP plan differs from in-process SDK plan:\n got %s\nwant %s", want, sdk)
	}
}

// TestStatsRoute: /v1/stats exposes the admission counters, the shared
// plan cache hit rate, and the session table by state.
func TestStatsRoute(t *testing.T) {
	ts := testServer(t)
	const body = `{"model":"7B","dataset":"arxiv","seed":7}`
	// Two identical plans: a shared-cache miss then a hit.
	for i := 0; i < 2; i++ {
		if status, raw, _ := postPlan(t, ts.URL, body); status != http.StatusOK {
			t.Fatalf("plan %d: status = %d: %s", i, status, raw)
		}
	}
	createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 1})

	var stats struct {
		Admission []zeppelin.AdmissionStats `json:"admission"`
		PlanCache *zeppelin.PlanCacheStats  `json:"plan_cache"`
		Sessions  map[string]int            `json:"sessions"`
	}
	resp := getJSON(t, ts.URL+"/v1/stats", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	if len(stats.Admission) != len(zeppelin.AdmissionClasses()) {
		t.Fatalf("admission stats cover %d classes, want %d", len(stats.Admission), len(zeppelin.AdmissionClasses()))
	}
	byClass := make(map[zeppelin.AdmissionClass]zeppelin.AdmissionStats)
	for _, s := range stats.Admission {
		byClass[s.Class] = s
	}
	if s := byClass[zeppelin.AdmitPlan]; s.Allowed != 2 || s.Denied != 0 {
		t.Fatalf("plan admission = %+v, want 2 allowed", s)
	}
	if stats.PlanCache == nil {
		t.Fatal("plan_cache missing from stats with the cache enabled")
	}
	if stats.PlanCache.Hits < 1 || stats.PlanCache.Misses < 1 {
		t.Fatalf("plan cache = %+v, want at least one hit and one miss from two identical plans", stats.PlanCache)
	}
	if stats.Sessions["created"] != 1 {
		t.Fatalf("sessions = %v, want one created", stats.Sessions)
	}
}

// TestSessionChurnUnderRace hammers one server with concurrent session
// creates, full event streams, deletes, listings, and stats reads while
// the table cap forces evictions. Run under -race, it checks the
// invariants that matter at fleet scale: a session that starts
// streaming is never evicted mid-run (every stream drains its full
// horizon), handlers never tear each other's state, and the server's
// goroutines return to baseline when the storm passes.
func TestSessionChurnUnderRace(t *testing.T) {
	srv := newServer(context.Background(), serverConfig{
		workers: 4, seeds: 1,
		planCacheEntries: 64,
	})
	srv.maxSessions = 4 // small cap: evictions happen constantly
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	before := runtime.NumGoroutine()

	const (
		streamers = 4
		rounds    = 5
		iters     = 3
	)
	var wg sync.WaitGroup
	errc := make(chan error, streamers*rounds+2)

	// Streamers: create a session and immediately drain its events.
	// Under eviction pressure the not-yet-streamed reservation may be
	// legally evicted before the GET lands (404/conflict) — but once a
	// stream is admitted with a 200, the session is running and must
	// never be evicted: every started stream delivers its complete
	// horizon even with the table thrashing.
	for g := 0; g < streamers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var resp *http.Response
				var id string
				for attempt := 0; ; attempt++ {
					if attempt >= 50 {
						errc <- fmt.Errorf("streamer %d round %d: reservation evicted 50 times in a row", g, r)
						return
					}
					id = createCampaign(t, ts, zeppelin.CampaignRequest{Iters: iters, Seed: int64(g*rounds + r)})
					var err error
					resp, err = http.Get(ts.URL + "/v1/campaigns/" + id + "/events")
					if err != nil {
						errc <- err
						return
					}
					if resp.StatusCode == http.StatusOK {
						break
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					// The reservation lost a race it is allowed to lose:
					// evicted (404) or claimed deleted (409) before streaming.
					if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusConflict {
						continue
					}
					errc <- fmt.Errorf("stream %s: status %d: %s", id, resp.StatusCode, raw)
					return
				}
				lines := 0
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
				for sc.Scan() {
					if strings.TrimSpace(sc.Text()) != "" {
						lines++
					}
				}
				scanErr := sc.Err()
				resp.Body.Close()
				if scanErr != nil {
					errc <- fmt.Errorf("stream %s severed: %w", id, scanErr)
					return
				}
				if lines != iters {
					errc <- fmt.Errorf("stream %s delivered %d of %d events (running session evicted?)", id, lines, iters)
					return
				}
			}
		}(g)
	}

	// Churner: floods the table with abandoned reservations, forcing the
	// eviction path to run against live streams, then deletes what it can.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			id := createCampaign(t, ts, zeppelin.CampaignRequest{Iters: 1})
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errc <- err
				return
			}
			resp.Body.Close()
			// 204 (deleted), 404 (already evicted), and 409 (stream claimed
			// it first) are all legal outcomes of the race.
			switch resp.StatusCode {
			case http.StatusNoContent, http.StatusNotFound, http.StatusConflict:
			default:
				errc <- fmt.Errorf("delete %s: status %d", id, resp.StatusCode)
				return
			}
		}
	}()

	// Reader: listings and stats must stay coherent mid-churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if r := getJSON(t, ts.URL+"/v1/campaigns", nil); r.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("listing status %d", r.StatusCode)
				return
			}
			if r := getJSON(t, ts.URL+"/v1/stats", nil); r.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("stats status %d", r.StatusCode)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		ts.Client().CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after churn: before=%d now=%d", before, runtime.NumGoroutine())
}

// TestLoadgenAgainstRealDaemon is the end-to-end loop the CI smoke job
// runs in-process: zeppelin-loadgen's engine drives a real zeppelind
// (rate-limited, shared cache on) and the report must show goodput,
// byte-identical plans, complete campaign streams, and sane latency
// percentiles.
func TestLoadgenAgainstRealDaemon(t *testing.T) {
	srv := newServer(context.Background(), serverConfig{
		workers: 2, seeds: 1,
		rate: 200, burst: 50,
		planCacheEntries: 64,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	rep, err := zeppelin.RunLoad(context.Background(), zeppelin.LoadConfig{
		Addrs:         []string{ts.URL},
		Duration:      500 * time.Millisecond,
		PlanRPS:       100,
		Campaigns:     2,
		CampaignIters: 3,
		Client:        ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanOK == 0 {
		t.Fatalf("no plans admitted: %+v", rep)
	}
	if rep.PlanErrors != 0 || rep.CampaignErrors != 0 {
		t.Fatalf("errors against a healthy daemon: %+v", rep)
	}
	if rep.UniquePlanBodies != 1 {
		t.Fatalf("%d distinct plan bodies for one request — cache state leaked into responses", rep.UniquePlanBodies)
	}
	if rep.CampaignStreams != 2 || rep.CampaignEvents != 6 {
		t.Fatalf("campaign streams incomplete: %+v", rep)
	}
	if rep.PlansPerSec <= 0 || rep.PlanLatency.P50Ms <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if art := rep.Benchfmt(); art.Get("BenchmarkLoadgenPlan") == nil {
		t.Fatal("benchfmt artifact missing the gateable plan series")
	}
}

// TestCheckFlags: every flag value main exits 2 with usage on, among
// them a non-finite admission rate, which would otherwise leave its
// class answering 429 to every request once its bucket turns NaN.
func TestCheckFlags(t *testing.T) {
	if err := checkFlags(testConfig()); err != nil {
		t.Fatalf("default test config rejected: %v", err)
	}
	cases := map[string]func(*serverConfig){
		"-workers 0":     func(c *serverConfig) { c.workers = 0 },
		"-seeds 0":       func(c *serverConfig) { c.seeds = 0 },
		"-plan-cache -1": func(c *serverConfig) { c.planCacheEntries = -1 },
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases[fmt.Sprintf("-rate %v", v)] = func(c *serverConfig) { c.rate = v }
		cases[fmt.Sprintf("-plan-rate %v", v)] = func(c *serverConfig) { c.planRate = v }
		cases[fmt.Sprintf("-campaign-rate %v", v)] = func(c *serverConfig) { c.campaignRate = v }
		cases[fmt.Sprintf("-experiment-rate %v", v)] = func(c *serverConfig) { c.experimentRate = v }
	}
	for name, set := range cases {
		cfg := testConfig()
		set(&cfg)
		err := checkFlags(cfg)
		if flagName, _, _ := strings.Cut(name, " "); err == nil || !strings.Contains(err.Error(), flagName) {
			t.Errorf("%s: err = %v, want a rejection naming %s", name, err, flagName)
		}
	}
}
