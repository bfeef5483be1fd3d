package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"zeppelin/pkg/zeppelin"
)

// maxBodyBytes bounds request bodies: plan and campaign requests are a
// few hundred bytes of configuration, never bulk data.
const maxBodyBytes = 1 << 20

// defaultMaxSessions bounds the session table: once the table exceeds
// it, creation evicts the oldest finished sessions first
// (done/cancelled/failed — whose full per-iteration reports are the
// memory that accumulates), then the oldest never-streamed "created"
// reservations, so neither drained reports nor abandoned creates can
// grow the daemon without bound. Running sessions are never evicted;
// DELETE /v1/campaigns/{id} reclaims one explicitly.
const defaultMaxSessions = 256

// serverConfig parameterizes the service beyond the worker pool: the
// per-class admission rates and the shared plan cache size, all mapped
// one to one from zeppelind's flags.
type serverConfig struct {
	// workers bounds concurrent simulation slots (and each request's
	// internal pool); seeds is the per-cell averaging of experiments.
	workers, seeds int
	// rate is the default per-class admission rate in requests/sec; a
	// non-positive rate disables admission for classes not overridden.
	// burst is the shared bucket depth.
	rate  float64
	burst int
	// planRate/campaignRate/experimentRate override rate per class
	// (0 inherits, negative means unlimited).
	planRate, campaignRate, experimentRate float64
	// planCacheEntries bounds the shared plan cache; 0 disables it.
	planCacheEntries int
	// decisionLog receives the structured NDJSON decision log (one line
	// per decision, stamped with the session id) as sessions drain; nil
	// disables logging. Mapped from the -decision-log flag.
	decisionLog io.Writer
}

// server is the zeppelind planning service: it multiplexes concurrent
// plan, campaign, and experiment requests over a bounded pool of
// simulation slots and owns the campaign session table.
type server struct {
	opts zeppelin.Options
	// base is the daemon's lifetime context: cancelled on SIGTERM, it
	// cancels every in-flight campaign session between iterations so
	// graceful shutdown drains streams instead of severing them.
	base context.Context
	// sem bounds the number of requests simulating at once; each
	// request's own grid additionally honors opts.Workers.
	sem chan struct{}
	// admission is the per-class token-bucket front door of every /v1
	// route; over-rate requests get a structured 429 with Retry-After.
	admission *zeppelin.Admission
	// planCache is the process-wide shared plan tier (nil when
	// disabled): plan requests and campaign sessions dedupe identical
	// partition solves through it.
	planCache *zeppelin.PlanCache
	// planner answers /v1/plan; stateless, safe for concurrent use.
	planner *zeppelin.Planner
	// metrics backs GET /metrics: request-latency histograms, plan-solve
	// timings, and per-kind decision counts.
	metrics *serverMetrics
	// decisionLog (guarded by decisionLogMu) is the NDJSON decision log
	// sink; sessions append their traces as they drain.
	decisionLog   io.Writer
	decisionLogMu sync.Mutex
	mux           *http.ServeMux

	mu          sync.Mutex
	nextID      int
	maxSessions int
	sessions    map[string]*session
}

// session is one created campaign: the request, the campaign that owns
// the (possibly incremental) planner, and its lifecycle state.
type session struct {
	mu     sync.Mutex
	id     string
	seq    int // creation order; the listing and eviction sort on it
	camp   *zeppelin.Campaign
	req    zeppelin.CampaignRequest // as created; replay re-runs it
	state  string                   // created | running | done | cancelled | failed | deleted
	events int
	errMsg string
}

// finished reports whether the session's campaign can no longer run.
func (s *session) finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == "done" || s.state == "cancelled" || s.state == "failed"
}

// sessionStatus is the wire form of a session.
type sessionStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Iters     int    `json:"iters"`
	Events    int    `json:"events"`
	EventsURL string `json:"events_url"`
	Error     string `json:"error,omitempty"`
}

func (s *session) status() sessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sessionStatus{
		ID:        s.id,
		State:     s.state,
		Iters:     s.camp.Iters(),
		Events:    s.events,
		EventsURL: "/v1/campaigns/" + s.id + "/events",
		Error:     s.errMsg,
	}
}

// newServer builds the service. ctx is the daemon lifetime: cancelling
// it (SIGTERM in main) drains in-flight campaign streams between
// iterations and marks their sessions cancelled.
func newServer(ctx context.Context, cfg serverConfig) *server {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &server{
		opts: zeppelin.Options{Seeds: cfg.seeds, Workers: cfg.workers},
		base: ctx,
		sem:  make(chan struct{}, cfg.workers),
		admission: zeppelin.NewAdmission(zeppelin.AdmissionConfig{
			Rate:  cfg.rate,
			Burst: cfg.burst,
			ClassRate: map[zeppelin.AdmissionClass]float64{
				zeppelin.AdmitPlan:       cfg.planRate,
				zeppelin.AdmitCampaign:   cfg.campaignRate,
				zeppelin.AdmitExperiment: cfg.experimentRate,
			},
		}),
		metrics:     newServerMetrics(),
		decisionLog: cfg.decisionLog,
		maxSessions: defaultMaxSessions,
		sessions:    make(map[string]*session),
	}
	if cfg.planCacheEntries > 0 {
		s.planCache = zeppelin.NewPlanCache(cfg.planCacheEntries)
	}
	s.planner = zeppelin.NewPlanner(zeppelin.WithPlanCache(s.planCache))
	mux := http.NewServeMux()
	// /healthz and /metrics stay unadmitted: liveness probes must see
	// the daemon alive — and scrapers must see the saturation gauges —
	// even when every traffic class is saturated.
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/version", s.admitted(zeppelin.AdmitMeta, s.handleVersion))
	mux.HandleFunc("GET /v1/stats", s.admitted(zeppelin.AdmitMeta, s.handleStats))
	mux.HandleFunc("POST /v1/plan", s.admitted(zeppelin.AdmitPlan, s.handlePlan))
	mux.HandleFunc("POST /v1/campaigns", s.admitted(zeppelin.AdmitCampaign, s.handleCreateCampaign))
	mux.HandleFunc("GET /v1/campaigns", s.admitted(zeppelin.AdmitCampaign, s.handleListCampaigns))
	mux.HandleFunc("GET /v1/campaigns/{id}", s.admitted(zeppelin.AdmitCampaign, s.handleGetCampaign))
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.admitted(zeppelin.AdmitCampaign, s.handleDeleteCampaign))
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.admitted(zeppelin.AdmitCampaign, s.handleCampaignEvents))
	mux.HandleFunc("GET /v1/campaigns/{id}/decisions", s.admitted(zeppelin.AdmitCampaign, s.handleCampaignDecisions))
	mux.HandleFunc("POST /v1/campaigns/{id}/replay", s.admitted(zeppelin.AdmitCampaign, s.handleReplayCampaign))
	mux.HandleFunc("GET /v1/experiments/{name}", s.admitted(zeppelin.AdmitExperiment, s.handleExperiment))
	mux.HandleFunc("POST /v1/tune", s.admitted(zeppelin.AdmitExperiment, s.handleTune))
	// Wrong-method hits on known /v1 routes get a structured 405 (the
	// method-specific patterns above win for matching methods) …
	for _, p := range []string{"/v1/version", "/v1/stats", "/v1/plan", "/v1/campaigns",
		"/v1/campaigns/{id}", "/v1/campaigns/{id}/events", "/v1/campaigns/{id}/decisions",
		"/v1/campaigns/{id}/replay", "/v1/experiments/{name}", "/v1/tune"} {
		mux.HandleFunc(p, s.handleMethodNotAllowed)
	}
	// … and every unknown /v1 route gets a structured 404 instead of
	// the default text page.
	mux.HandleFunc("/v1/", s.handleUnknown)
	s.mux = mux
	return s
}

// admitted wraps a handler behind one traffic class's token bucket.
// Over-rate requests are rejected before any body parsing or simulation
// work with the structured 429 envelope and a Retry-After header — the
// overload signal admission control exists to give clients.
func (s *server) admitted(class zeppelin.AdmissionClass, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ok, retry := s.admission.Admit(class)
		if !ok {
			secs := int(math.Ceil(retry.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests, "rate_limited",
				"admission control: %s capacity exhausted, retry in %ds", class, secs)
			return
		}
		t0 := time.Now()
		h(w, r)
		s.metrics.httpLatency[class].Observe(time.Since(t0).Seconds())
	}
}

// ServeHTTP makes the server an http.Handler.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// acquire claims a simulation slot, honoring cancellation while queued.
func (s *server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *server) release() { <-s.sem }

// writeJSON emits an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

// writeError emits the /v1 error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, zeppelin.ErrorBody{Error: zeppelin.ErrorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, zeppelin.Version())
}

// statsBody is the GET /v1/stats payload: the fleet-facing counters —
// per-class admission decisions, shared plan cache hit rate, and the
// session table by state.
type statsBody struct {
	Admission []zeppelin.AdmissionStats `json:"admission"`
	PlanCache *zeppelin.PlanCacheStats  `json:"plan_cache,omitempty"`
	Sessions  map[string]int            `json:"sessions"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	body := statsBody{
		Admission: s.admission.Stats(),
		Sessions:  make(map[string]int),
	}
	if s.planCache != nil {
		st := s.planCache.Stats()
		body.PlanCache = &st
	}
	s.mu.Lock()
	ordered := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		ordered = append(ordered, sess)
	}
	s.mu.Unlock()
	for _, sess := range ordered {
		body.Sessions[sess.status().State]++
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleUnknown(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "not_found", "no such v1 route: %s %s", r.Method, r.URL.Path)
}

func (s *server) handleMethodNotAllowed(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
		"method %s is not allowed on %s", r.Method, r.URL.Path)
}

// decode reads one JSON request body into v.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid request body: %v", err)
		return false
	}
	return true
}

func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req zeppelin.PlanRequest
	if !decode(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	if err := s.acquire(r.Context()); err != nil {
		return // client gone while queued
	}
	defer s.release()
	t0 := time.Now()
	resp, err := s.planner.Plan(r.Context(), req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	s.metrics.planSolve.Observe(time.Since(t0).Seconds())
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	var req zeppelin.CampaignRequest
	if !decode(w, r, &req) {
		return
	}
	// Every session records its decisions: the trace backs the
	// /decisions route, the structured decision log, and the per-kind
	// /metrics counters. Recording is a handful of small allocations per
	// iteration — the gated BenchmarkDecisionOverhead keeps it ≤5%.
	camp, err := zeppelin.NewCampaign(req,
		zeppelin.WithCampaignPlanCache(s.planCache), zeppelin.WithCampaignDecisions())
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	s.mu.Lock()
	s.nextID++
	sess := &session{id: fmt.Sprintf("c%d", s.nextID), seq: s.nextID, camp: camp, req: req, state: "created"}
	s.sessions[sess.id] = sess
	s.evictLocked(sess)
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, sess.status())
}

// evictLocked bounds the session table: while it exceeds its cap, the
// oldest finished sessions (whose drained reports are the memory that
// accumulates) are dropped first, then the oldest never-streamed
// "created" sessions — idle reservations a client abandoned. Evicting a
// created session marks it deleted under its own lock, the same lock
// the events handler claims the stream under, so a racing stream start
// observes the eviction and conflicts instead of running unreachable.
// Running sessions and the just-created keep session are never evicted
// (a table full of live streams may therefore exceed the cap; the cap
// bounds what accumulates, not what is in flight). Callers hold s.mu.
func (s *server) evictLocked(keep *session) {
	if len(s.sessions) <= s.maxSessions {
		return
	}
	finished := make([]*session, 0, len(s.sessions))
	idle := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess == keep {
			continue
		}
		if sess.finished() {
			finished = append(finished, sess)
		} else if sess.isCreated() {
			idle = append(idle, sess)
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].seq < finished[j].seq })
	sort.Slice(idle, func(i, j int) bool { return idle[i].seq < idle[j].seq })
	for _, sess := range finished {
		if len(s.sessions) <= s.maxSessions {
			return
		}
		delete(s.sessions, sess.id)
	}
	for _, sess := range idle {
		if len(s.sessions) <= s.maxSessions {
			return
		}
		if sess.claimForEviction() {
			delete(s.sessions, sess.id)
		}
	}
}

// claimForEviction atomically flips a still-created session to deleted,
// reporting whether the eviction won (false if a stream claimed it in
// the meantime).
func (s *session) claimForEviction() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != "created" {
		return false
	}
	s.state = "deleted"
	return true
}

// isCreated reports whether the session is an unstreamed reservation.
func (s *session) isCreated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == "created"
}

// lookup returns the session for a path id, or nil after writing a 404.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, "not_found", "no such campaign session %q", id)
	}
	return sess
}

func (s *server) handleGetCampaign(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookup(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.status())
	}
}

func (s *server) handleListCampaigns(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ordered := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		ordered = append(ordered, sess)
	}
	s.mu.Unlock()
	// Creation order, not lexicographic id order (c10 must follow c9).
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	out := make([]sessionStatus, len(ordered))
	for i, sess := range ordered {
		out[i] = sess.status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": out})
}

// handleDeleteCampaign removes a session, reclaiming its report. A
// running session cannot be deleted — disconnect its events stream
// first, which cancels the campaign between iterations. The state flips
// to "deleted" under the session lock, the same lock the events handler
// claims the stream under, so a DELETE racing a stream start can never
// leave a running campaign unreachable: whichever transition wins, the
// other observes it and conflicts.
func (s *server) handleDeleteCampaign(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	if sess.state == "running" {
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, "conflict",
			"campaign session %q is running; disconnect its events stream before deleting", sess.id)
		return
	}
	sess.state = "deleted"
	sess.mu.Unlock()
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleCampaignEvents runs the session's campaign and streams one
// NDJSON line per iteration. The stream stops between iterations on
// either cancellation signal: client disconnect (the request context)
// or daemon shutdown (the server's base context) — in both cases the
// session's planner work stops and the session is marked cancelled. A
// failed write is treated as a disconnect immediately: the handler
// records the write error and stops producing events rather than
// simulating and encoding the rest of the horizon into a dead
// connection.
func (s *server) handleCampaignEvents(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	if sess.state != "created" {
		state := sess.state
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, "conflict",
			"campaign session %q is %s; events stream exactly once per session", sess.id, state)
		return
	}
	sess.state = "running"
	sess.mu.Unlock()

	// The session context merges both cancellation sources: the client
	// vanishing cancels r.Context(), SIGTERM cancels s.base. Either one
	// stops the campaign at the next iteration boundary, so graceful
	// shutdown drains running streams (terminal state written, session
	// marked cancelled) instead of killing them mid-write.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.base, cancel)
	defer stop()

	finish := func(state, msg string) {
		sess.mu.Lock()
		sess.state = state
		sess.errMsg = msg
		sess.mu.Unlock()
	}
	if err := s.acquire(ctx); err != nil {
		finish("cancelled", err.Error())
		return
	}
	defer s.release()
	if err := sess.camp.Start(ctx); err != nil {
		finish("failed", err.Error())
		// Start-time validation failures — a broken replay trace, a serve
		// timeline referencing an unknown SLO class — are the client's
		// input, not a daemon fault: answer 400, not 500.
		if zeppelin.IsValidationError(err) {
			writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		} else {
			writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var writeErr error
	for {
		ev, ok := sess.camp.Next()
		if !ok {
			break
		}
		if err := enc.Encode(ev); err != nil {
			// The connection is dead: every further iteration would be
			// simulated and encoded for nobody. Record the failure and
			// stop producing events now.
			writeErr = err
			cancel()
			break
		}
		sess.mu.Lock()
		sess.events++
		sess.mu.Unlock()
		if flusher != nil {
			flusher.Flush()
		}
	}
	switch err := sess.camp.Err(); {
	case writeErr != nil:
		finish("cancelled", "client disconnected: "+writeErr.Error())
	case err == nil:
		finish("done", "")
		// Per-class serving metrics only exist for fully drained serve
		// streams — partial streams would undercount every class.
		s.recordServe(sess)
	case ctx.Err() != nil:
		finish("cancelled", err.Error())
	default:
		finish("failed", err.Error())
	}
	// The stream ran exactly once, so this folds the session's decision
	// trace into the metrics counters (and the decision log) exactly once.
	s.recordDecisions(sess)
}

func (s *server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !zeppelin.IsExperiment(name) {
		writeError(w, http.StatusNotFound, "not_found",
			"unknown experiment %q (want one of %v)", name, zeppelin.Experiments())
		return
	}
	if err := s.acquire(r.Context()); err != nil {
		return
	}
	defer s.release()
	res, err := zeppelin.RunExperiment(r.Context(), name, s.opts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
