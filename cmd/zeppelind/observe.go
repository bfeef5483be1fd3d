package main

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"

	"zeppelin/internal/promtext"
	"zeppelin/pkg/zeppelin"
)

// sessionStates is the fixed lifecycle vocabulary the sessions gauge
// exports. Every state is always emitted (zero when empty) so scrapes
// see a stable series set and dashboards never miss a state that simply
// had no sessions at scrape time.
var sessionStates = []sessionState{stateCreated, stateRunning, stateDone, stateCancelled, stateFailed}

// serverMetrics is the daemon's in-process observability state: the
// pieces GET /metrics cannot read out of existing structures. Admission
// counters and bucket levels live in the Admission controller, plan
// cache counters in the PlanCache — this struct only owns what the
// handlers themselves observe: request latency per traffic class, plan
// solve timings, and per-kind decision counts from drained campaigns.
type serverMetrics struct {
	httpLatency map[zeppelin.AdmissionClass]*promtext.Histogram
	planSolve   *promtext.Histogram

	mu        sync.Mutex
	decisions map[string]uint64
	serve     map[string]*serveClassCounts
}

// serveClassCounts accumulates one SLO class's serving totals across
// drained serve sessions.
type serveClassCounts struct {
	requests   uint64
	violations uint64
	tokens     uint64
}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{
		httpLatency: make(map[zeppelin.AdmissionClass]*promtext.Histogram),
		planSolve:   promtext.NewHistogram(promtext.DefaultLatencyBuckets),
		decisions:   make(map[string]uint64),
		serve:       make(map[string]*serveClassCounts),
	}
	for _, class := range zeppelin.AdmissionClasses() {
		m.httpLatency[class] = promtext.NewHistogram(promtext.DefaultLatencyBuckets)
	}
	return m
}

// countDecisions folds one drained campaign's records into the per-kind
// totals.
func (m *serverMetrics) countDecisions(recs []zeppelin.DecisionRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range recs {
		m.decisions[string(r.Kind)]++
	}
}

// countServe folds one drained serve session's per-class metrics into
// the serving counters.
func (m *serverMetrics) countServe(classes []zeppelin.ClassMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, cm := range classes {
		c := m.serve[cm.Class]
		if c == nil {
			c = &serveClassCounts{}
			m.serve[cm.Class] = c
		}
		c.requests += uint64(cm.Requests)
		c.violations += uint64(cm.Violations)
		c.tokens += uint64(cm.Tokens)
	}
}

func (m *serverMetrics) serveCounts() map[string]serveClassCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]serveClassCounts, len(m.serve))
	for k, v := range m.serve {
		out[k] = *v
	}
	return out
}

func (m *serverMetrics) decisionCounts() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.decisions))
	for k, v := range m.decisions {
		out[k] = v
	}
	return out
}

// handleMetrics renders GET /metrics: the Prometheus text exposition of
// every fleet-facing counter. Like /healthz it is never admitted —
// scrapers must see the saturation gauges precisely when the admission
// buckets are exhausted.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b promtext.Builder
	class := func(c zeppelin.AdmissionClass) []promtext.Label {
		return []promtext.Label{promtext.L("class", string(c))}
	}

	b.Metric("zeppelind_admission_allowed_total", "counter", "Requests admitted per traffic class.")
	for _, c := range zeppelin.AdmissionClasses() {
		allowed, _ := s.admission.Bucket(c).Counts()
		b.Sample("zeppelind_admission_allowed_total", class(c), float64(allowed))
	}
	b.Metric("zeppelind_admission_denied_total", "counter", "Requests rejected with 429 per traffic class.")
	for _, c := range zeppelin.AdmissionClasses() {
		_, denied := s.admission.Bucket(c).Counts()
		b.Sample("zeppelind_admission_denied_total", class(c), float64(denied))
	}
	b.Metric("zeppelind_admission_bucket_tokens", "gauge", "Current token-bucket fill per traffic class.")
	for _, c := range zeppelin.AdmissionClasses() {
		tokens, _ := s.admission.Bucket(c).Level()
		b.Sample("zeppelind_admission_bucket_tokens", class(c), tokens)
	}
	b.Metric("zeppelind_admission_bucket_saturation", "gauge", "Token-bucket saturation per class: 0 idle, 1 exhausted.")
	for _, c := range zeppelin.AdmissionClasses() {
		tokens, burst := s.admission.Bucket(c).Level()
		sat := 0.0
		if burst > 0 {
			sat = 1 - tokens/burst
		}
		b.Sample("zeppelind_admission_bucket_saturation", class(c), sat)
	}

	if s.planCache != nil {
		st := s.planCache.Stats()
		b.Metric("zeppelind_plan_cache_hits_total", "counter", "Shared plan cache hits.")
		b.Sample("zeppelind_plan_cache_hits_total", nil, float64(st.Hits))
		b.Metric("zeppelind_plan_cache_misses_total", "counter", "Shared plan cache misses.")
		b.Sample("zeppelind_plan_cache_misses_total", nil, float64(st.Misses))
		b.Metric("zeppelind_plan_cache_evictions_total", "counter", "Entries dropped off the shared plan cache's LRU tail.")
		b.Sample("zeppelind_plan_cache_evictions_total", nil, float64(st.Evictions))
		b.Metric("zeppelind_plan_cache_entries", "gauge", "Shared plan cache resident entries.")
		b.Sample("zeppelind_plan_cache_entries", nil, float64(st.Entries))
		b.Metric("zeppelind_plan_cache_capacity", "gauge", "Shared plan cache entry capacity.")
		b.Sample("zeppelind_plan_cache_capacity", nil, float64(st.Capacity))
	}

	states := make(map[sessionState]int, len(sessionStates))
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		states[sess.status().State]++
	}
	b.Metric("zeppelind_sessions", "gauge", "Campaign sessions in the table by lifecycle state.")
	for _, st := range sessionStates {
		b.Sample("zeppelind_sessions", []promtext.Label{promtext.L("state", string(st))}, float64(states[st]))
	}

	b.Metric("zeppelind_http_request_duration_seconds", "histogram", "Admitted /v1 request latency per traffic class.")
	for _, c := range zeppelin.AdmissionClasses() {
		s.metrics.httpLatency[c].Write(&b, "zeppelind_http_request_duration_seconds", class(c))
	}
	b.Metric("zeppelind_plan_solve_seconds", "histogram", "POST /v1/plan solve latency (successful plans only).")
	s.metrics.planSolve.Write(&b, "zeppelind_plan_solve_seconds", nil)

	counts := s.metrics.decisionCounts()
	b.Metric("zeppelind_decisions_total", "counter", "Campaign decisions recorded by kind, folded in as sessions drain.")
	var kinds []string
	for _, k := range zeppelin.DecisionKinds() {
		kinds = append(kinds, string(k))
	}
	for k := range counts {
		if !slices.Contains(kinds, k) {
			kinds = append(kinds, k)
		}
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		b.Sample("zeppelind_decisions_total", []promtext.Label{promtext.L("kind", k)}, float64(counts[k]))
	}

	serveCounts := s.metrics.serveCounts()
	classNames := make([]string, 0, len(serveCounts))
	for name := range serveCounts {
		classNames = append(classNames, name)
	}
	sort.Strings(classNames)
	cls := func(name string) []promtext.Label {
		return []promtext.Label{promtext.L("class", name)}
	}
	b.Metric("zeppelind_serve_requests_total", "counter", "Serve-campaign requests completed per SLO class, folded in as sessions drain.")
	for _, name := range classNames {
		b.Sample("zeppelind_serve_requests_total", cls(name), float64(serveCounts[name].requests))
	}
	b.Metric("zeppelind_serve_violations_total", "counter", "Serve-campaign deadline violations per SLO class.")
	for _, name := range classNames {
		b.Sample("zeppelind_serve_violations_total", cls(name), float64(serveCounts[name].violations))
	}
	b.Metric("zeppelind_serve_tokens_total", "counter", "Serve-campaign delivered tokens per SLO class.")
	for _, name := range classNames {
		b.Sample("zeppelind_serve_tokens_total", cls(name), float64(serveCounts[name].tokens))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	b.WriteTo(w) //nolint:errcheck // the connection is gone; nothing to do
}

// recordServe folds a drained serve session's per-class metrics into
// the serving counters. Sessions that did not run a serve campaign (or
// did not drain) fold nothing.
func (s *server) recordServe(sess *session) {
	rep := sess.camp.Report()
	if len(rep.Classes) == 0 {
		return
	}
	s.metrics.countServe(rep.Classes)
}

// recordDecisions folds a drained session's decision trace into the
// metrics counters and, when -decision-log is set, appends the trace to
// the structured NDJSON log stamped with the session id. Each session
// streams exactly once, so the fold happens exactly once per campaign.
func (s *server) recordDecisions(sess *session) {
	recs := sess.camp.Decisions()
	if len(recs) == 0 {
		return
	}
	s.metrics.countDecisions(recs)
	if s.decisionLog == nil {
		return
	}
	s.decisionLogMu.Lock()
	defer s.decisionLogMu.Unlock()
	zeppelin.WriteDecisionNDJSON(s.decisionLog, sess.id, recs) //nolint:errcheck // log writes must not fail the stream
}

// handleCampaignDecisions serves GET /v1/campaigns/{id}/decisions: the
// session's decision trace so far, stamped with the session id. Safe at
// any lifecycle stage — an unstreamed session just has no records yet.
func (s *server) handleCampaignDecisions(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	recs := sess.camp.Decisions()
	if recs == nil {
		recs = []zeppelin.DecisionRecord{}
	}
	for i := range recs {
		recs[i].Session = sess.id
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaign": sess.id, "decisions": recs})
}

// replayBody is the POST /v1/campaigns/{id}/replay request: the flip to
// apply, or nothing for a pure determinism check. The campaign itself
// comes from the session — replay always re-runs the request the
// session was created with.
type replayBody struct {
	Flip *zeppelin.FlipSpec `json:"flip,omitempty"`
}

// handleTune serves POST /v1/tune: the closed-loop policy search run
// in-process. Tune runs are experiment-class traffic — one request
// simulates Budget × Seeds whole campaigns — so they share the
// experiment admission bucket and hold one simulation slot for the
// duration; the request's internal pool is clamped to the server's
// -workers so a single tune cannot oversubscribe the daemon.
func (s *server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req zeppelin.TuneRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Workers <= 0 || req.Workers > s.opts.Workers {
		req.Workers = s.opts.Workers
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	if err := s.acquire(r.Context()); err != nil {
		return // client gone while queued
	}
	defer s.release()
	rep, err := zeppelin.RunTune(r.Context(), req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	s.recordTune(rep)
	writeJSON(w, http.StatusOK, rep)
}

// recordTune folds the search's final selection into the decision
// counters and, when -decision-log is set, the structured NDJSON log:
// one "tune" record whose chosen value is the winning configuration and
// whose alternatives are every evaluated candidate's fitness total —
// the same shape replan verdicts trace, so the log replays why a
// configuration won.
func (s *server) recordTune(rep *zeppelin.TuneReport) {
	alts := make([]zeppelin.DecisionAlternative, 0, len(rep.Candidates)+1)
	alts = append(alts, zeppelin.DecisionAlternative{
		Choice: rep.Baseline.Key,
		Score:  rep.Baseline.Fitness.Total,
		Chosen: !rep.Improved,
	})
	for _, c := range rep.Candidates {
		alts = append(alts, zeppelin.DecisionAlternative{
			Choice: c.Key,
			Score:  c.Fitness.Total,
			Chosen: rep.Improved && c.Key == rep.Winner.Key,
		})
	}
	recs := []zeppelin.DecisionRecord{{
		Kind:         "tune",
		Chosen:       rep.Winner.Key,
		Alternatives: alts,
	}}
	s.metrics.countDecisions(recs)
	if s.decisionLog == nil {
		return
	}
	s.decisionLogMu.Lock()
	defer s.decisionLogMu.Unlock()
	zeppelin.WriteDecisionNDJSON(s.decisionLog, "tune", recs) //nolint:errcheck // log writes must not fail the response
}

// handleReplayCampaign re-runs a session's campaign deterministically,
// optionally with one replan verdict flipped, and returns the
// counterfactual report. The replay runs fresh in-process campaigns (it
// never touches the session's own planner or state), so it works on
// created, running, and drained sessions alike.
func (s *server) handleReplayCampaign(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var body replayBody
	if err := dec.Decode(&body); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid request body: %v", err)
		return
	}
	if body.Flip != nil {
		if err := body.Flip.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
			return
		}
	}
	if err := s.acquire(r.Context()); err != nil {
		return // client gone while queued
	}
	defer s.release()
	rep, err := zeppelin.RunReplay(r.Context(), zeppelin.ReplayRequest{Campaign: sess.req, Flip: body.Flip},
		zeppelin.WithCampaignPlanCache(s.planCache))
	if err != nil {
		// Validation failures (bad campaign input resurfacing at replay
		// time) are the client's to fix: 400, not 500.
		if zeppelin.IsValidationError(err) {
			writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		} else {
			writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
