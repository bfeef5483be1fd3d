package campaign

import (
	"fmt"
	"io"
	"sort"

	"zeppelin/internal/decision"
	"zeppelin/internal/seq"
	"zeppelin/internal/workload/serve"
)

// ServeConfig switches a campaign from training iterations to an
// inference-style request stream: instead of one batch arriving per
// iteration, a timestamped multi-client timeline (synthetic spec or
// recorded trace) feeds a queue, each iteration forms a batch under the
// spec's formation discipline (FCFS, priority, or SJF), routes every
// request to a rank under the spec's routing objective (least-loaded
// balance, or KV-affinity which prefers a session's home rank to skip
// recomputing its shared prefix), and per-request latencies are scored
// against the spec's SLO-class deadlines.
type ServeConfig struct {
	// Spec carries the timeline (generated, or its Trace replayed) and
	// the serving knobs: SLO classes, formation, routing objective.
	// Validation resolves its zero fields to their defaults.
	Spec serve.Spec
}

// ClassMetrics aggregates one SLO class over a serve campaign. It is
// also the public wire type zeppelin.ClassMetrics.
type ClassMetrics struct {
	Class    string `json:"class"`
	Priority int    `json:"priority"`
	// Deadline is the class's latency SLO in seconds.
	Deadline float64 `json:"deadline"`
	// Requests counts completions; Violations those past the deadline.
	Requests   int `json:"requests"`
	Violations int `json:"violations"`
	// Tokens is the class's delivered work (full request lengths, before
	// prefix savings).
	Tokens int `json:"tokens"`
	// Latency percentiles in seconds (arrival to completion, queueing
	// included).
	P50Latency float64 `json:"p50_latency"`
	P99Latency float64 `json:"p99_latency"`
	MaxLatency float64 `json:"max_latency"`
	// Goodput is deadline-meeting tokens per second of stream time;
	// ViolationRate is Violations/Requests.
	Goodput       float64 `json:"goodput"`
	ViolationRate float64 `json:"violation_rate"`
}

// classAgg is the online accumulator behind ClassMetrics.
type classAgg struct {
	cls        serve.SLOClass
	latencies  []float64
	tokens     int
	goodTokens int
	violations int
}

// serveState is the campaign loop state of a serving stream. The queue
// stays in formation order across ticks: each arrival is pushed once,
// and a tick pops the requests it serves, so a tick costs its arrivals
// and its batch, not the whole backlog.
type serveState struct {
	spec         *serve.Spec
	timeline     []serve.Request
	cursor       int
	queue        serveQueue
	queuedTokens int         // tokens of the requests in queue
	clock        float64     // stream time in seconds
	homes        map[int]int // session → rank last holding its KV cache
	stats        map[string]*classAgg
	// load is the tick's per-rank token load and served the requests
	// the current tick took; both are reused every tick.
	load   []float64
	served []serve.Request
	// alts is the unused rest of the slab route records take their two
	// alternatives from.
	alts []decision.Alternative
}

// queued is a waiting request: its formation key and its timeline index.
type queued struct{ key, idx int }

// serveQueue is a binary min-heap on (key, idx), so its top is the
// request the formation discipline serves next, ties going to the
// earlier arrival. Its sift steps are those of container/heap,
// specialized to queued so nothing is boxed.
type serveQueue []queued

func (q serveQueue) less(i, j int) bool {
	if q[i].key != q[j].key {
		return q[i].key < q[j].key
	}
	return q[i].idx < q[j].idx
}

func (q *serveQueue) push(e queued) {
	*q = append(*q, e)
	h := *q
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes the top entry.
func (q *serveQueue) pop() {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
}

// formationKey orders a request under the formation discipline: fcfs
// by arrival alone, priority by class priority (highest first), sjf
// shortest-job-first by full request length. Ties keep arrival order.
func (sv *serveState) formationKey(req *serve.Request) int {
	switch sv.spec.Formation {
	case "priority":
		return -sv.stats[req.Class].cls.Priority
	case "sjf":
		return req.Tokens
	}
	return 0
}

// validateServe checks the serve configuration, and is the one place
// that lists what Serve excludes. The serve timeline is the arrival
// process, so there is no Arrival. A serving tick runs no replanning
// controller, so there is no Policy and no ReplanCost. Serving has no
// fault schedule, Autoscaler or counterfactual Flip yet. All errors are
// validation-classified.
func (c *Config) validateServe() error {
	c.Serve.Spec = c.Serve.Spec.WithDefaults()
	if err := c.Serve.Spec.Validate(); err != nil {
		return asValidation(err)
	}
	switch {
	case c.Arrival != nil:
		return validationf("campaign: serve and arrival are mutually exclusive (the serve timeline is the arrival process)")
	case c.Policy != nil:
		return validationf("campaign: serve campaigns have no replanning policy")
	case c.ReplanCost != 0:
		return validationf("campaign: serve campaigns have no replanning controller to charge a replan cost")
	case c.Faults != nil || c.Autoscaler != nil:
		return validationf("campaign: serve campaigns do not support fault schedules or autoscaling yet")
	case c.Flip != nil:
		return validationf("campaign: serve campaigns do not support counterfactual flips yet")
	}
	return nil
}

// startServe expands the timeline and primes the serving state. Timeline
// errors (a broken trace, an invalid spec) are validation errors.
func (s *Stream) startServe() error {
	spec := &s.cfg.Serve.Spec
	timeline, err := spec.Timeline(s.rng)
	if err != nil {
		return asValidation(err)
	}
	sv := &serveState{
		spec:     spec,
		timeline: timeline,
		homes:    make(map[int]int),
		stats:    make(map[string]*classAgg),
	}
	for _, cls := range spec.Classes {
		sv.stats[cls.Name] = &classAgg{cls: cls}
	}
	s.serve = sv
	return nil
}

// drained reports whether every request has arrived and been served.
func (sv *serveState) drained() bool {
	return sv.cursor >= len(sv.timeline) && len(sv.queue) == 0
}

// form is a serving tick's batch source: push the arrivals due by the
// stream clock onto the queue, then take requests from its top while
// the tick's token budget lasts. Once a request is served, the tick
// stops at the first one that does not fit, so it always takes a prefix
// of the formation order. Routing happens inside the take loop because
// the affinity objective changes a request's effective cost (home-rank
// placement skips the shared prefix), which changes how many requests
// fit the tick. form returns the batch at effective (post-prefix)
// lengths and a record holding the full request tokens, the tokens left
// queued, and the affinity hits and their savings.
func (sv *serveState) form(tr *decision.Trace, it, world, budget int) ([]seq.Sequence, IterRecord) {
	// Idle fast-forward: with an empty queue the next tick starts when
	// the next request lands.
	if len(sv.queue) == 0 && sv.cursor < len(sv.timeline) {
		if t := sv.timeline[sv.cursor].T; t > sv.clock {
			sv.clock = t
		}
	}
	for sv.cursor < len(sv.timeline) && sv.timeline[sv.cursor].T <= sv.clock {
		req := &sv.timeline[sv.cursor]
		sv.queue.push(queued{key: sv.formationKey(req), idx: sv.cursor})
		sv.queuedTokens += req.Tokens
		sv.cursor++
	}

	if cap(sv.load) < world {
		sv.load = make([]float64, world)
	}
	load := sv.load[:world]
	clear(load)
	var batch []seq.Sequence
	var rec IterRecord
	served := sv.served[:0]
	total := 0
	for len(sv.queue) > 0 {
		req := sv.timeline[sv.queue[0].idx]
		rank, best, eff, homeHit := sv.route(req, load, world)
		if total+eff > budget {
			if len(served) > 0 {
				break
			}
			// A single oversized request still runs, clamped to capacity.
			eff = budget
		}
		if tr != nil {
			sv.recordRoute(tr, it, req, load, best, homeHit, world)
		}
		load[rank] += float64(eff)
		sv.homes[req.Session] = rank
		batch = append(batch, seq.Sequence{ID: len(batch), Len: eff})
		served = append(served, req)
		rec.Tokens += req.Tokens
		if homeHit {
			rec.AffinityHits++
			rec.SavedTokens += req.Tokens - eff
		}
		total += eff
		sv.queue.pop()
		sv.queuedTokens -= req.Tokens
	}
	sv.served = served
	rec.Queued = sv.queuedTokens
	return batch, rec
}

// complete ends a serving tick that took iterTime seconds: the stream
// clock advances past it (so queueing delay compounds when the stream
// outpaces the cluster), and every request the tick served is scored
// against its class deadline. It returns the tick's violation count.
func (sv *serveState) complete(iterTime float64) int {
	sv.clock += iterTime
	violations := 0
	for _, req := range sv.served {
		agg := sv.stats[req.Class]
		lat := sv.clock - req.T
		agg.latencies = append(agg.latencies, lat)
		agg.tokens += req.Tokens
		if lat > agg.cls.P99Sec {
			agg.violations++
			violations++
		} else {
			agg.goodTokens += req.Tokens
		}
	}
	return violations
}

// route picks a rank for one request and also returns the least-loaded
// rank. Both objectives score per-rank token loads of the tick being
// formed; the affinity objective additionally credits the session's
// home rank with the prefix tokens it would not recompute, choosing it
// whenever the credited placement is no worse than spreading to the
// least-loaded rank.
func (sv *serveState) route(req serve.Request, load []float64, world int) (rank, best, eff int, homeHit bool) {
	for r := 1; r < world; r++ {
		if load[r] < load[best] {
			best = r
		}
	}
	home, hasHome := sv.homes[req.Session]
	effHome := effectiveLen(req.Tokens - req.Prefix)
	effFull := effectiveLen(req.Tokens)
	if hasHome && home < world {
		if sv.spec.Route == "affinity" {
			if load[home]+float64(effHome) <= load[best]+float64(effFull) {
				return home, best, effHome, true
			}
		} else if home == best {
			// Balance routing still banks an incidental home hit.
			return home, best, effHome, true
		}
	}
	return best, best, effFull, false
}

// effectiveLen floors a routed request's placed length at the samplers'
// 16-token remnant rule so a near-total prefix hit still occupies a slot.
func effectiveLen(n int) int {
	if n < 16 {
		return 16
	}
	return n
}

// recordRoute emits the routing decision for a request that had a real
// choice (an existing home rank); best is the least-loaded rank route
// found.
func (sv *serveState) recordRoute(tr *decision.Trace, it int, req serve.Request, load []float64, best int, homeHit bool, world int) {
	home, hasHome := sv.homes[req.Session]
	if !hasHome || home >= world {
		return
	}
	chosen := "spread"
	if homeHit {
		chosen = "affinity"
	}
	// Capped at two, a record's alternatives cannot grow into the next
	// record's.
	if len(sv.alts) < 2 {
		sv.alts = make([]decision.Alternative, 256)
	}
	alts := sv.alts[:2:2]
	sv.alts = sv.alts[2:]
	alts[0] = decision.Alternative{Choice: "affinity", Score: load[home] + float64(effectiveLen(req.Tokens-req.Prefix)), Chosen: homeHit}
	alts[1] = decision.Alternative{Choice: "spread", Score: load[best] + float64(effectiveLen(req.Tokens)), Chosen: !homeHit}
	tr.Add(decision.Record{Iter: it, Kind: decision.KindRoute, Chosen: chosen, Alternatives: alts})
}

// finishServe folds the per-class accumulators into the report and names
// the summary columns after the timeline's source and the serving knobs.
func (s *Stream) finishServe() {
	sv := s.serve
	classes := make([]ClassMetrics, 0, len(sv.stats))
	for _, cls := range sv.spec.Classes {
		agg := sv.stats[cls.Name]
		cm := ClassMetrics{
			Class:      cls.Name,
			Priority:   cls.Priority,
			Deadline:   cls.P99Sec,
			Requests:   len(agg.latencies),
			Violations: agg.violations,
			Tokens:     agg.tokens,
			P50Latency: Percentile(agg.latencies, 50),
			P99Latency: Percentile(agg.latencies, 99),
			MaxLatency: Percentile(agg.latencies, 100),
		}
		if sv.clock > 0 {
			cm.Goodput = float64(agg.goodTokens) / sv.clock
		}
		if cm.Requests > 0 {
			cm.ViolationRate = float64(cm.Violations) / float64(cm.Requests)
		}
		classes = append(classes, cm)
	}
	// Highest priority first, name as the deterministic tie-break.
	sort.SliceStable(classes, func(a, b int) bool {
		if classes[a].Priority != classes[b].Priority {
			return classes[a].Priority > classes[b].Priority
		}
		return classes[a].Class < classes[b].Class
	})
	s.report.Classes = classes
	s.report.summarize(s.cfg.Method.Name(), sv.spec.Name(), "serve:"+sv.spec.Formation+"+"+sv.spec.Route)
	sum := &s.report.Summary
	sum.StreamTime = sv.clock
	sum.Unserved = len(sv.queue) + (len(sv.timeline) - sv.cursor)
	for _, cm := range classes {
		sum.Requests += cm.Requests
		sum.Violations += cm.Violations
	}
}

// SummarizeClasses seed-averages per-class metrics across reports of the
// same serve cell. Counts become per-seed means; latency percentiles and
// rates average arithmetically, matching Summarize.
func SummarizeClasses(reports []*Report) []ClassMetrics {
	if len(reports) == 0 {
		return nil
	}
	out := make([]ClassMetrics, len(reports[0].Classes))
	copy(out, reports[0].Classes)
	acc := make([]struct {
		requests, violations, tokens    float64
		p50, p99, max, goodput, vioRate float64
	}, len(out))
	for _, r := range reports {
		for i, cm := range r.Classes {
			if i >= len(acc) || cm.Class != out[i].Class {
				continue
			}
			acc[i].requests += float64(cm.Requests)
			acc[i].violations += float64(cm.Violations)
			acc[i].tokens += float64(cm.Tokens)
			acc[i].p50 += cm.P50Latency
			acc[i].p99 += cm.P99Latency
			acc[i].max += cm.MaxLatency
			acc[i].goodput += cm.Goodput
			acc[i].vioRate += cm.ViolationRate
		}
	}
	n := float64(len(reports))
	for i := range out {
		out[i].Requests = int(acc[i].requests / n)
		out[i].Violations = int(acc[i].violations / n)
		out[i].Tokens = int(acc[i].tokens / n)
		out[i].P50Latency = acc[i].p50 / n
		out[i].P99Latency = acc[i].p99 / n
		out[i].MaxLatency = acc[i].max / n
		out[i].Goodput = acc[i].goodput / n
		out[i].ViolationRate = acc[i].vioRate / n
	}
	return out
}

// WriteClassTable renders per-class serve metrics as a text table — the
// rendering the CLI serve subcommand and the fig16 experiment share.
func WriteClassTable(w io.Writer, classes []ClassMetrics) {
	fmt.Fprintf(w, "  %-14s %5s %9s %9s %9s %10s %10s %9s %8s\n",
		"class", "prio", "deadline", "requests", "violates", "p50(s)", "p99(s)", "goodput", "viol%")
	for _, c := range classes {
		fmt.Fprintf(w, "  %-14s %5d %8.2fs %9d %9d %10.3f %10.3f %9.0f %7.1f%%\n",
			c.Class, c.Priority, c.Deadline, c.Requests, c.Violations,
			c.P50Latency, c.P99Latency, c.Goodput, 100*c.ViolationRate)
	}
}
