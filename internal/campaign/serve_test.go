package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"zeppelin/internal/decision"
	"zeppelin/internal/faults"
	"zeppelin/internal/seq"
	"zeppelin/internal/workload"
	"zeppelin/internal/workload/serve"
	"zeppelin/internal/zeppelin"
)

// serveSpec builds a small, bursty two-class serving scenario that
// drains in a few dozen ticks on the test cell.
func serveSpec(route string) serve.Spec {
	spec, err := serve.Parse("clients=3,arrival=gamma:cv=2.0,rate=30@0-8s,slo=interactive:p99=2s:prio=2;batch:p99=8s:prio=1,prefix=0.6,route=" + route)
	if err != nil {
		panic(err)
	}
	return spec
}

func serveConfig(seed int64, route string) Config {
	return Config{
		Trainer: testCell(seed), Method: zeppelin.Full(), Iters: 500,
		Serve: &ServeConfig{Spec: serveSpec(route)},
	}
}

func TestServeCampaignBasicShape(t *testing.T) {
	rep := runCampaign(t, serveConfig(1, "balance"))
	if len(rep.Records) == 0 {
		t.Fatal("no serving ticks ran")
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("%d class rows, want 2", len(rep.Classes))
	}
	if rep.Classes[0].Class != "interactive" || rep.Classes[1].Class != "batch" {
		t.Fatalf("classes out of priority order: %+v", rep.Classes)
	}
	var requests int
	for _, cm := range rep.Classes {
		requests += cm.Requests
		if cm.Requests == 0 {
			t.Fatalf("class %s served no requests", cm.Class)
		}
		if cm.Violations > cm.Requests {
			t.Fatalf("class %s has more violations than requests", cm.Class)
		}
		if cm.P50Latency <= 0 || cm.P99Latency < cm.P50Latency {
			t.Fatalf("class %s latencies malformed: %+v", cm.Class, cm)
		}
		if cm.Goodput < 0 {
			t.Fatalf("class %s negative goodput", cm.Class)
		}
	}
	if rep.Summary.Requests != requests {
		t.Fatalf("summary requests %d != class total %d", rep.Summary.Requests, requests)
	}
	if rep.Summary.Unserved != 0 {
		t.Fatalf("stream left %d requests unserved", rep.Summary.Unserved)
	}
	if rep.Summary.StreamTime <= 0 {
		t.Fatal("no stream time accumulated")
	}
	if rep.Summary.Arrival != "serve(3xgamma cv=2,2cls)" {
		t.Fatalf("arrival label = %q", rep.Summary.Arrival)
	}
	if rep.Summary.Policy != "serve:priority+balance" {
		t.Fatalf("policy label = %q", rep.Summary.Policy)
	}
	for _, rec := range rep.Records {
		if rec.Time <= 0 || rec.Seqs == 0 {
			t.Fatalf("tick %d empty or timeless: %+v", rec.Iter, rec)
		}
		if rec.Replanned {
			t.Fatalf("tick %d claims a replan in serve mode", rec.Iter)
		}
	}
}

func TestServeAffinitySavesTokens(t *testing.T) {
	balance := runCampaign(t, serveConfig(1, "balance"))
	affinity := runCampaign(t, serveConfig(1, "affinity"))
	saved := func(r *Report) (n int) {
		for _, rec := range r.Records {
			n += rec.SavedTokens
		}
		return n
	}
	if sa, sb := saved(affinity), saved(balance); sa <= sb {
		t.Fatalf("affinity routing saved %d tokens, balance %d — affinity should save more", sa, sb)
	}
}

func TestServeDeterministicAcrossWorkers(t *testing.T) {
	// The trace-replay v2 determinism contract: identical serve grids at
	// workers 1, 4, and GOMAXPROCS produce byte-identical reports.
	cfgs := func() []Config {
		var out []Config
		for seed := int64(1); seed <= 3; seed++ {
			for _, route := range []string{"balance", "affinity"} {
				out = append(out, serveConfig(seed, route))
			}
		}
		return out
	}
	var base []byte
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		reports, err := RunGrid(context.Background(), cfgs(), workers)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = raw
			continue
		}
		if !bytes.Equal(base, raw) {
			t.Fatalf("workers=%d produced different reports", workers)
		}
	}
}

func TestServeTraceReplayMatchesSpec(t *testing.T) {
	// Recording a spec's timeline and replaying it as a trace must
	// reproduce the spec campaign bit for bit (the spec's rng draws
	// happen before the serving loop starts, so replay sees the same
	// stream).
	cfg := serveConfig(5, "affinity")
	specRep := runCampaign(t, cfg)

	spec := serveSpec("affinity")
	timeline, err := spec.Timeline(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	trCfg := serveConfig(5, "affinity")
	trCfg.Serve.Spec.Trace, trCfg.Serve.Spec.TraceName = timeline, "recorded"
	traceRep := runCampaign(t, trCfg)

	if !reflect.DeepEqual(specRep.Records, traceRep.Records) {
		t.Fatal("trace replay diverged from the generative run")
	}
	if !reflect.DeepEqual(specRep.Classes, traceRep.Classes) {
		t.Fatal("trace replay class metrics diverged")
	}
}

func TestServeRouteDecisionsTraced(t *testing.T) {
	tr := &decision.Trace{}
	cfg := serveConfig(2, "affinity")
	cfg.Decisions = tr
	runCampaign(t, cfg)
	if n := tr.CountKind(decision.KindRoute, ""); n == 0 {
		t.Fatal("no route decisions recorded")
	}
	affinity, spread := 0, 0
	for _, rec := range tr.Records() {
		if rec.Kind != decision.KindRoute {
			continue
		}
		if len(rec.Alternatives) != 2 {
			t.Fatalf("route record has %d alternatives", len(rec.Alternatives))
		}
		switch rec.Chosen {
		case "affinity":
			affinity++
		case "spread":
			spread++
		default:
			t.Fatalf("route chose %q", rec.Chosen)
		}
	}
	if affinity == 0 {
		t.Fatal("affinity routing never chose the home rank")
	}
	_ = spread // spread may legitimately be zero on an uncontended cell
}

// TestServeFormationOrders: four requests queued at once leave the
// queue in each discipline's order (priority by class, FCFS within one;
// sjf by length; fcfs by arrival), whether one tick takes them all or
// each tick takes one and the rest wait for the next.
func TestServeFormationOrders(t *testing.T) {
	timeline := []serve.Request{
		{Class: "lo", Tokens: 100},
		{Class: "hi", Tokens: 300},
		{Class: "lo", Tokens: 50},
		{Class: "hi", Tokens: 200},
	}
	for form, want := range map[string][]int{ // tokens, in serving order
		"priority": {300, 200, 100, 50},
		"sjf":      {50, 100, 200, 300},
		"fcfs":     {100, 300, 50, 200},
	} {
		for _, budget := range []int{1000, 1} {
			sv := &serveState{
				spec:     &serve.Spec{Formation: form},
				timeline: timeline,
				homes:    map[int]int{},
				stats: map[string]*classAgg{
					"hi": {cls: serve.SLOClass{Name: "hi", Priority: 2}},
					"lo": {cls: serve.SLOClass{Name: "lo", Priority: 1}},
				},
			}
			var got []int
			for it := 0; !sv.drained(); it++ {
				sv.form(nil, it, 1, budget)
				for _, r := range sv.served {
					got = append(got, r.Tokens)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s order at budget %d = %v, want %v", form, budget, got, want)
			}
		}
	}
}

// TestServeFormationMatchesReference drives the formation queue and the
// sort-based reference it replaced (refServe) tick by tick, under every
// formation and routing objective, over generated timelines at six
// seeds and one recorded trace with tied arrivals. Every tick must form
// the same batch and record, serve the same requests in the same order,
// and trace the same route decisions.
func TestServeFormationMatchesReference(t *testing.T) {
	const text = "clients=4,arrival=gamma:cv=2.0,rate=20@0-2s;200@2-3s;20@3-6s," +
		"slo=interactive:p99=2s:prio=2;batch:p99=8s:prio=1;bulk:p99=30s:prio=1,sessions=3,prefix=0.6"
	base, err := serve.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := base.Timeline(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recorded {
		// Quarter-second arrivals tie many requests on arrival time.
		recorded[i].T = math.Floor(4*recorded[i].T) / 4
	}
	replayed := base
	replayed.Trace = recorded
	trace, err := replayed.Timeline(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, form := range serve.Formations {
		for _, route := range []string{"balance", "affinity"} {
			spec := base
			spec.Formation, spec.Route = form, route
			for seed := int64(1); seed <= 6; seed++ {
				timeline, err := spec.Timeline(rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				// Odd seeds run a cell whose budget some requests exceed.
				world, budget := 4, 4*4096
				if seed%2 == 1 {
					world, budget = 2, 2*1024
				}
				checkFormation(t, fmt.Sprintf("%s/%s/seed=%d", form, route, seed), &spec, timeline, world, budget)
			}
			checkFormation(t, fmt.Sprintf("%s/%s/trace", form, route), &spec, trace, 4, 4*2048)
		}
	}
}

// checkFormation runs one timeline through serveState.form and
// refServe.form until both drain, closing each tick with the same
// synthetic iteration time.
func checkFormation(t *testing.T, name string, spec *serve.Spec, timeline []serve.Request, world, budget int) {
	t.Helper()
	sv := &serveState{spec: spec, timeline: timeline, homes: map[int]int{}, stats: map[string]*classAgg{}}
	ref := &refServe{spec: spec, timeline: timeline, homes: map[int]int{}, prio: map[string]int{}}
	for _, cls := range spec.Classes {
		sv.stats[cls.Name] = &classAgg{cls: cls}
		ref.prio[cls.Name] = cls.Priority
	}
	var got, want decision.Trace
	it := 0
	for ; !ref.drained(); it++ {
		if sv.drained() {
			t.Fatalf("%s: queue drained before tick %d, reference did not", name, it)
		}
		batch, rec := sv.form(&got, it, world, budget)
		wantBatch, wantRec := ref.form(&want, it, world, budget)
		if !reflect.DeepEqual(batch, wantBatch) {
			t.Fatalf("%s tick %d: batch %v, want %v", name, it, batch, wantBatch)
		}
		if !reflect.DeepEqual(rec, wantRec) {
			t.Fatalf("%s tick %d: record %+v, want %+v", name, it, rec, wantRec)
		}
		if !reflect.DeepEqual(sv.served, ref.served) {
			t.Fatalf("%s tick %d: served %v, want %v", name, it, sv.served, ref.served)
		}
		if !reflect.DeepEqual(got.Records(), want.Records()) {
			t.Fatalf("%s tick %d: route decisions differ", name, it)
		}
		got.Reset()
		want.Reset()
		iterTime := 0.01 + 2e-6*float64(rec.Tokens)
		sv.complete(iterTime)
		ref.clock += iterTime
	}
	if !sv.drained() {
		t.Fatalf("%s: reference drained after %d ticks, queue did not", name, it)
	}
}

// refServe is batch formation as it stood before the serve queue kept
// formation order across ticks: every tick re-sorts the whole backlog
// (formationOrder), takes requests in that order while the budget
// lasts, then filters the served ones out, and the route record scans
// the loads again for the least-loaded rank. Its code is kept as it was
// as the written specification of "the same batches", as internal/sim
// keeps refEngine.
type refServe struct {
	spec     *serve.Spec
	timeline []serve.Request
	cursor   int
	pending  []serve.Request
	clock    float64
	homes    map[int]int
	prio     map[string]int
	served   []serve.Request
}

func (sv *refServe) drained() bool {
	return sv.cursor >= len(sv.timeline) && len(sv.pending) == 0
}

func (sv *refServe) form(tr *decision.Trace, it, world, budget int) ([]seq.Sequence, IterRecord) {
	if len(sv.pending) == 0 && sv.cursor < len(sv.timeline) {
		if t := sv.timeline[sv.cursor].T; t > sv.clock {
			sv.clock = t
		}
	}
	for sv.cursor < len(sv.timeline) && sv.timeline[sv.cursor].T <= sv.clock {
		sv.pending = append(sv.pending, sv.timeline[sv.cursor])
		sv.cursor++
	}

	order := sv.formationOrder()
	load := make([]float64, world)
	var batch []seq.Sequence
	var rec IterRecord
	var served []serve.Request
	taken := make([]bool, len(sv.pending))
	total := 0
	for _, idx := range order {
		req := sv.pending[idx]
		rank, eff, homeHit := sv.route(req, load, world)
		if total+eff > budget {
			if len(served) > 0 {
				break
			}
			eff = budget
		}
		if tr != nil {
			sv.recordRoute(tr, it, req, load, homeHit, world)
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
		taken[idx] = true
		total += eff
	}
	sv.served = served
	rest := sv.pending[:0]
	for i, r := range sv.pending {
		if !taken[i] {
			rest = append(rest, r)
			rec.Queued += r.Tokens
		}
	}
	sv.pending = rest
	return batch, rec
}

func (sv *refServe) route(req serve.Request, load []float64, world int) (rank, eff int, homeHit bool) {
	best := 0
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
				return home, effHome, true
			}
		} else if home == best {
			return home, effHome, true
		}
	}
	return best, effFull, false
}

func (sv *refServe) recordRoute(tr *decision.Trace, it int, req serve.Request, load []float64, homeHit bool, world int) {
	home, hasHome := sv.homes[req.Session]
	if !hasHome || home >= world {
		return
	}
	best := 0
	for r := 1; r < world; r++ {
		if load[r] < load[best] {
			best = r
		}
	}
	chosen := "spread"
	if homeHit {
		chosen = "affinity"
	}
	tr.Add(decision.Record{
		Iter: it, Kind: decision.KindRoute, Chosen: chosen,
		Alternatives: []decision.Alternative{
			{Choice: "affinity", Score: load[home] + float64(effectiveLen(req.Tokens-req.Prefix)), Chosen: homeHit},
			{Choice: "spread", Score: load[best] + float64(effectiveLen(req.Tokens)), Chosen: !homeHit},
		},
	})
}

func (sv *refServe) formationOrder() []int {
	pending := sv.pending
	order := make([]int, len(pending))
	for i := range order {
		order[i] = i
	}
	switch sv.spec.Formation {
	case "priority":
		sort.SliceStable(order, func(a, b int) bool {
			return sv.prio[pending[order[a]].Class] > sv.prio[pending[order[b]].Class]
		})
	case "sjf":
		sort.SliceStable(order, func(a, b int) bool {
			return pending[order[a]].Tokens < pending[order[b]].Tokens
		})
	}
	return order
}

// TestServeValidation: Config.Validate is the one place that decides
// which campaign modes combine. Each of the seven rejected combinations
// (serve with an arrival, a policy, a replan cost, a fault schedule, an
// autoscaler or a flip; a fault schedule with an autoscaler) and each
// malformed serve input fails Start as a validation error naming it.
func TestServeValidation(t *testing.T) {
	serveWith := func(mut func(*Config)) Config {
		cfg := serveConfig(1, "balance")
		mut(&cfg)
		return cfg
	}
	worldOwners := Config{Trainer: testCell(1), Method: zeppelin.Full(), Iters: 5,
		Faults: &faults.Schedule{}, Autoscaler: &Autoscaler{}}

	for _, tc := range []struct {
		name   string
		cfg    Config
		substr string
	}{
		{"arrival+serve", serveWith(func(c *Config) { c.Arrival = Steady{D: workload.ArXiv} }), "arrival"},
		{"policy+serve", serveWith(func(c *Config) { c.Policy = Always{} }), "policy"},
		{"replan-cost+serve", serveWith(func(c *Config) { c.ReplanCost = 5 }), "replan cost"},
		{"faults+serve", serveWith(func(c *Config) {
			c.Faults = &faults.Schedule{Stragglers: []faults.Straggler{{Rank: 1, Factor: 2, From: 0, To: 3}}}
		}), "fault schedules"},
		{"autoscaler+serve", serveWith(func(c *Config) { c.Autoscaler = &Autoscaler{MinNodes: 1, MaxNodes: 1} }), "autoscaling"},
		{"flip+serve", serveWith(func(c *Config) { c.Flip = &Flip{Iter: 1, Decision: "replan"} }), "flips"},
		{"faults+autoscaler", worldOwners, "mutually exclusive"},
		{"bad spec", serveWith(func(c *Config) { c.Serve = &ServeConfig{Spec: serve.Spec{Clients: -1}} }), "clients"},
		{"unknown trace class", serveWith(func(c *Config) {
			c.Serve.Spec.Trace = []serve.Request{{T: 0, Tokens: 64, Class: "nope"}}
		}), "nope"},
	} {
		_, err := Start(context.Background(), tc.cfg)
		if err == nil {
			t.Errorf("%s: Start succeeded, want validation error", tc.name)
			continue
		}
		if !IsValidation(err) {
			t.Errorf("%s: error not validation-classified: %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.substr)
		}
	}
}

func TestValidationClassification(t *testing.T) {
	// Satellite: bad campaign inputs must be distinguishable from
	// internal failures so the HTTP layer can answer 400.
	bad := Config{Trainer: testCell(1), Method: zeppelin.Full(), Iters: 5,
		Arrival: Replay{Trace: "broken", Batches: nil}}
	if err := bad.Validate(); err == nil || !IsValidation(err) {
		t.Fatalf("empty replay trace: err = %v, want validation error", err)
	}

	nan := Config{Trainer: testCell(1), Method: zeppelin.Full(), Iters: 5,
		Arrival: Steady{D: workload.Dataset{Name: "corrupt",
			Probs: []float64{math.NaN(), 0.9, 0.1, 0, 0, 0, 0, 0, 0}}}}
	if err := nan.Validate(); err == nil || !IsValidation(err) {
		t.Fatalf("NaN dataset: err = %v, want validation error", err)
	}

	neg := Config{Trainer: testCell(1), Method: zeppelin.Full(), Iters: 5,
		ReplanCost: -1}
	if err := neg.Validate(); err == nil || !IsValidation(err) {
		t.Fatalf("negative replan cost: err = %v, want validation error", err)
	}
}

// TestServeDrainsEarly: a serve campaign ends when its timeline drains,
// and its report holds memory for the ticks that ran, not the horizon.
func TestServeDrainsEarly(t *testing.T) {
	cfg := serveConfig(1, "balance")
	cfg.Iters = 100000
	rep := runCampaign(t, cfg)
	if len(rep.Records) >= cfg.Iters {
		t.Fatal("serve campaign did not end when the timeline drained")
	}
	if c := cap(rep.Records); c >= cfg.Iters/10 {
		t.Fatalf("report reserved %d records for %d ticks run", c, len(rep.Records))
	}
}

func TestServeHorizonCutoff(t *testing.T) {
	cfg := serveConfig(1, "balance")
	cfg.Iters = 3
	rep := runCampaign(t, cfg)
	if len(rep.Records) != 3 {
		t.Fatalf("%d records, want the 3-tick horizon", len(rep.Records))
	}
	if rep.Summary.Unserved == 0 {
		t.Fatal("cut-off stream reports no unserved requests")
	}
}

func TestServeDeadlinesBindViolations(t *testing.T) {
	// A spec with microsecond deadlines must violate on every request;
	// generous deadlines on the same stream must not.
	strict, err := serve.Parse("clients=2,rate=20@0-4s,slo=tight:p99=1us")
	if err != nil {
		t.Fatal(err)
	}
	loose := strict
	loose.Classes = []serve.SLOClass{{Name: "tight", P99Sec: 3600, Priority: 0}}
	for _, tc := range []struct {
		spec     serve.Spec
		wantAll  bool
		wantNone bool
	}{{strict, true, false}, {loose, false, true}} {
		rep := runCampaign(t, Config{
			Trainer: testCell(1), Method: zeppelin.Full(), Iters: 500,
			Serve: &ServeConfig{Spec: tc.spec},
		})
		cm := rep.Classes[0]
		if tc.wantAll && cm.Violations != cm.Requests {
			t.Fatalf("tight deadline: %d/%d violations", cm.Violations, cm.Requests)
		}
		if tc.wantNone && cm.Violations != 0 {
			t.Fatalf("loose deadline: %d violations", cm.Violations)
		}
	}
}
