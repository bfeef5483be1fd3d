package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"zeppelin/internal/baselines"
	"zeppelin/internal/campaign"
	"zeppelin/internal/cluster"
	"zeppelin/internal/decision"
	"zeppelin/internal/faults"
	"zeppelin/internal/model"
	"zeppelin/internal/partition"
	"zeppelin/internal/remap"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/workload/serve"
	zep "zeppelin/internal/zeppelin"
	"zeppelin/pkg/zeppelin"
)

// The traced run resolves each request to the internal objects the
// public API resolves it to, and drives them with a decorated method.
// The transparency tests pin that these resolvers match pkg/zeppelin:
// traced outputs are byte-identical to the public ones.

// replayCell resolves a plan request the way zeppelin.Planner does with
// a plan cache: a call-owned exact-mode incremental planner for
// Zeppelin, the stateless baselines otherwise.
func replayCell(req zeppelin.PlanRequest, shared *partition.SharedCache) (trainer.Config, workload.Dataset, trainer.Method, error) {
	mc, err := model.ByName(req.Model)
	if err != nil {
		return trainer.Config{}, workload.Dataset{}, nil, err
	}
	spec, err := cluster.ByName(req.Cluster.Preset)
	if err != nil {
		return trainer.Config{}, workload.Dataset{}, nil, err
	}
	d, err := workload.ByName(req.Dataset)
	if err != nil {
		return trainer.Config{}, workload.Dataset{}, nil, err
	}
	var m trainer.Method
	switch req.Method {
	case "tecp":
		m = baselines.TECP{}
	case "llamacp":
		m = baselines.LLaMACP{}
	case "hybriddp":
		m = baselines.HybridDP{}
	case "zeppelin":
		m = zep.NewIncremental(zep.Full(), partition.IncrementalConfig{Shared: shared})
	default:
		return trainer.Config{}, workload.Dataset{}, nil, fmt.Errorf("unknown method %q", req.Method)
	}
	cfg := trainer.Config{
		Model: mc, Spec: spec, Nodes: req.Cluster.Nodes, TP: req.Cluster.TP,
		TokensPerGPU: req.Cluster.TokensPerGPU, Seed: req.Seed,
	}
	return cfg, d, m, cfg.Validate()
}

// campaignCell is the 7B/16-GPU Cluster A cell both campaign workloads
// run on (the zero ClusterSpec).
func campaignCell(seed int64) trainer.Config {
	return trainer.Config{Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 2, TP: 1, TokensPerGPU: 4096, Seed: seed}
}

// driftConfig resolves driftRequest(seed) with the shared plan tier.
func driftConfig(seed int64, shared *partition.SharedCache) (campaign.Config, error) {
	tcfg := campaignCell(seed)
	var path []workload.Dataset
	for _, name := range driftRequest(seed).Workload.DriftPath {
		d, err := workload.ByName(name)
		if err != nil {
			return campaign.Config{}, err
		}
		path = append(path, d)
	}
	arr, err := campaign.ArrivalByName("drift", workload.Dataset{}, path, driftIters, tcfg.TotalTokens())
	if err != nil {
		return campaign.Config{}, err
	}
	pol, err := campaign.PolicyByName("threshold", 0, 10)
	if err != nil {
		return campaign.Config{}, err
	}
	sched, err := faults.ByName("none", driftIters, tcfg.Nodes, tcfg.EffectiveSpec().GPUsPerNode)
	if err != nil {
		return campaign.Config{}, err
	}
	return campaign.Config{
		Trainer:   tcfg,
		Method:    zep.NewIncremental(zep.Full(), partition.IncrementalConfig{Shared: shared}),
		Iters:     driftIters,
		Arrival:   arr,
		Policy:    pol,
		Faults:    sched,
		Decisions: &decision.Trace{},
	}, nil
}

// serveConfig resolves serveRequest(seed) with the shared plan tier.
func serveConfig(seed int64, shared *partition.SharedCache) (campaign.Config, error) {
	spec, err := serve.Parse(serveSpecText)
	if err != nil {
		return campaign.Config{}, err
	}
	return campaign.Config{
		Trainer:   campaignCell(seed),
		Method:    zep.NewIncremental(zep.Full(), partition.IncrementalConfig{Shared: shared}),
		Iters:     serveIters,
		Serve:     &campaign.ServeConfig{Spec: spec},
		Decisions: &decision.Trace{},
	}, nil
}

// tracedArrival records a span around each batch the arrival process
// samples. Validate is forwarded with the inner process's answer.
type tracedArrival struct {
	inner campaign.Arrival
	tr    *tracer
}

func (a tracedArrival) Name() string { return a.inner.Name() }

func (a tracedArrival) Validate() error {
	if v, ok := a.inner.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

func (a tracedArrival) Batch(iter, baseTokens int, rng *rand.Rand) []seq.Sequence {
	a.tr.mark(mBatchStart)
	b := a.inner.Batch(iter, baseTokens, rng)
	a.tr.mark(mBatchEnd)
	return b
}

// totals accumulates the traced run.
type totals struct {
	ops   int
	opCPU int64 // Σ traced op CPU, ns
	spans opSpans
	marks int

	zepPlans, basePlans    int
	seqs, tasks            int
	ringSeqs, localSeqs    int
	transfers, interTokens int
	hostModeled            float64 // s, over Zeppelin placements
	overL                  overCapacity
	counters               partition.Counters

	partCalls, remapCalls, envCalls int
	partNS, remapNS, envNS          int64
	partAllocs, remapAllocs         uint64
	timelineCalls                   int
	timelineNS                      int64

	campaigns, events, replanned int
	queued, servedSeqs, affinity int
	decisions                    int
}

// timeCall measures one call in process CPU with exact allocation
// counts (ReadMemStats flushes every per-P cache).
func timeCall(f func() error) (int64, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuNow()
	err := f()
	c1 := cpuNow()
	runtime.ReadMemStats(&m1)
	return c1 - c0, m1.Mallocs - m0.Mallocs, err
}

// afterOp reads the plan facts of an op's Method.Plan calls and re-times
// the partition solve, the remap solve and (for campaigns, where the
// environment is built inside trainer.Run) NewEnv on the same inputs as
// separate calls.
func (t *totals) afterOp(calls []planCall, envCfg *trainer.Config) error {
	for _, c := range calls {
		t.seqs += len(c.batch)
		t.tasks += c.tasks
		if envCfg != nil {
			ns, _, err := timeCall(func() error { _, err := envCfg.NewEnv(); return err })
			if err != nil {
				return err
			}
			t.envCalls++
			t.envNS += ns
		}
		if !c.zep {
			t.basePlans++
			continue
		}
		t.zepPlans++
		t.ringSeqs += len(c.plan.Rings)
		for _, ls := range c.plan.Local {
			t.localSeqs += len(ls)
		}
		tpr := c.plan.TokensPerRank()
		t.overL.note(tpr, c.capacity)
		if c.remap != nil {
			t.transfers += len(c.remap.Transfers)
			t.interTokens += c.remap.InterTokens
		}
		t.hostModeled += c.host

		part, err := partition.New(partition.Config{Cluster: c.cluster, CapacityTokens: c.capacity})
		if err != nil {
			return err
		}
		ns, allocs, err := timeCall(func() error { _, err := part.Plan(c.batch); return err })
		if err != nil {
			return err
		}
		t.partCalls++
		t.partNS += ns
		t.partAllocs += allocs

		ns, allocs, err = timeCall(func() error {
			_, err := remap.SolveTarget(tpr, nil, c.cluster, c.actBytes/c.cluster.IntraBandwidth, c.actBytes/c.cluster.NICBandwidth)
			return err
		})
		if err != nil {
			return err
		}
		t.remapCalls++
		t.remapNS += ns
		t.remapAllocs += allocs
	}
	return nil
}

// addSpans folds a tracer's marks into the totals. Intervals that start
// at an op end lie between ops and are not op time.
func (t *totals) addSpans(tr *tracer, serve, replay bool) {
	s := tr.fold(serve, replay)
	for l := layer(0); l < numLayers; l++ {
		t.spans.cpu[l] += s.cpu[l]
		t.spans.allocs[l] += s.allocs[l]
		t.opCPU += s.cpu[l]
	}
	t.marks += len(tr.marks)
}

// markCost calibrates the CPU cost of one mark, in ns.
func markCost() float64 {
	tr := newTracer()
	var costs []float64
	for rep := 0; rep < 5; rep++ {
		tr.reset()
		c0 := cpuNow()
		for i := 0; i < 4096; i++ {
			tr.mark(mOpStart)
		}
		costs = append(costs, float64(cpuNow()-c0)/4096)
	}
	return median(costs)
}

// runTraced runs each unit of the op list untraced through the public
// API and then traced through the internal objects, checks the traced
// outputs are byte-identical to the public ones, and reports the
// per-layer metrics.
func runTraced(ctx context.Context, a *api, wl string, units []int64) (*result, error) {
	var u opTimer
	var o outcome
	var t totals
	var rt runtimeStats // runtime counter deltas over the untraced units
	cost := markCost()
	tr := newTracer()
	shared := partition.NewSharedCache(partition.DefaultSharedCap)
	cache0 := a.cache.Stats()
	start := time.Now()
	// Each unit runs untraced through the public API first, then traced,
	// so a slow drift in host speed hits both sides alike.
	for i := range units {
		unit := units[i : i+1]
		r0 := readRuntime()
		kept := runOps(ctx, a, wl, unit, &u, &o, true)
		r1 := readRuntime()
		rt.allocs += r1.allocs - r0.allocs
		rt.bytes += r1.bytes - r0.bytes
		rt.gcCycles += r1.gcCycles - r0.gcCycles
		rt.gcCPU += r1.gcCPU - r0.gcCPU
		var err error
		switch wl {
		case planFig8:
			err = tracePlans(ctx, tr, shared, unit, kept, &t, &o)
		case campaignDrift, serveBurst:
			err = traceCampaigns(ctx, a, tr, shared, wl, unit, kept, &t, &o)
		}
		if err != nil {
			return nil, err
		}
	}
	cache1 := a.cache.Stats()
	var uCPU float64 // ms
	for _, ms := range u.cpuMS {
		uCPU += ms
	}
	fmt.Printf("traced: %d ops in %.1fs wall, %d marks at %.0f ns each\n", t.ops, time.Since(start).Seconds(), t.marks, cost)
	for _, f := range o.failures {
		fmt.Println("FAIL:", f)
	}

	n := float64(len(u.cpuMS))
	msPerOp := func(l layer) float64 { return float64(t.spans.cpu[l]) / 1e6 / n }
	perOp := func(v float64) float64 { return v / n }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	bookkeeping := float64(t.marks) * cost / 1e6 // ms
	tCPU := float64(t.opCPU) / 1e6               // ms
	var covered int64
	for l := lSample; l < numLayers; l++ {
		covered += t.spans.cpu[l]
	}
	envMS := float64(t.envNS) / 1e6
	campaignMS := float64(t.spans.cpu[lCampaign])/1e6 - envMS
	if wl == planFig8 {
		envMS = float64(t.spans.cpu[lEnv]) / 1e6
	}
	zepPlanMS := float64(t.spans.cpu[lZepPlan]) / 1e6
	c := t.counters
	plans := float64(c.Plans())
	hits := float64(cache1.Hits - cache0.Hits)
	probes := hits + float64(cache1.Misses-cache0.Misses)
	procCPU := uCPU / 1e3

	m := map[string]metric{
		"pkgzeppelin.self_ms_per_op":                     {(uCPU - tCPU + bookkeeping) / n, "ms"},
		"workload.sample_ms_per_op":                      {msPerOp(lSample), "ms"},
		"workload.timeline_ms_per_campaign":              {frac(float64(t.timelineNS)/1e6, float64(t.timelineCalls)), "ms"},
		"workload.seqs_per_op":                           {perOp(float64(t.seqs)), "count"},
		"trainer.env_ms_per_op":                          {envMS / n, "ms"},
		"trainer.linear_emit_ms_per_op":                  {msPerOp(lLinear), "ms"},
		"trainer.phases_ms_per_op":                       {msPerOp(lPhases), "ms"},
		"zeppelin.plan_ms_per_op":                        {zepPlanMS / n, "ms"},
		"baselines.plan_ms_per_op":                       {msPerOp(lBasePlan), "ms"},
		"zeppelin.host_overhead_modeled_ms":              {frac(t.hostModeled*1e3, float64(t.zepPlans)), "ms"},
		"zeppelin.host_overhead_modeled_over_measured_x": {frac(t.hostModeled*1e3, zepPlanMS), "x"},
		"partition.plan_ms_per_call":                     {frac(float64(t.partNS)/1e6, float64(t.partCalls)), "ms"},
		"partition.allocs_per_call":                      {frac(float64(t.partAllocs), float64(t.partCalls)), "count"},
		"partition.ring_seqs_per_op":                     {perOp(float64(t.ringSeqs)), "count"},
		"partition.local_seqs_per_op":                    {perOp(float64(t.localSeqs)), "count"},
		"partition.full_frac":                            {frac(float64(c.Full), plans), "ratio"},
		"partition.cached_frac":                          {frac(float64(c.Cached), plans), "ratio"},
		"partition.patched_frac":                         {frac(float64(c.Patched), plans), "ratio"},
		"partition.shared_frac":                          {frac(float64(c.Shared), plans), "ratio"},
		"partition.over_capacity_frac":                   {frac(float64(t.overL.over), float64(t.overL.plans)), "ratio"},
		"plancache.hit_frac":                             {frac(hits, probes), "ratio"},
		"remap.solve_ms_per_call":                        {frac(float64(t.remapNS)/1e6, float64(t.remapCalls)), "ms"},
		"remap.allocs_per_call":                          {frac(float64(t.remapAllocs), float64(t.remapCalls)), "count"},
		"remap.emit_ms_per_op":                           {msPerOp(lRemap), "ms"},
		"remap.transfers_per_op":                         {perOp(float64(t.transfers)), "count"},
		"remap.inter_tokens_per_op":                      {perOp(float64(t.interTokens)), "count"},
		"attention.emit_ms_per_op":                       {msPerOp(lAttn), "ms"},
		"attention.allocs_per_op":                        {perOp(float64(t.spans.allocs[lAttn])), "count"},
		"attention.op_frac":                              {frac(float64(t.spans.cpu[lAttn]), float64(t.opCPU)), "ratio"},
		"sim.run_ms_per_op":                              {msPerOp(lSim), "ms"},
		"sim.tasks_per_op":                               {perOp(float64(t.tasks)), "count"},
		"sim.ns_per_task":                                {frac(float64(t.spans.cpu[lSim]), float64(t.tasks)), "ns"},
		"sim.allocs_per_op":                              {perOp(float64(t.spans.allocs[lSim])), "count"},
		"sim.op_frac":                                    {frac(float64(t.spans.cpu[lSim]), float64(t.opCPU)), "ratio"},
		"campaign.self_ms_per_op":                        {campaignMS / n, "ms"},
		"campaign.self_op_frac":                          {frac(campaignMS, tCPU), "ratio"},
		"campaign.replan_frac":                           {frac(float64(t.replanned), float64(t.events)), "ratio"},
		"campaign.ticks_per_campaign":                    {frac(float64(t.events), float64(t.campaigns)), "count"},
		"campaign.queued_tokens_mean":                    {frac(float64(t.queued), float64(t.events)), "tokens"},
		"campaign.reqs_per_tick":                         {frac(float64(t.servedSeqs), float64(t.events)), "count"},
		"campaign.affinity_hit_frac":                     {frac(float64(t.affinity), float64(t.servedSeqs)), "ratio"},
		"decision.records_per_op":                        {perOp(float64(t.decisions)), "count"},
		"runtime.alloc_mb_per_op":                        {perOp(float64(rt.bytes) / (1 << 20)), "MB"},
		"runtime.allocs_per_op":                          {perOp(float64(rt.allocs)), "count"},
		"runtime.gc_cycles_per_op":                       {perOp(float64(rt.gcCycles)), "count"},
		"runtime.gc_cpu_frac":                            {frac(rt.gcCPU, procCPU), "ratio"},
		"trace.coverage_frac":                            {frac(float64(covered), float64(t.opCPU)), "ratio"},
		"trace.overhead_frac":                            {frac(bookkeeping, tCPU), "ratio"},
		"trace.gap_frac":                                 {frac(tCPU-uCPU, uCPU), "ratio"},
	}
	printMetrics(m)
	printSplit(wl, m)
	return &result{Correct: o.failed == 0, Attempted: t.ops, Failed: o.failed, Metrics: m}, nil
}

// printSplit states whether the trace confirms the split each workload
// was chosen for.
func printSplit(wl string, m map[string]metric) {
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "NOT MET"
	}
	cov := m["trace.coverage_frac"].Value
	fmt.Printf("split: spans cover %.1f%% of traced op time (want >= 90%%): %s\n", 100*cov, verdict(cov >= 0.9))
	switch wl {
	case planFig8, campaignDrift:
		v := m["attention.op_frac"].Value + m["sim.op_frac"].Value
		fmt.Printf("split: attention + sim = %.1f%% of op time (want >= 80%%): %s\n", 100*v, verdict(v >= 0.8))
	case serveBurst:
		v := m["campaign.self_op_frac"].Value
		fmt.Printf("split: campaign self = %.1f%% of op time (want >= 20%%): %s\n", 100*v, verdict(v >= 0.2))
	}
}

// tracePlans replays every plan request of the op list through the
// decorated method, next to the stored public response.
func tracePlans(ctx context.Context, tr *tracer, shared *partition.SharedCache, units []int64, kept [][][]byte, t *totals, o *outcome) error {
	for i, s := range units {
		for j, req := range fig8Pass(s) {
			if err := ctx.Err(); err != nil {
				return err
			}
			resp, inner, err := replayPlan(tr, shared, req)
			t.ops++
			if err != nil {
				o.fail("replay %s/%s/%s seed %d: %v", req.Model, req.Dataset, req.Method, req.Seed, err)
				continue
			}
			t.addSpans(tr, false, true)
			if err := t.afterOp(tr.calls, nil); err != nil {
				return err
			}
			if rep, ok := inner.(reporter); ok {
				t.counters = addCounters(t.counters, rep.PlannerCounters())
			}
			got, _ := json.Marshal(resp)
			// A nil output is a public op that already failed.
			if kept[i][j] != nil && !bytes.Equal(got, kept[i][j]) {
				o.fail("replay %s/%s/%s seed %d differs from the public response", req.Model, req.Dataset, req.Method, req.Seed)
			}
		}
	}
	return nil
}

// replayPlan is one traced plan-fig8 op: the request replayed as
// Config.Batch, NewEnv, the decorated Method.Plan and RunPlanned. It
// returns the response the public planner would build and the
// undecorated method.
func replayPlan(tr *tracer, shared *partition.SharedCache, req zeppelin.PlanRequest) (*zeppelin.PlanResponse, trainer.Method, error) {
	cfg, d, inner, err := replayCell(req, shared)
	if err != nil {
		return nil, nil, err
	}
	m, err := decorate(inner, tr, req.Method == "zeppelin")
	if err != nil {
		return nil, nil, err
	}
	tr.reset()
	tr.mark(mOpStart)
	tr.mark(mBatchStart)
	batch := cfg.Batch(d.Batch)
	tr.mark(mBatchEnd)
	tr.mark(mEnvStart)
	env, err := cfg.NewEnv()
	tr.mark(mEnvEnd)
	var pl trainer.Placement
	if err == nil {
		pl, err = m.Plan(env, batch)
	}
	var res *trainer.Result
	if err == nil {
		tr.mark(mRunStart)
		res, err = trainer.RunPlanned(cfg, m.Name(), env, pl, batch)
		tr.mark(mRunEnd)
	}
	tr.mark(mOpEnd)
	if err != nil {
		return nil, nil, err
	}
	return replayResponse(m.Name(), env, pl, batch, res), inner, nil
}

// replayResponse builds the public response fields from a replayed plan
// the way zeppelin.Planner does.
func replayResponse(name string, env *trainer.Env, pl trainer.Placement, batch []seq.Sequence, res *trainer.Result) *zeppelin.PlanResponse {
	r := &zeppelin.PlanResponse{Method: name, World: env.C.World(), Seqs: len(batch), Tokens: seq.TotalLen(batch)}
	if pc, ok := pl.(planCarrier); ok {
		plan := pc.Plan()
		r.TokensPerRank = plan.TokensPerRank()
		r.Imbalance = partition.LoadImbalance(plan, nil)
		for _, ls := range plan.Local {
			r.LocalSeqs += len(ls)
		}
		r.RingSeqs = len(plan.Rings)
	}
	if rc, ok := pl.(remapCarrier); ok {
		if rp := rc.RemapPlan(); rp != nil {
			r.RemapTransfers = len(rp.Transfers)
			r.RemapInterTokens = rp.InterTokens
		}
	}
	r.IterTimeSec = res.IterTime
	r.TokensPerSec = res.TokensPerSec
	r.HostOverheadSec = res.HostOverhead
	return r
}

func addCounters(a, b partition.Counters) partition.Counters {
	a.Full += b.Full
	a.Patched += b.Patched
	a.Cached += b.Cached
	a.Shared += b.Shared
	return a
}

// traceCampaigns reruns every campaign of the op list through the
// internal campaign engine with a decorated method and arrival process.
// A campaign-drift op is one campaign; a serve-burst op is one event,
// with campaign.Start in the first and the stream's final fold in the
// last.
func traceCampaigns(ctx context.Context, a *api, tr *tracer, shared *partition.SharedCache, wl string, units []int64, kept [][][]byte, t *totals, o *outcome) error {
	isServe := wl == serveBurst
	for i, s := range units {
		var cfg campaign.Config
		var err error
		if isServe {
			cfg, err = serveConfig(s, shared)
		} else {
			cfg, err = driftConfig(s, shared)
		}
		if err != nil {
			return err
		}
		inner := cfg.Method
		if cfg.Method, err = decorate(inner, tr, true); err != nil {
			return err
		}
		if cfg.Arrival != nil {
			cfg.Arrival = tracedArrival{inner: cfg.Arrival, tr: tr}
		}
		if isServe {
			// The public timeline, timed as a separate call.
			ns, _, err := timeCall(func() error {
				_, err := zeppelin.GenerateServeTimeline(a.serve, s)
				return err
			})
			if err != nil {
				return err
			}
			t.timelineCalls++
			t.timelineNS += ns
		}

		rep, err := traceCampaign(ctx, tr, cfg)
		if err != nil {
			return err
		}
		recs := rep.Records
		t.addSpans(tr, isServe, false)
		if isServe {
			t.ops += len(recs)
		} else {
			t.ops++
		}
		if err := t.afterOp(tr.calls, &cfg.Trainer); err != nil {
			return err
		}
		if rep, ok := inner.(reporter); ok {
			t.counters = addCounters(t.counters, rep.PlannerCounters())
		}
		t.campaigns++
		for _, r := range recs {
			t.events++
			if r.Replanned {
				t.replanned++
			}
			t.queued += r.Queued
			t.servedSeqs += r.Seqs
			t.affinity += r.AffinityHits
		}
		t.decisions += len(cfg.Decisions.Records())

		got, err := wireReport(rep)
		if err != nil {
			return err
		}
		if kept[i][0] != nil && !bytes.Equal(got, kept[i][0]) {
			o.fail("traced %s campaign seed %d differs from the public report", wl, s)
		}
	}
	return nil
}

// traceCampaign drains one campaign whose method and arrival are
// already decorated with tr. A training campaign is one op; a serving
// campaign is one op per event, with the stream's terminal Next in the
// last op as in the untraced run.
func traceCampaign(ctx context.Context, tr *tracer, cfg campaign.Config) (*campaign.Report, error) {
	tr.reset()
	tr.mark(mOpStart)
	tr.mark(mStartStart)
	st, err := campaign.Start(ctx, cfg)
	tr.mark(mStartEnd)
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		if cfg.Serve != nil {
			tr.mark(mOpEnd)
			tr.mark(mOpStart)
		}
	}
	tr.mark(mOpEnd)
	if err := st.Err(); err != nil {
		return nil, err
	}
	return st.Report(), nil
}

// wireReport converts an internal campaign report to the JSON of its
// public form. The wire types mirror the internal ones field for field.
func wireReport(rep *campaign.Report) ([]byte, error) {
	var out zeppelin.CampaignReport
	if err := roundTrip(rep.Summary, &out.Summary); err != nil {
		return nil, err
	}
	out.PerRankUtil = rep.PerRankUtil
	if err := roundTrip(rep.Classes, &out.Classes); err != nil {
		return nil, err
	}
	out.Events = []zeppelin.CampaignEvent{}
	if err := roundTrip(rep.Records, &out.Events); err != nil {
		return nil, err
	}
	return json.Marshal(&out)
}

func roundTrip(in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}
