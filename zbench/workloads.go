package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"zeppelin/pkg/zeppelin"
)

// Workload names, in the order BENCHMARK.json declares them.
const (
	planFig8      = "plan-fig8"
	campaignDrift = "campaign-drift"
	serveBurst    = "serve-burst"
)

var workloadNames = []string{planFig8, campaignDrift, serveBurst}

// fig8Cell is one panel of the paper's Fig. 8 grid: a model on a
// cluster preset at a total context, with the GPU count scaled to keep
// 4k tokens per data-parallel rank.
type fig8Cell struct {
	model  string
	preset string
	tp     int
	ctxK   int
	gpus   int
}

var (
	fig8Cells = []fig8Cell{
		{"7B", "A", 1, 64, 16}, {"7B", "A", 1, 128, 32}, {"7B", "A", 1, 256, 64},
		{"13B", "A", 2, 64, 32}, {"13B", "A", 2, 128, 64}, {"13B", "A", 2, 256, 128},
		{"8x550M", "A", 1, 64, 16}, {"8x550M", "A", 1, 128, 32}, {"8x550M", "A", 1, 256, 64},
		{"30B", "C", 2, 64, 32}, {"30B", "C", 2, 128, 64}, {"30B", "C", 2, 256, 128},
	}
	fig8Datasets = []string{"arxiv", "github", "prolong64k"}
	fig8Methods  = []string{"tecp", "llamacp", "hybriddp", "zeppelin"}
)

// gpusPerNode is the node size of both presets the grid uses (A and C).
const gpusPerNode = 8

// fig8Pass returns the 144 requests of one grid pass, all sampling their
// batch from the same seed so the four methods plan identical batches.
func fig8Pass(seed int64) []zeppelin.PlanRequest {
	out := make([]zeppelin.PlanRequest, 0, len(fig8Cells)*len(fig8Datasets)*len(fig8Methods))
	for _, c := range fig8Cells {
		for _, d := range fig8Datasets {
			for _, m := range fig8Methods {
				out = append(out, zeppelin.PlanRequest{
					Model: c.model,
					Cluster: zeppelin.ClusterSpec{
						Preset: c.preset, Nodes: c.gpus / gpusPerNode, TP: c.tp,
						TokensPerGPU: c.ctxK << 10 / c.gpus,
					},
					Dataset: d,
					Method:  m,
					Seed:    seed,
				})
			}
		}
	}
	return out
}

// Campaign workloads.
const (
	driftIters = zeppelin.DefaultTuneIters
	serveIters = 10000
	// serveSpecText is fig16's scenario widened to 16 clients and a 10×
	// burst, with affinity routing.
	serveSpecText = "clients=16,arrival=gamma:cv=2.0,rate=40@0-20s;400@20-40s;40@40-80s," +
		"slo=interactive:p99=2.5s:prio=2;batch:p99=15s:prio=1," +
		"dataset=stackexchange,sessions=8,prefix=0.6,form=priority,route=affinity"
)

// driftRequest is fig13's drifting stream on the 7B/16-GPU cell under
// Zeppelin and the default threshold policy, cut to the tuner's horizon.
func driftRequest(seed int64) zeppelin.CampaignRequest {
	return zeppelin.CampaignRequest{
		Model:    "7B",
		Workload: zeppelin.WorkloadSpec{Arrival: "drift", DriftPath: []string{"arxiv", "github", "prolong64k"}},
		Method:   "zeppelin",
		Iters:    driftIters,
		Seed:     seed,
	}
}

// serveRequest is one serve-burst campaign.
func serveRequest(spec *zeppelin.ServeSpec, seed int64) zeppelin.CampaignRequest {
	return zeppelin.CampaignRequest{
		Model:  "7B",
		Method: "zeppelin",
		Iters:  serveIters,
		Seed:   seed,
		Serve:  spec,
	}
}

// Seeds. Timed seeds lie in [1, 2^31); the warm-up seed lies above, so
// a warm-up never plans a batch a timed op plans, and it is the same in
// every run.
const warmSeed = int64(1) << 31

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitSeed derives the seed of the i-th unit (grid pass or campaign) of
// a run from the workload seed.
func unitSeed(seed int64, i int) int64 {
	return 1 + int64(splitmix(splitmix(uint64(seed))+uint64(i))%uint64(warmSeed-1))
}

// sizing turns --seconds into a fixed unit count. The count depends only
// on --seconds, never on how fast a run goes, so both sides of a
// comparison execute the same op list. On a 2-vCPU x86-64 VM the timed
// window of a 20-second run takes 17-24 s of wall time.
type sizing struct {
	unitsPerSecond float64
	minUnits       int
}

var sizes = map[string]sizing{
	// A pass is 144 ops (about 1.9 CPU-s), so one pass already holds the
	// 100 ops a p90 needs; more passes steady the p50, which falls
	// between the grid's cost clusters.
	planFig8: {unitsPerSecond: 0.8, minUnits: 1},
	// One op per campaign (about 0.23 CPU-s): p90 needs >= 100.
	campaignDrift: {unitsPerSecond: 4.4, minUnits: 100},
	// About 130 events and 0.21 CPU-s per campaign.
	serveBurst: {unitsPerSecond: 4.7, minUnits: 10},
}

// unitSeeds is the run's op list: one seed per grid pass or campaign.
func unitSeeds(workload string, seed int64, seconds int) []int64 {
	sz := sizes[workload]
	n := int(math.Round(sz.unitsPerSecond * float64(seconds)))
	if n < sz.minUnits {
		n = sz.minUnits
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = unitSeed(seed, i)
	}
	return out
}

// opTimer records per-op process CPU and wall time.
type opTimer struct {
	cpuMS, wallMS []float64
	cpu0          int64
	wall0         time.Time
}

func (t *opTimer) start() {
	t.wall0 = time.Now()
	t.cpu0 = cpuNow()
}

func (t *opTimer) stop() {
	c := cpuNow()
	t.wallMS = append(t.wallMS, float64(time.Since(t.wall0).Nanoseconds())/1e6)
	t.cpuMS = append(t.cpuMS, float64(c-t.cpu0)/1e6)
}

// extend adds the time since the last start to the last recorded op.
func (t *opTimer) extend() {
	c := cpuNow()
	n := len(t.cpuMS) - 1
	t.wallMS[n] += float64(time.Since(t.wall0).Nanoseconds()) / 1e6
	t.cpuMS[n] += float64(c-t.cpu0) / 1e6
}

// outcome accumulates a run's correctness verdicts and modeled readouts.
type outcome struct {
	failed    int
	failures  []string
	tput      sum
	imbalance sum
	// first is the JSON of the run's first op, re-issued at the end.
	first []byte
	overL overCapacity
}

// overCapacity counts Zeppelin plans that put some rank above the
// per-rank capacity L. The partitioner capacity-checks only local
// placements; ring fragments are spread round-robin unchecked, so a
// rank can end above L. The benchmark reports this as a finding rather
// than an op failure: see README.md.
type overCapacity struct {
	plans, over int
	worst       float64 // largest rank load over L
}

func (c *overCapacity) note(loads []int, l int) {
	c.plans++
	peak := 0
	for _, t := range loads {
		peak = max(peak, t)
	}
	if peak > l {
		c.over++
		c.worst = max(c.worst, float64(peak)/float64(l))
	}
}

// sum is a running mean.
type sum struct {
	total float64
	n     int
}

func (s *sum) add(v float64) { s.total += v; s.n++ }

func (s sum) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.total / float64(s.n)
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// api holds the API objects a run shares across ops, wired the way
// zeppelind wires them: one process-wide plan cache behind the planner
// and every campaign session.
type api struct {
	cache   *zeppelin.PlanCache
	planner *zeppelin.Planner
	serve   *zeppelin.ServeSpec
}

func newAPI() (*api, error) {
	spec, err := zeppelin.ParseServeSpec(serveSpecText)
	if err != nil {
		return nil, err
	}
	cache := zeppelin.NewPlanCache(zeppelin.DefaultPlanCacheEntries)
	return &api{
		cache:   cache,
		planner: zeppelin.NewPlanner(zeppelin.WithPlanCache(cache)),
		serve:   spec,
	}, nil
}

func (a *api) newCampaign(req zeppelin.CampaignRequest) (*zeppelin.Campaign, error) {
	return zeppelin.NewCampaign(req, zeppelin.WithCampaignPlanCache(a.cache), zeppelin.WithCampaignDecisions())
}

// planCapacity is the per-rank token ceiling L of a request's cell.
func planCapacity(req zeppelin.PlanRequest) int {
	return int(1.25 * float64(req.Cluster.TokensPerGPU*req.Cluster.TP))
}

// checkPlan verifies one plan response's internal consistency: world
// size, token conservation across ranks, balance and throughput.
func checkPlan(req zeppelin.PlanRequest, r *zeppelin.PlanResponse) error {
	if want := req.Cluster.Nodes * gpusPerNode / req.Cluster.TP; r.World != want {
		return fmt.Errorf("world %d, want %d", r.World, want)
	}
	if r.Tokens <= 0 || r.Seqs <= 0 {
		return fmt.Errorf("empty batch: %d tokens in %d seqs", r.Tokens, r.Seqs)
	}
	if r.IterTimeSec <= 0 || r.TokensPerSec != float64(r.Tokens)/r.IterTimeSec {
		return fmt.Errorf("tokens/s %v is not tokens %d / iter time %v", r.TokensPerSec, r.Tokens, r.IterTimeSec)
	}
	if req.Method != "zeppelin" {
		return nil
	}
	if len(r.TokensPerRank) != r.World {
		return fmt.Errorf("%d per-rank loads for world %d", len(r.TokensPerRank), r.World)
	}
	total := 0
	for _, t := range r.TokensPerRank {
		total += t
	}
	if total != r.Tokens {
		return fmt.Errorf("per-rank loads sum to %d, batch has %d tokens", total, r.Tokens)
	}
	if !(r.Imbalance >= 1) {
		return fmt.Errorf("imbalance %v < 1", r.Imbalance)
	}
	return nil
}

// runPlan issues one plan request and checks it.
func (a *api) runPlan(ctx context.Context, req zeppelin.PlanRequest, t *opTimer, o *outcome) *zeppelin.PlanResponse {
	t.start()
	resp, err := a.planner.Plan(ctx, req)
	t.stop()
	if err != nil {
		o.fail("plan %s/%s/%s seed %d: %v", req.Model, req.Dataset, req.Method, req.Seed, err)
		return nil
	}
	if err := checkPlan(req, resp); err != nil {
		o.fail("plan %s/%s/%s seed %d: %v", req.Model, req.Dataset, req.Method, req.Seed, err)
		return nil
	}
	o.tput.add(resp.TokensPerSec)
	if req.Method == "zeppelin" {
		o.imbalance.add(resp.Imbalance)
		o.overL.note(resp.TokensPerRank, planCapacity(req))
	}
	return resp
}

// runDrift runs one campaign-drift op: a whole campaign.
func (a *api) runDrift(ctx context.Context, seed int64, t *opTimer, o *outcome) *zeppelin.CampaignReport {
	t.start()
	rep, err := a.drainDrift(ctx, seed)
	t.stop()
	if err != nil {
		o.fail("drift campaign seed %d: %v", seed, err)
		return nil
	}
	if len(rep.Events) != driftIters {
		o.fail("drift campaign seed %d: %d events, want %d", seed, len(rep.Events), driftIters)
		return nil
	}
	o.tput.add(rep.Summary.TokensPerSec)
	o.imbalance.add(rep.Summary.MeanImbalance)
	return rep
}

func (a *api) drainDrift(ctx context.Context, seed int64) (*zeppelin.CampaignReport, error) {
	c, err := a.newCampaign(driftRequest(seed))
	if err != nil {
		return nil, err
	}
	if err := c.Start(ctx); err != nil {
		return nil, err
	}
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c.Report(), nil
}

// runServe runs one serve-burst campaign as a sequence of ops, one per
// event; the first op also covers NewCampaign and Start. It returns the
// campaign's report.
func (a *api) runServe(ctx context.Context, seed int64, t *opTimer, o *outcome) *zeppelin.CampaignReport {
	t.start()
	c, err := a.newCampaign(serveRequest(a.serve, seed))
	if err == nil {
		err = c.Start(ctx)
	}
	if err != nil {
		t.stop()
		o.fail("serve campaign seed %d: %v", seed, err)
		return nil
	}
	var events []zeppelin.CampaignEvent
	for {
		ev, ok := c.Next()
		if !ok {
			break
		}
		t.stop()
		events = append(events, ev)
		t.start()
	}
	if len(events) == 0 {
		t.stop()
		o.fail("serve campaign seed %d: no events: %v", seed, c.Err())
		return nil
	}
	// The terminal Next folds the summary; its cost joins the last event.
	t.extend()
	if err := c.Err(); err != nil {
		o.fail("serve campaign seed %d: %v", seed, err)
		return nil
	}
	rep := c.Report()
	timeline, err := zeppelin.GenerateServeTimeline(a.serve, seed)
	switch {
	case err != nil:
		o.fail("serve campaign seed %d: timeline: %v", seed, err)
	case rep.Summary.Requests+rep.Summary.Unserved != len(timeline):
		o.fail("serve campaign seed %d: %d served + %d unserved, timeline has %d",
			seed, rep.Summary.Requests, rep.Summary.Unserved, len(timeline))
	default:
		o.tput.add(rep.Summary.TokensPerSec)
		o.imbalance.add(rep.Summary.MeanImbalance)
	}
	return rep
}

// firstOp re-runs the first op of a unit list untimed and returns its
// JSON: the first plan response, the first drift report, or the first
// serve event.
func (a *api) firstOp(ctx context.Context, workload string, seed int64) ([]byte, error) {
	switch workload {
	case planFig8:
		resp, err := a.planner.Plan(ctx, fig8Pass(seed)[0])
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
	case campaignDrift:
		rep, err := a.drainDrift(ctx, seed)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	case serveBurst:
		c, err := a.newCampaign(serveRequest(a.serve, seed))
		if err != nil {
			return nil, err
		}
		if err := c.Start(ctx); err != nil {
			return nil, err
		}
		ev, ok := c.Next()
		if !ok {
			return nil, fmt.Errorf("serve campaign seed %d produced no event: %v", seed, c.Err())
		}
		return json.Marshal(ev)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}
