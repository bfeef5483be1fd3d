// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablation benches for the design choices behind the
// components README.md's "Package tour" lists. Each benchmark
// regenerates its experiment end to end on the simulated substrate and
// reports the headline quantity (usually the Zeppelin-over-TE-CP
// speedup) as a custom metric, so `go test -bench=.` reproduces the
// whole evaluation. The printable row/series output lives
// in cmd/zeppelin (`zeppelin fig8`, etc.), which drives the same runners.
package zeppelin_test

import (
	"context"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"zeppelin/internal/baselines"
	"zeppelin/internal/campaign"
	"zeppelin/internal/cluster"
	"zeppelin/internal/decision"
	"zeppelin/internal/experiments"
	"zeppelin/internal/model"
	"zeppelin/internal/partition"
	"zeppelin/internal/remap"
	"zeppelin/internal/runner"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/tune"
	"zeppelin/internal/workload"
	zep "zeppelin/internal/zeppelin"
)

// quick keeps per-iteration cost sane: benchmarks average one batch per
// cell; the CLI defaults to three.
var quick = experiments.Options{Seeds: 1}

func BenchmarkFig1DatasetDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := experiments.Fig1()
		if len(rs) != len(workload.All) {
			b.Fatal("missing datasets")
		}
	}
}

func BenchmarkTable2Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTable2(io.Discard)
	}
}

func BenchmarkFig3AttentionCostBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3Packing(workload.StackExchange, 20)
		b.ReportMetric(experiments.ShortSeqOverheadShare(r, 0), "short-overhead-share")
		experiments.Fig3EvenCP(workload.StackExchange, 20)
	}
}

func BenchmarkFig5ZoneBoundaries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5()
		b.ReportMetric(r.S0, "local-intra-boundary-tokens")
		b.ReportMetric(r.S1, "intra-inter-boundary-tokens")
	}
}

func BenchmarkFig8EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Fig8(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.AverageSpeedup(panels), "avg-speedup-x")
		b.ReportMetric(experiments.MaxSpeedup(panels), "max-speedup-x")
	}
}

func BenchmarkFig9Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig9(quick)
		if err != nil {
			b.Fatal(err)
		}
		// Report Zeppelin's 128-vs-16 GPU scaling factor on ArXiv.
		for _, s := range series {
			if s.Dataset == "arxiv" && s.Method == "Zeppelin" {
				b.ReportMetric(s.Tput[len(s.Tput)-1]/s.Tput[0], "zeppelin-scaling-x")
			}
		}
	}
}

func BenchmarkFig10ClusterAB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("expected 2 clusters x 3 datasets")
		}
	}
}

func BenchmarkFig11Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(quick)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0] // arxiv
		base := r.Tput[0]
		b.ReportMetric(r.Tput[1]/base, "routing-only-x")
		b.ReportMetric(r.Tput[len(r.Tput)-1]/base, "full-zeppelin-x")
	}
}

func BenchmarkFig12Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sc := range experiments.Fig12Scenarios() {
			if _, err := experiments.Fig12Trace(sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig13Campaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.Fig13CampaignSpeedup(res), "campaign-speedup-x")
		b.ReportMetric(experiments.Fig13ReplanWin(res), "replan-win-x")
	}
}

func BenchmarkFig14Faults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.Fig14DegradationEdge(res, "straggler"), "straggler-edge-x")
		b.ReportMetric(experiments.Fig14DegradationEdge(res, "shrink"), "shrink-edge-x")
	}
}

func BenchmarkServeCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.Fig16AffinityWin(res), "affinity-win-x")
	}
}

func BenchmarkTable3CostDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cols, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cols[1].Forward.Max/cols[0].Forward.Max, "skew-over-balanced-x")
	}
}

// ---------------------------------------------------------------------
// Ablation benches for design choices (README.md, "Package tour"):
// Zeppelin's components, capacity factor, and per-method single-cell
// costs.
// ---------------------------------------------------------------------

func cellBench(b *testing.B, m trainer.Method) {
	cell := experiments.Cell{Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 2, TP: 1, TokensPerGPU: 4096}
	for i := 0; i < b.N; i++ {
		tput, err := experiments.MeanThroughput(context.Background(), cell, workload.GitHub.Batch, m, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tput, "tokens/s")
	}
}

func BenchmarkMethodTECP(b *testing.B)     { cellBench(b, baselines.TECP{}) }
func BenchmarkMethodLLaMACP(b *testing.B)  { cellBench(b, baselines.LLaMACP{}) }
func BenchmarkMethodHybridDP(b *testing.B) { cellBench(b, baselines.HybridDP{}) }
func BenchmarkMethodZeppelin(b *testing.B) { cellBench(b, zep.Full()) }

// Ablation: Zeppelin feature flags on the long-sequence dataset.
func BenchmarkAblationAttnEngineOnly(b *testing.B)   { cellBench(b, zep.Method{}) }
func BenchmarkAblationEngineAndRouting(b *testing.B) { cellBench(b, zep.Method{Routing: true}) }

// Ablation: capacity factor governs partition granularity.
func BenchmarkAblationCapacityFactor(b *testing.B) {
	for _, cf := range []float64{1.0, 1.25, 2.0, 4.0} {
		b.Run(capName(cf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := trainer.Config{
					Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 2,
					CapacityFactor: cf, Seed: 9,
				}
				batch := cfg.Batch(workload.GitHub.Batch)
				res, err := trainer.Run(cfg, zep.Full(), batch)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TokensPerSec, "tokens/s")
			}
		})
	}
}

func capName(cf float64) string {
	switch cf {
	case 1.0:
		return "L=1.00x"
	case 1.25:
		return "L=1.25x"
	case 2.0:
		return "L=2.00x"
	default:
		return "L=4.00x"
	}
}

// ---------------------------------------------------------------------
// Runner pool: the same (dataset × method × seed) grid executed on one
// worker vs the full pool. The parallel variant's ns/op over the serial
// one is the pool's wall-clock speedup; results are bit-identical.
// ---------------------------------------------------------------------

func runnerBench(b *testing.B, workers int) {
	type job struct {
		cfg    trainer.Config
		method trainer.Method
		sample experiments.Sampler
	}
	var jobs []job
	for _, d := range workload.Eval {
		for _, m := range experiments.Methods() {
			for s := 0; s < 2; s++ {
				jobs = append(jobs, job{
					cfg: trainer.Config{
						Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 2,
						TokensPerGPU: 4096, Seed: int64(1000 + 37*s),
					},
					method: m,
					sample: d.Batch,
				})
			}
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
	for i := 0; i < b.N; i++ {
		if err := runner.ForEach(context.Background(), workers, len(jobs), func(j int) error {
			_, err := trainer.Run(jobs[j].cfg, jobs[j].method, jobs[j].cfg.Batch(jobs[j].sample))
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunnerSerial(b *testing.B)   { runnerBench(b, 1) }
func BenchmarkRunnerParallel(b *testing.B) { runnerBench(b, runtime.GOMAXPROCS(0)) }

// Core-loop micro-benchmarks: partitioner and remapping solver costs,
// the "Sequence Partition" row of Table 3, and the simulation of one
// planned iteration that every reported throughput is read from.

// iterationBenchCell is the cell both halves of an iteration are
// timed on: one GitHub batch on four Cluster A nodes.
func iterationBenchCell() (trainer.Config, []seq.Sequence) {
	cfg := trainer.Config{Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 4, Seed: 3}
	return cfg, cfg.Batch(workload.GitHub.Batch)
}

// BenchmarkPartitionerPlan times the hierarchical partition solve alone
// (Alg. 1 + 2), on a partitioner whose scratch buffers are warm, as in
// a streaming campaign.
func BenchmarkPartitionerPlan(b *testing.B) {
	cfg, batch := iterationBenchCell()
	env, err := cfg.NewEnv()
	if err != nil {
		b.Fatal(err)
	}
	p, err := partition.New(partition.Config{Cluster: env.C, CapacityTokens: env.CapacityTokens})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Plan(batch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateIteration times the simulation of one planned
// iteration of full Zeppelin on the path a campaign iteration takes:
// re-arming the environment the previous iteration spent
// (trainer.Config.ReuseEnv), emitting the layer's task graph (attention,
// remap and linear stages, forward and backward) and running it through
// sim.Engine.Run. Only the plan is made with the timer stopped. One
// untimed iteration first builds the environment and grows its FIFOs,
// so every timed one runs on kept resources and builds its graph in
// recycled blocks, as a campaign's steady state does.
func BenchmarkSimulateIteration(b *testing.B) {
	cfg, batch := iterationBenchCell()
	m := zep.Full()
	var env *trainer.Env
	iterate := func() {
		var err error
		if env, err = cfg.ReuseEnv(env); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		pl, err := m.Plan(env, batch)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := trainer.RunPlanned(cfg, m.Name(), env, pl, batch); err != nil {
			b.Fatal(err)
		}
	}
	iterate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iterate()
	}
}

// ---------------------------------------------------------------------
// Fig. 15 planner fast path: planning latency only (no simulation), at
// the 256-rank sweep point, over the same churning stream the fig15
// experiment measures. The incremental variant's ns/op and allocs/op
// against the full solve are the headline numbers the CI bench gate
// tracks — the fast path must stay ≥2x ahead at this scale.
// ---------------------------------------------------------------------

// fig15BenchRanks is the gated sweep point.
const fig15BenchRanks = 256

// fig15BenchWarm sizes the warmup prefix: one stretch of stream long
// enough to leave either planner in steady state (scratch buffers grown,
// the incremental planner holding a patch base) before the timer starts.
// Both benchmarks then measure per-iteration *re-planning* — the
// campaign hot-path quantity. The measured window walks distinct
// successive batches up to fig15BenchStreamCap and then cycles: the cap
// bounds setup cost at O(cap) instead of O(b.N) under time-based
// -benchtime, and the cycle boundary's accumulated delta exceeds the
// patch admission bound, so cycling costs one honest full solve per lap
// rather than handing the incremental path exact cache replays.
const (
	fig15BenchWarm      = 8
	fig15BenchStreamCap = 512
)

// fig15BenchStream builds the benchmark stream for n measured
// iterations at a world size, and an index function mapping measured
// iteration i to its batch.
func fig15BenchStream(ranks, n int) ([][]seq.Sequence, func(i int) int) {
	measured := n
	if measured > fig15BenchStreamCap {
		measured = fig15BenchStreamCap
	}
	stream := experiments.Fig15Stream(ranks, fig15BenchWarm+measured)
	return stream, func(i int) int { return fig15BenchWarm + i%measured }
}

// fig15FullBench measures the full hierarchical solve at one world size
// over the churning stream.
func fig15FullBench(b *testing.B, ranks int) {
	stream, at := fig15BenchStream(ranks, b.N)
	p, err := partition.New(experiments.Fig15PlanConfig(ranks))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < fig15BenchWarm; i++ {
		if _, err := p.Plan(stream[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(stream[at(i)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15PlanFull(b *testing.B) { fig15FullBench(b, fig15BenchRanks) }

// BenchmarkFig15ParallelSolve measures the full solve at the 1024-rank
// sweep point, in two parts. solve-workers=1 is one session's solve.
// sessions measures aggregate plans/sec when GOMAXPROCS concurrent
// sessions each run their own solve — the zeppelind fleet scenario,
// where parallelism comes from the session pool. The benchmark and
// sub-benchmark names predate the removal of the fanned solve; they
// stay so that CI's planner gate keeps pairing them with their
// BENCH_baseline.json entries.
func BenchmarkFig15ParallelSolve(b *testing.B) {
	const ranks = 1024
	b.Run("solve-workers=1", func(b *testing.B) { fig15FullBench(b, ranks) })
	b.Run("sessions", func(b *testing.B) {
		stream, at := fig15BenchStream(ranks, fig15BenchStreamCap)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// b.Error, not b.Fatal: FailNow must not run off the
			// benchmark goroutine.
			p, err := partition.New(experiments.Fig15PlanConfig(ranks))
			if err != nil {
				b.Error(err)
				return
			}
			i := 0
			for pb.Next() {
				if _, err := p.Plan(stream[at(i)]); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "plans/s")
		}
	})
}

func BenchmarkFig15PlanIncremental(b *testing.B) {
	stream, at := fig15BenchStream(fig15BenchRanks, b.N)
	cfg := experiments.Fig15PlanConfig(fig15BenchRanks)
	p := partition.NewIncremental(partition.IncrementalConfig{MaxDeltaFrac: experiments.Fig15MaxDeltaFrac})
	for i := 0; i < fig15BenchWarm; i++ {
		if _, _, err := p.Plan(cfg, stream[i]); err != nil {
			b.Fatal(err)
		}
	}
	warm := p.Counters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Plan(cfg, stream[at(i)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Mode split of the measured window only (warmup excluded).
	c := p.Counters()
	if total := c.Plans() - warm.Plans(); total > 0 {
		b.ReportMetric(float64(c.Patched-warm.Patched)/float64(total), "patched-frac")
	}
}

// BenchmarkFig15ScalingSweep regenerates the whole fig15 experiment (all
// world sizes, both paths) — the end-to-end cost of the scaling figure.
func BenchmarkFig15ScalingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.Fig15ScalingSpeedup(res), "speedup-8192-ranks-x")
	}
}

// ---------------------------------------------------------------------
// Decision-tracing overhead: the same campaign with and without a
// decision trace attached. CI gates BenchmarkDecisionOverhead at ≤5%
// ns/op over BenchmarkDecisionBaseline (benchgate -ratio), so recording
// every replan/admission/placement choice stays effectively free.
// ---------------------------------------------------------------------

// decisionBenchIters keeps one campaign run ~tens of milliseconds: long
// enough that per-iteration record allocations would show up, short
// enough for -count 5 sampling in CI.
const decisionBenchIters = 30

func decisionBenchConfig(tr *decision.Trace) campaign.Config {
	return campaign.Config{
		Trainer: trainer.Config{
			Model: model.LLaMA3B, Spec: cluster.ClusterA, Nodes: 1, TP: 1,
			TokensPerGPU: 4096, Seed: 11,
		},
		Method:    zep.NewIncremental(zep.Full(), partition.IncrementalConfig{}),
		Iters:     decisionBenchIters,
		Arrival:   campaign.Drift{Path: []workload.Dataset{workload.ArXiv, workload.GitHub}, Iters: decisionBenchIters},
		Policy:    campaign.Threshold{Ratio: 1.3},
		Decisions: tr,
	}
}

func BenchmarkDecisionBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(context.Background(), decisionBenchConfig(nil)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecisionOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := &decision.Trace{}
		if _, err := campaign.Run(context.Background(), decisionBenchConfig(tr)); err != nil {
			b.Fatal(err)
		}
		if tr.Len() == 0 {
			b.Fatal("trace recorded nothing")
		}
	}
}

// BenchmarkRemapSolve isolates the Eq. 2 remapping solver — the other
// planner-stack component on the re-planning hot path. Each op solves a
// fixed batch of 32 distinct skewed 256-rank layouts: a single solve is
// ~25µs, too small for a regression gate to separate code from scheduler
// jitter, so the op is sized to keep the gated ns/op stable.
func BenchmarkRemapSolve(b *testing.B) {
	const layouts = 32
	c := cluster.MustNew(cluster.ClusterA, fig15BenchRanks/8)
	rng := rand.New(rand.NewSource(6))
	batch := make([][]int, layouts)
	for l := range batch {
		tokens := make([]int, c.World())
		for i := range tokens {
			tokens[i] = 3000 + rng.Intn(3000)
		}
		batch[l] = tokens
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tokens := range batch {
			if _, err := remap.Solve(tokens, c, 1e-9, 8e-9); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTuneSearch is the closed-loop policy search end to end: grid
// seeding plus the mutation loop over short drifting campaigns — the
// same shape the CI tune job smokes, sized so one op is a whole search
// (baseline + budget candidate evaluations) rather than one campaign.
func BenchmarkTuneSearch(b *testing.B) {
	sp, err := tune.ParseSpace("policy=threshold,threshold=1.1:1.5")
	if err != nil {
		b.Fatal(err)
	}
	opts := tune.Options{
		Base:    experiments.TuneScenario(12),
		Space:   sp,
		Budget:  4,
		Iters:   12,
		Workers: 4,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := tune.Search(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Evaluated == 0 {
			b.Fatal("search evaluated nothing")
		}
	}
}
