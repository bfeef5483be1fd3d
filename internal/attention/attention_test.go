package attention

import (
	"runtime"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/costmodel"
	"zeppelin/internal/model"
	"zeppelin/internal/routing"
	"zeppelin/internal/seq"
	"zeppelin/internal/sim"
)

func setup(t *testing.T, spec cluster.Spec, nodes int, routed bool) (*sim.Engine, *Engine) {
	t.Helper()
	e := sim.NewEngine()
	c := cluster.MustNew(spec, nodes)
	f := cluster.NewFabric(e, c)
	r := routing.New(f, routed)
	cm := costmodel.MustNew(model.LLaMA3B, spec, 1)
	return e, New(f, r, cm)
}

func localPlan(world int, lens ...int) *seq.Plan {
	p := seq.NewPlan(world)
	for i, l := range lens {
		p.Local[i%world] = append(p.Local[i%world], seq.Sequence{ID: i, Len: l})
	}
	return p
}

func TestLocalOnlyForwardTime(t *testing.T) {
	e, en := setup(t, cluster.ClusterA, 1, false)
	plan := localPlan(8, 4096)
	en.EmitForward(plan)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := en.CM.CausalAttnTime(4096) + cluster.ClusterA.LaunchLatency
	if !sim.AlmostEqual(mk, want) {
		t.Fatalf("makespan %v, want %v", mk, want)
	}
}

func TestLocalSequencesSerializePerRank(t *testing.T) {
	e, en := setup(t, cluster.ClusterA, 1, false)
	plan := seq.NewPlan(8)
	plan.Local[0] = []seq.Sequence{{ID: 0, Len: 4096}, {ID: 1, Len: 4096}}
	en.EmitForward(plan)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	single := en.CM.CausalAttnTime(4096)
	if mk < 2*single {
		t.Fatalf("two local sequences on one rank must serialize: %v < %v", mk, 2*single)
	}
}

func TestRingConservesComputeAcrossGroupSizes(t *testing.T) {
	// Total compute time (sum over ranks) for one sequence must be ~equal
	// whether it runs locally or in a ring of any size: the 2G-chunk
	// scheme redistributes the causal triangle, it does not change it.
	const L = 32768
	base := func() float64 {
		e, en := setup(t, cluster.ClusterA, 1, false)
		en.EmitForward(localPlan(8, L))
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.KindTotals()[sim.KindCompute]
	}()
	for _, g := range []int{2, 4, 8} {
		e, en := setup(t, cluster.ClusterA, 1, false)
		plan := seq.NewPlan(8)
		ranks := make([]int, g)
		for i := range ranks {
			ranks[i] = i
		}
		plan.Rings = []seq.Ring{{Seq: seq.Sequence{ID: 0, Len: L}, Zone: seq.ZoneIntra, Ranks: ranks}}
		en.EmitForward(plan)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		got := e.KindTotals()[sim.KindCompute]
		// Ring execution adds g² rounds of fixed overhead (launch + sync);
		// the FLOP total must be conserved once that is subtracted.
		overhead := float64(g*g) * (costmodel.RingRoundOverhead + cluster.ClusterA.LaunchLatency)
		flops := got - overhead
		if flops < base*0.9 || flops > base*1.1 {
			t.Fatalf("g=%d: total compute %v (minus overhead %v) deviates from local %v", g, got, overhead, base)
		}
	}
}

func TestRingParallelismShortensMakespan(t *testing.T) {
	const L = 65536
	run := func(g int) float64 {
		e, en := setup(t, cluster.ClusterA, 1, false)
		plan := seq.NewPlan(8)
		if g == 1 {
			plan.Local[0] = []seq.Sequence{{ID: 0, Len: L}}
		} else {
			ranks := make([]int, g)
			for i := range ranks {
				ranks[i] = i
			}
			plan.Rings = []seq.Ring{{Seq: seq.Sequence{ID: 0, Len: L}, Zone: seq.ZoneIntra, Ranks: ranks}}
		}
		en.EmitForward(plan)
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return mk
	}
	t1, t8 := run(1), run(8)
	if t8 > t1/4 {
		t.Fatalf("8-way intra ring should be ~8x faster for a compute-bound 64k seq: %v vs %v", t8, t1)
	}
}

func TestInterRingCommBottleneckWithoutRouting(t *testing.T) {
	// A cross-node ring on a short sequence is communication-bound; the
	// makespan must exceed pure compute time substantially.
	e, en := setup(t, cluster.ClusterA, 2, false)
	plan := seq.NewPlan(16)
	ranks := make([]int, 16)
	for i := range ranks {
		ranks[i] = i
	}
	plan.Rings = []seq.Ring{{Seq: seq.Sequence{ID: 0, Len: 8192}, Zone: seq.ZoneInter, Ranks: ranks}}
	en.EmitForward(plan)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	pureCompute := en.CM.CausalAttnTime(8192) / 16
	if mk < 3*pureCompute {
		t.Fatalf("short-seq inter ring should be comm-bound: makespan %v vs compute %v", mk, pureCompute)
	}
}

func TestRoutingAcceleratesInterRing(t *testing.T) {
	build := func(routed bool) float64 {
		e, en := setup(t, cluster.ClusterA, 2, routed)
		plan := seq.NewPlan(16)
		ranks := make([]int, 16)
		for i := range ranks {
			ranks[i] = i
		}
		plan.Rings = []seq.Ring{{Seq: seq.Sequence{ID: 0, Len: 65536}, Zone: seq.ZoneInter, Ranks: ranks}}
		en.EmitForward(plan)
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return mk
	}
	direct, routed := build(false), build(true)
	if routed >= direct {
		t.Fatalf("routing should accelerate a comm-bound inter ring: routed %v vs direct %v", routed, direct)
	}
}

func TestBackwardRoughlyDoublesForward(t *testing.T) {
	run := func(backward bool) float64 {
		e, en := setup(t, cluster.ClusterA, 1, false)
		plan := localPlan(8, 16384)
		if backward {
			en.EmitBackward(plan)
		} else {
			en.EmitForward(plan)
		}
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return mk
	}
	f, b := run(false), run(true)
	if b < 1.8*f || b > 2.2*f {
		t.Fatalf("backward %v should be ~2x forward %v", b, f)
	}
}

func TestTierOrderingInterBeforeLocal(t *testing.T) {
	// A rank participating in an inter ring and holding a local sequence
	// must run the ring rounds first in forward.
	e, en := setup(t, cluster.ClusterA, 2, false)
	plan := seq.NewPlan(16)
	ranks := make([]int, 16)
	for i := range ranks {
		ranks[i] = i
	}
	plan.Rings = []seq.Ring{{Seq: seq.Sequence{ID: 0, Len: 32768}, Zone: seq.ZoneInter, Ranks: ranks}}
	plan.Local[0] = []seq.Sequence{{ID: 1, Len: 2048}}
	en.EmitForward(plan)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var localStart, lastRingEnd float64
	for _, tk := range e.Tasks() {
		if tk.Kind != sim.KindCompute || tk.Rank != 0 {
			continue
		}
		if tk.Label == "attn-fwd/local" {
			localStart = tk.Start
		} else if tk.End > lastRingEnd {
			lastRingEnd = tk.End
		}
	}
	if localStart < lastRingEnd {
		t.Fatalf("local sequence started at %v before ring finished at %v", localStart, lastRingEnd)
	}
}

func TestBackwardReversesTierOrder(t *testing.T) {
	e, en := setup(t, cluster.ClusterA, 2, false)
	plan := seq.NewPlan(16)
	ranks := make([]int, 16)
	for i := range ranks {
		ranks[i] = i
	}
	plan.Rings = []seq.Ring{{Seq: seq.Sequence{ID: 0, Len: 32768}, Zone: seq.ZoneInter, Ranks: ranks}}
	plan.Local[0] = []seq.Sequence{{ID: 1, Len: 2048}}
	en.EmitBackward(plan)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var localEnd, firstRingStart float64
	firstRingStart = 1e18
	for _, tk := range e.Tasks() {
		if tk.Kind != sim.KindCompute || tk.Rank != 0 {
			continue
		}
		if tk.Label == "attn-bwd/local" {
			localEnd = tk.End
		} else if tk.Start < firstRingStart {
			firstRingStart = tk.Start
		}
	}
	if firstRingStart < localEnd {
		t.Fatalf("backward should run local first: ring started %v before local ended %v", firstRingStart, localEnd)
	}
}

func TestEmptyPlanCompletes(t *testing.T) {
	e, en := setup(t, cluster.ClusterA, 1, false)
	done := en.EmitForward(seq.NewPlan(8))
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 0 || done.End != 0 {
		t.Fatalf("empty plan should cost nothing, got %v", mk)
	}
}

func TestMultipleRingsOnSameRanksSerializeCompute(t *testing.T) {
	e, en := setup(t, cluster.ClusterA, 1, false)
	plan := seq.NewPlan(8)
	for id := 0; id < 2; id++ {
		plan.Rings = append(plan.Rings, seq.Ring{
			Seq: seq.Sequence{ID: id, Len: 16384}, Zone: seq.ZoneIntra,
			Ranks: []int{0, 1, 2, 3},
		})
	}
	en.EmitForward(plan)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	perRing := en.CM.CausalAttnTime(16384) / 4
	if mk < 2*perRing {
		t.Fatalf("two rings sharing ranks must serialize compute: %v < %v", mk, 2*perRing)
	}
}

// allocPinPlan is a small plan touching every emit path: a routed ring
// across both nodes, an intra-node ring, and local sequences.
func allocPinPlan() *seq.Plan {
	plan := seq.NewPlan(16)
	inter := make([]int, 16)
	for i := range inter {
		inter[i] = i
	}
	plan.Rings = []seq.Ring{
		{Seq: seq.Sequence{ID: 0, Len: 65536}, Zone: seq.ZoneInter, Ranks: inter},
		{Seq: seq.Sequence{ID: 1, Len: 16384}, Zone: seq.ZoneIntra, Ranks: []int{8, 9, 10, 11}},
	}
	for rank := 0; rank < 16; rank++ {
		plan.Local[rank] = []seq.Sequence{{ID: 2 + rank, Len: 1024}, {ID: 18 + rank, Len: 512}}
	}
	return plan
}

// TestEmitAndRunAllocsPerTask pins what building and running the task
// graph allocates, the way every simulated iteration does it: emit the
// forward and backward passes of allocPinPlan on a fresh two-node
// fabric, run them and release the engine, reps times over, fabric
// set-up included. Tasks, successor edges and events come from blocks
// and buffers recycled across engines, so a repetition allocates about
// 0.04 times and 2.4 bytes per emitted task. A label formatted per task,
// an event boxed per push, or a successor slice grown per task costs at
// least one allocation per task and trips maxAllocsPerTask. Storage
// that is no longer recycled costs about 190 bytes per task and trips
// maxBytesPerTask. Two GCs that empty the pool mid-loop make one
// repetition allocate afresh, which reads about 12 bytes per task over
// the loop, and the race detector, which drops a quarter of what is put
// into a sync.Pool, reads 52–59; both stay inside the bound.
func TestEmitAndRunAllocsPerTask(t *testing.T) {
	const (
		maxAllocsPerTask = 0.25
		maxBytesPerTask  = 100
		reps             = 20
	)
	c := cluster.MustNew(cluster.ClusterA, 2)
	cm := costmodel.MustNew(model.LLaMA3B, cluster.ClusterA, 1)
	plan := allocPinPlan()
	tasks := 0
	emitAndRun := func() {
		e := sim.NewEngine()
		f := cluster.NewFabric(e, c)
		en := New(f, routing.New(f, true), cm)
		en.EmitBackward(plan, en.EmitForward(plan))
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		tasks = len(e.Tasks())
		e.Release()
	}
	emitAndRun() // the first engine may find the pool empty
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		emitAndRun()
	}
	runtime.ReadMemStats(&m1)
	n := float64(reps * tasks)
	allocs := float64(m1.Mallocs-m0.Mallocs) / n
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("%d runs of %d tasks: %.3f allocations and %.1f bytes per task", reps, tasks, allocs, bytes)
	if allocs > maxAllocsPerTask {
		t.Errorf("%.3f allocations per task, want <= %v", allocs, maxAllocsPerTask)
	}
	if bytes > maxBytesPerTask {
		t.Errorf("%.1f bytes allocated per task, want <= %v", bytes, maxBytesPerTask)
	}
}
