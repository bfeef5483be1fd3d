package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleTask(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("gpu0", 0)
	e.Compute("k", 0, r, 1.5)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 1.5 {
		t.Fatalf("makespan = %v, want 1.5", mk)
	}
}

func TestTransferUsesRate(t *testing.T) {
	e := NewEngine()
	nic := e.NewResource("nic", 100) // 100 B/s
	tr := e.Transfer("x", KindInterComm, 0, nic, 250)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.End-tr.Start != 2.5 {
		t.Fatalf("transfer time = %v, want 2.5", tr.End-tr.Start)
	}
}

func TestResourceLatencyAdded(t *testing.T) {
	e := NewEngine()
	nic := e.NewResource("nic", 100)
	nic.Latency = 0.25
	tr := e.Transfer("x", KindInterComm, 0, nic, 100)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(mk, 1.25) {
		t.Fatalf("makespan = %v, want 1.25", mk)
	}
	_ = tr
}

func TestSerialResourceQueues(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("gpu", 0)
	a := e.Compute("a", 0, r, 1)
	b := e.Compute("b", 0, r, 2)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 3 {
		t.Fatalf("makespan = %v, want 3 (serialized)", mk)
	}
	if !(a.End <= b.Start) {
		t.Fatalf("b started before a finished: a=[%v,%v] b=[%v,%v]", a.Start, a.End, b.Start, b.End)
	}
}

func TestIndependentResourcesOverlap(t *testing.T) {
	e := NewEngine()
	r1 := e.NewResource("gpu0", 0)
	r2 := e.NewResource("gpu1", 0)
	e.Compute("a", 0, r1, 2)
	e.Compute("b", 1, r2, 2)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 2 {
		t.Fatalf("makespan = %v, want 2 (parallel)", mk)
	}
}

func TestDependencyOrdering(t *testing.T) {
	e := NewEngine()
	r1 := e.NewResource("gpu0", 0)
	r2 := e.NewResource("gpu1", 0)
	a := e.Compute("a", 0, r1, 1)
	b := e.Compute("b", 1, r2, 1)
	b.After(a)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 2 {
		t.Fatalf("makespan = %v, want 2 (chained)", mk)
	}
	if b.Start != a.End {
		t.Fatalf("b should start exactly when a ends")
	}
}

func TestBarrierJoins(t *testing.T) {
	e := NewEngine()
	r1 := e.NewResource("gpu0", 0)
	r2 := e.NewResource("gpu1", 0)
	a := e.Compute("a", 0, r1, 1)
	b := e.Compute("b", 1, r2, 3)
	bar := e.Barrier("join", 0).After(a, b)
	c := e.Compute("c", 0, r1, 1)
	c.After(bar)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 4 {
		t.Fatalf("makespan = %v, want 4", mk)
	}
}

func TestAfterIgnoresNil(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("gpu", 0)
	a := e.Compute("a", 0, r, 1)
	a.After(nil, nil)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("gpu", 0)
	a := e.Compute("a", 0, r, 1)
	b := e.Compute("b", 0, r, 1)
	a.After(b)
	b.After(a)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected deadlock error for cyclic graph")
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("gpu", 0)
	e.Compute("a", 0, r, 1)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("expected error on second Run")
	}
}

// TestReleaseEmptiesEngine: a released engine has no tasks and cannot
// run, whether it ran before Release or not.
func TestReleaseEmptiesEngine(t *testing.T) {
	for _, ran := range []bool{false, true} {
		e := NewEngine()
		r := e.NewResource("gpu", 0)
		e.Compute("b", 0, r, 1).After(e.Barrier("a", 0))
		if ran {
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		e.Release()
		e.Release() // a second Release is a no-op
		if n := len(e.Tasks()); n != 0 {
			t.Fatalf("ran=%v: %d tasks after Release, want 0", ran, n)
		}
		if _, err := e.Run(); err == nil {
			t.Fatalf("ran=%v: Run after Release succeeded", ran)
		}
	}
}

func TestKindTotals(t *testing.T) {
	e := NewEngine()
	gpu := e.NewResource("gpu", 0)
	nic := e.NewResource("nic", 10)
	e.Compute("a", 0, gpu, 2)
	e.Transfer("t", KindInterComm, 0, nic, 30)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tot := e.KindTotals()
	if tot[KindCompute] != 2 {
		t.Fatalf("compute total = %v", tot[KindCompute])
	}
	if tot[KindInterComm] != 3 {
		t.Fatalf("inter-comm total = %v", tot[KindInterComm])
	}
}

func TestUtilization(t *testing.T) {
	e := NewEngine()
	gpu := e.NewResource("gpu", 0)
	other := e.NewResource("gpu2", 0)
	e.Compute("a", 0, gpu, 1)
	e.Compute("b", 1, other, 4)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := gpu.Utilization(mk); got != 0.25 {
		t.Fatalf("gpu utilization = %v, want 0.25", got)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	// Tasks queued on a busy resource must run in ready-order.
	e := NewEngine()
	r := e.NewResource("gpu", 0)
	first := e.Compute("first", 0, r, 5)
	var rest []*Task
	for i := 0; i < 10; i++ {
		tk := e.Compute("t", 0, r, 1)
		tk.After(first)
		rest = append(rest, tk)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rest); i++ {
		if rest[i].Start < rest[i-1].End {
			t.Fatalf("FIFO violated at %d", i)
		}
	}
}

func TestCriticalPathLowerBoundsMakespan(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("gpu", 0)
	a := e.Compute("a", 0, r, 1)
	b := e.Compute("b", 0, r, 2)
	c := e.Compute("c", 0, r, 3)
	c.After(a, b)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	cp := e.CriticalPath()
	if cp > mk+1e-12 {
		t.Fatalf("critical path %v exceeds makespan %v", cp, mk)
	}
	if cp != 5 { // b(2) -> c(3)
		t.Fatalf("critical path = %v, want 5", cp)
	}
}

// TestRankSpans: rank 0's work spans [0, 5] — its second task waits
// past its own free GPU (t=1) for a dependency on rank 1 (ends t=3).
func TestRankSpans(t *testing.T) {
	e := NewEngine()
	r0 := e.NewResource("gpu0", 0)
	r1 := e.NewResource("gpu1", 0)
	first := e.Compute("a", 0, r0, 1)
	late := e.Compute("b", 0, r0, 2)
	late.After(e.Compute("c", 1, r1, 3))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if first.Start != 0 || late.End != 5 {
		t.Fatalf("rank 0 span = [%v,%v], want [0,5]", first.Start, late.End)
	}
}

func TestOnTaskDoneHookOrdering(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("gpu", 0)
	e.Compute("a", 0, r, 2)
	e.Compute("b", 0, r, 1)
	var order []string
	e.OnTaskDone = func(tk *Task) { order = append(order, tk.Label) }
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("completion order = %v", order)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindBarrier: "barrier", KindCompute: "compute",
		KindIntraComm: "intra-comm", KindInterComm: "inter-comm", KindMemOp: "mem",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}

// Property: for any set of independent tasks on one resource, makespan
// equals the sum of durations (serial execution, work conservation).
func TestPropertySerialWorkConservation(t *testing.T) {
	f := func(durs []uint16) bool {
		e := NewEngine()
		r := e.NewResource("gpu", 0)
		var sum Time
		for _, d := range durs {
			dt := Time(d%1000) / 100.0
			sum += dt
			e.Compute("t", 0, r, dt)
		}
		mk, err := e.Run()
		if err != nil {
			return false
		}
		return AlmostEqual(mk, sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: random DAGs over multiple resources complete, makespan >=
// critical path, and every dependency is respected in the schedule.
func TestPropertyRandomDAGRespectsDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 30; iter++ {
		e := NewEngine()
		nres := 1 + rng.Intn(4)
		var res []*Resource
		for i := 0; i < nres; i++ {
			res = append(res, e.NewResource("r", 0))
		}
		n := 5 + rng.Intn(40)
		tasks := make([]*Task, n)
		type dep struct{ from, to int }
		var deps []dep
		for i := 0; i < n; i++ {
			tasks[i] = e.Compute("t", i%nres, res[i%nres], Time(rng.Intn(100))/10)
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.1 {
					tasks[i].After(tasks[j])
					deps = append(deps, dep{j, i})
				}
			}
		}
		mk, err := e.Run()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if cp := e.CriticalPath(); cp > mk+1e-9 {
			t.Fatalf("iter %d: critical path %v > makespan %v", iter, cp, mk)
		}
		for _, d := range deps {
			if tasks[d.to].Start+1e-12 < tasks[d.from].End {
				t.Fatalf("iter %d: dep %d->%d violated", iter, d.from, d.to)
			}
		}
	}
}

// Property: the simulator is deterministic — building the same graph twice
// yields identical task times.
func TestPropertyDeterminism(t *testing.T) {
	build := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r1 := e.NewResource("a", 50)
		r2 := e.NewResource("b", 0)
		var tasks []*Task
		for i := 0; i < 25; i++ {
			var tk *Task
			if i%2 == 0 {
				tk = e.Transfer("x", KindIntraComm, i, r1, float64(rng.Intn(500)))
			} else {
				tk = e.Compute("y", i, r2, Time(rng.Intn(50))/7)
			}
			if i > 2 && rng.Float64() < 0.3 {
				tk.After(tasks[rng.Intn(i-1)])
			}
			tasks = append(tasks, tk)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]Time, 0, 2*len(tasks))
		for _, tk := range tasks {
			out = append(out, tk.Start, tk.End)
		}
		return out
	}
	a, b := build(7), build(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic schedule at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Resource.Speed stretches the work portion of a task — duration and
// rated transfer time — but never the fixed latency.
func TestResourceSpeedScalesWork(t *testing.T) {
	e := NewEngine()
	comp := e.NewResource("slow-gpu", 0)
	comp.Latency = 1
	comp.Speed = 0.5
	k := e.Compute("kernel", 0, comp, 10)

	link := e.NewResource("derated-link", 100)
	link.Speed = 0.25
	x := e.Transfer("xfer", KindInterComm, 0, link, 400)

	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.End - k.Start; got != 10/0.5+1 {
		t.Fatalf("half-speed kernel took %v, want %v", got, 10/0.5+1)
	}
	if got := x.End - x.Start; got != (400.0/100)/0.25 {
		t.Fatalf("quarter-speed transfer took %v, want %v", got, (400.0/100)/0.25)
	}

	// Speed 0 and 1 are nominal.
	e2 := NewEngine()
	r2 := e2.NewResource("nominal", 0)
	r2.Speed = 1
	k2 := e2.Compute("kernel", 0, r2, 10)
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k2.End - k2.Start; got != 10 {
		t.Fatalf("speed 1 changed duration: %v", got)
	}
}
