package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refEngine is the scheduler as it stood before the event queue became a
// typed heap with a zero-delay FIFO beside it and tasks and edges moved
// into pooled blocks: one container/heap over boxed events, one heap
// object per task, successor slices, and a FIFO that re-slices
// queue[1:]. Its scheduling code is kept as it was
// (types renamed, deadlock message shortened) as the written
// specification of "the same schedule": for any task graph, Engine must
// produce bit-identical Start/End times and the same completion order.
type refEngine struct {
	now       Time
	tasks     []*refTask
	resources []*refResource
	events    refEventHeap
	eventSeq  int
	ran       bool

	OnTaskDone func(t *refTask)
}

type refResource struct {
	Name    string
	Rate    float64
	Latency Time
	Speed   float64

	id    int
	busy  bool
	queue []*refTask

	BusyTime Time
}

type refTask struct {
	Label    string
	Kind     Kind
	Rank     int
	Duration Time
	Size     float64

	id    int
	res   *refResource
	deps  int
	succs []*refTask
	state taskState

	Start, End Time
}

func (t *refTask) After(deps ...*refTask) *refTask {
	for _, d := range deps {
		if d == nil {
			continue
		}
		d.succs = append(d.succs, t)
		t.deps++
	}
	return t
}

func (e *refEngine) NewResource(name string, rate float64) *refResource {
	r := &refResource{Name: name, Rate: rate, id: len(e.resources)}
	e.resources = append(e.resources, r)
	return r
}

func (e *refEngine) NewTask(label string, kind Kind, rank int, res *refResource) *refTask {
	t := &refTask{Label: label, Kind: kind, Rank: rank, res: res, id: len(e.tasks)}
	e.tasks = append(e.tasks, t)
	return t
}

type refEvent struct {
	at   Time
	seq  int
	task *refTask
}

type refEventHeap []refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
func (e *refEngine) push(at Time, t *refTask) {
	heap.Push(&e.events, refEvent{at: at, seq: e.eventSeq, task: t})
	e.eventSeq++
}

func (t *refTask) execTime() Time {
	d := t.Duration
	if t.Size > 0 && t.res != nil && t.res.Rate > 0 {
		d += t.Size / t.res.Rate
	}
	if t.res != nil {
		if s := t.res.Speed; s > 0 && s != 1 {
			d /= s
		}
		d += t.res.Latency
	}
	return d
}

func (e *refEngine) ready(t *refTask) {
	if t.res == nil {
		t.state = stateRunning
		t.Start = e.now
		e.push(e.now+t.execTime(), t)
		return
	}
	t.state = stateQueued
	if t.res.busy {
		t.res.queue = append(t.res.queue, t)
		return
	}
	e.start(t)
}

func (e *refEngine) start(t *refTask) {
	t.state = stateRunning
	t.Start = e.now
	t.res.busy = true
	d := t.execTime()
	t.res.BusyTime += d
	e.push(e.now+d, t)
}

func (e *refEngine) Run() (Time, error) {
	if e.ran {
		return 0, fmt.Errorf("sim: engine already ran")
	}
	e.ran = true
	for _, t := range e.tasks {
		if t.deps == 0 {
			e.ready(t)
		}
	}
	done := 0
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(refEvent)
		e.now = ev.at
		t := ev.task
		t.state = stateDone
		t.End = e.now
		done++
		if t.res != nil {
			t.res.busy = false
			if len(t.res.queue) > 0 {
				next := t.res.queue[0]
				t.res.queue = t.res.queue[1:]
				e.start(next)
			}
		}
		for _, s := range t.succs {
			s.deps--
			if s.deps == 0 {
				e.ready(s)
			}
		}
		if e.OnTaskDone != nil {
			e.OnTaskDone(t)
		}
	}
	if done != len(e.tasks) {
		return 0, fmt.Errorf("sim: deadlock, %d/%d tasks completed", done, len(e.tasks))
	}
	return e.now, nil
}

// graphSpec describes a task graph independently of either engine, so
// the same graph can be built on both.
type graphSpec struct {
	res   []resSpec
	tasks []taskSpec
	// edges are (from, to) pairs in the order After is called: the order
	// of a task's successor list, which the schedule depends on.
	edges [][2]int
}

type resSpec struct{ rate, latency, speed float64 }

type taskSpec struct {
	res  int // index into res, or -1 for an unresourced task
	kind Kind
	rank int
	dur  Time
	size float64
}

// randomGraph draws a DAG whose creation order is not its topological
// order (a join barrier may be created before the tasks it waits for),
// with durations, sizes and rates from small sets so that many events
// tie in time on shared resources.
func randomGraph(rng *rand.Rand) graphSpec {
	var g graphSpec
	nres := 1 + rng.Intn(5)
	for i := 0; i < nres; i++ {
		r := resSpec{rate: []float64{0, 0, 64, 128}[rng.Intn(4)]}
		if rng.Intn(3) == 0 {
			r.latency = 0.25
		}
		if rng.Intn(4) == 0 {
			r.speed = []float64{0.5, 1, 2}[rng.Intn(3)]
		}
		g.res = append(g.res, r)
	}
	n := 1 + rng.Intn(120)
	for i := 0; i < n; i++ {
		ts := taskSpec{res: rng.Intn(nres+1) - 1, rank: rng.Intn(4)}
		switch {
		case ts.res < 0:
			ts.kind = KindBarrier
			if rng.Intn(4) == 0 {
				ts.dur = 1 // unresourced latency
			}
		case rng.Intn(2) == 0:
			ts.kind = KindInterComm
			ts.size = []float64{0, 32, 64, 128}[rng.Intn(4)]
		default:
			ts.kind = KindCompute
			ts.dur = []Time{0, 0.5, 1, 1, 2}[rng.Intn(5)]
		}
		g.tasks = append(g.tasks, ts)
	}
	// topo[i] is task i's position in a random topological order; an
	// edge may only run from an earlier position to a later one.
	topo := rng.Perm(n)
	density := rng.Float64() * 0.15
	for to := 0; to < n; to++ {
		for from := 0; from < n; from++ {
			if topo[from] < topo[to] && rng.Float64() < density {
				g.edges = append(g.edges, [2]int{from, to})
			}
		}
	}
	rng.Shuffle(len(g.edges), func(i, j int) { g.edges[i], g.edges[j] = g.edges[j], g.edges[i] })
	return g
}

type schedule struct {
	start, end []Time
	order      []int // task indices in OnTaskDone order
	busy       []Time
	makespan   Time
	first      *block // the first block Engine built the graph in
}

// runEngine builds and runs g on a fresh Engine, reads its schedule and
// releases it, so the next graph runs on recycled storage.
func runEngine(g graphSpec) (schedule, error) {
	e := NewEngine()
	s, err := runGraph(e, addResources(e, g), g)
	e.Release()
	return s, err
}

// runReset runs g on an engine that has already run pred and was then
// reset. The engine is built with g's resources, and pred's tasks are
// moved onto them (resource i becomes i mod len(g.res)), so pred's run
// fills their FIFOs and busy times. With deadlock, pred also holds a
// cycle, so its run stops with tasks pending; the test then parks tasks
// in every FIFO and marks each resource busy, the state a run cut short
// would leave. Reset must keep the resources and their FIFOs' backing
// arrays and clear everything else.
func runReset(t *testing.T, g, pred graphSpec, deadlock bool) (schedule, error) {
	e := NewEngine()
	res := addResources(e, g)
	p := graphSpec{edges: pred.edges}
	for _, ts := range pred.tasks {
		if ts.res >= 0 {
			ts.res %= len(res)
		}
		p.tasks = append(p.tasks, ts)
	}
	if deadlock {
		a, b := len(p.tasks), len(p.tasks)+1
		p.tasks = append(p.tasks, taskSpec{res: -1}, taskSpec{res: -1}, taskSpec{res: 0, kind: KindCompute, dur: 1})
		p.edges = append(slices.Clip(p.edges), [2]int{a, b}, [2]int{b, a}, [2]int{b, b + 1})
	}
	if _, err := runGraph(e, res, p); (err != nil) != deadlock {
		t.Fatalf("predecessor run (deadlock %v): %v", deadlock, err)
	}
	if deadlock {
		for i, r := range res {
			r.enqueue(e.tasks[i%len(e.tasks)])
			r.busy = true
		}
	}
	caps := make([]int, len(res))
	for i, r := range res {
		caps[i] = cap(r.queue)
	}
	e.Reset()
	if len(e.resources) != len(res) {
		t.Fatalf("reset engine holds %d resources, want %d", len(e.resources), len(res))
	}
	for i, r := range res {
		if e.resources[i] != r || r.busy || r.BusyTime != 0 || len(r.queue) != 0 || r.head != 0 || cap(r.queue) != caps[i] {
			t.Fatalf("resource %d after reset: busy %v, BusyTime %v, FIFO %d/%d (cap before %d)",
				i, r.busy, r.BusyTime, len(r.queue), cap(r.queue), caps[i])
		}
	}
	s, err := runGraph(e, res, g)
	e.Release()
	return s, err
}

// addResources registers g's resources on e.
func addResources(e *Engine, g graphSpec) []*Resource {
	var res []*Resource
	for _, r := range g.res {
		x := e.NewResource("r", r.rate)
		x.Latency, x.Speed = r.latency, r.speed
		res = append(res, x)
	}
	return res
}

// runGraph builds g's tasks on e over res, runs them and reads the
// schedule. g must have a task.
func runGraph(e *Engine, res []*Resource, g graphSpec) (schedule, error) {
	var tasks []*Task
	for _, ts := range g.tasks {
		var r *Resource
		if ts.res >= 0 {
			r = res[ts.res]
		}
		t := e.NewTask("t", ts.kind, ts.rank, r)
		t.Duration, t.Size = ts.dur, ts.size
		tasks = append(tasks, t)
	}
	for _, ed := range g.edges {
		tasks[ed[1]].After(tasks[ed[0]])
	}
	s := schedule{first: e.blocks[0]}
	e.OnTaskDone = func(t *Task) { s.order = append(s.order, t.id) }
	mk, err := e.Run()
	s.makespan = mk
	for _, t := range tasks {
		s.start = append(s.start, t.Start)
		s.end = append(s.end, t.End)
	}
	for _, r := range res {
		s.busy = append(s.busy, r.BusyTime)
	}
	return s, err
}

func runReference(g graphSpec) (schedule, error) {
	e := &refEngine{}
	var res []*refResource
	for _, r := range g.res {
		x := e.NewResource("r", r.rate)
		x.Latency, x.Speed = r.latency, r.speed
		res = append(res, x)
	}
	var tasks []*refTask
	for _, ts := range g.tasks {
		var r *refResource
		if ts.res >= 0 {
			r = res[ts.res]
		}
		t := e.NewTask("t", ts.kind, ts.rank, r)
		t.Duration, t.Size = ts.dur, ts.size
		tasks = append(tasks, t)
	}
	for _, ed := range g.edges {
		tasks[ed[1]].After(tasks[ed[0]])
	}
	var s schedule
	e.OnTaskDone = func(t *refTask) { s.order = append(s.order, t.id) }
	mk, err := e.Run()
	s.makespan = mk
	for _, t := range tasks {
		s.start = append(s.start, t.Start)
		s.end = append(s.end, t.End)
	}
	for _, r := range res {
		s.busy = append(s.busy, r.BusyTime)
	}
	return s, err
}

func sameTime(a, b Time) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestScheduleMatchesReference: on hand-built run-queue inputs and on
// seeded random DAGs full of equal-time ties, Engine reproduces the
// reference scheduler bit for bit — every task's Start and End, every
// resource's BusyTime, the makespan, and the OnTaskDone order. Each
// graph is released after its schedule is read, so later graphs run in
// the blocks earlier graphs used; zero-duration barriers and zero-time
// tasks go through the zero-delay FIFO, and same-time completions
// through runs, whose order the reference's single heap pins. Each
// graph also runs twice on a reset engine (runReset): once after the
// previous input ran to completion on its resources, once after that
// input deadlocked, and both must match the reference too.
func TestScheduleMatchesReference(t *testing.T) {
	type input struct {
		name string
		g    graphSpec
	}
	inputs := []input{
		// Tasks of 2, 3 and 2 s ready at 0 make two runs due at 2 split
		// by one due at 3. The zero-duration successor of the first
		// completes after the second run at 2, not before it.
		{"two runs at 2 split by a run at 3", graphSpec{
			res: []resSpec{{}, {}, {}},
			tasks: []taskSpec{
				{res: 0, kind: KindCompute, dur: 2},
				{res: 1, kind: KindCompute, dur: 3},
				{res: 2, kind: KindCompute, dur: 2},
				{res: -1, kind: KindBarrier},
			},
			edges: [][2]int{{0, 3}},
		}},
		// Runs due at 2 (task 1, then task 3) are split by one due at 3.
		// At 1 a zero-delay barrier fans out to tasks due at 2, which
		// join the newest run (task 3's), not the heap's top (task 1's),
		// and to one due now. At 2 another barrier, released by the
		// first run, fans out to zero-time tasks, which complete after
		// the second run.
		{"barrier fan-outs between runs at 2", graphSpec{
			res: []resSpec{{}, {}, {}, {}},
			tasks: []taskSpec{
				{res: 0, kind: KindCompute, dur: 1},
				{res: 1, kind: KindCompute, dur: 2},
				{res: 2, kind: KindCompute, dur: 3},
				{res: 3, kind: KindCompute, dur: 2},
				{res: -1, kind: KindBarrier},
				{res: 0, kind: KindCompute, dur: 1},
				{res: -1, kind: KindBarrier, dur: 1},
				{res: -1, kind: KindBarrier},
				{res: -1, kind: KindBarrier},
				{res: 1, kind: KindCompute},
				{res: -1, kind: KindBarrier},
			},
			edges: [][2]int{{0, 4}, {4, 5}, {4, 6}, {4, 7}, {1, 8}, {8, 9}, {8, 10}},
		}},
	}
	for seed := int64(1); seed <= 400; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("seed %d", seed), randomGraph(rand.New(rand.NewSource(seed)))})
	}
	ties, recycled := 0, 0
	var prev *block
	for k, in := range inputs {
		want, err := runReference(in.g)
		if err != nil {
			t.Fatalf("%s: reference: %v", in.name, err)
		}
		check := func(name string, got schedule, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameTime(got.makespan, want.makespan) {
				t.Fatalf("%s: makespan %v, reference %v", name, got.makespan, want.makespan)
			}
			for i := range want.start {
				if !sameTime(got.start[i], want.start[i]) || !sameTime(got.end[i], want.end[i]) {
					t.Fatalf("%s: task %d ran [%v,%v], reference [%v,%v]",
						name, i, got.start[i], got.end[i], want.start[i], want.end[i])
				}
			}
			for i := range want.busy {
				if !sameTime(got.busy[i], want.busy[i]) {
					t.Fatalf("%s: resource %d busy %v, reference %v", name, i, got.busy[i], want.busy[i])
				}
			}
			if len(got.order) != len(want.order) {
				t.Fatalf("%s: %d completions, reference %d", name, len(got.order), len(want.order))
			}
			for i := range want.order {
				if got.order[i] != want.order[i] {
					t.Fatalf("%s: completion %d is task %d, reference task %d", name, i, got.order[i], want.order[i])
				}
			}
		}
		got, err := runEngine(in.g)
		check(in.name, got, err)
		if got.first == prev {
			recycled++
		}
		pred := inputs[(k+len(inputs)-1)%len(inputs)]
		for _, deadlock := range []bool{false, true} {
			got, err := runReset(t, in.g, pred.g, deadlock)
			check(fmt.Sprintf("%s, reset after %s (deadlock %v)", in.name, pred.name, deadlock), got, err)
			prev = got.first
		}
		for i := 1; i < len(want.order); i++ {
			if sameTime(want.end[want.order[i]], want.end[want.order[i-1]]) {
				ties++
			}
		}
	}
	// The generator exists to exercise tie-breaking; make sure it does.
	if ties < 1000 {
		t.Fatalf("only %d equal-time completions across all graphs; the generator lost its ties", ties)
	}
	// A GC may empty the pool, and the race detector drops a quarter of
	// what is put back, but most graphs must still start in the first
	// block of the graph released just before them, the last reset run.
	if recycled < 200 {
		t.Fatalf("only %d of %d graphs started in their predecessor's first block", recycled, len(inputs)-1)
	}
}
