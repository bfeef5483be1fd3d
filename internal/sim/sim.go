// Package sim implements a deterministic discrete-event simulator used to
// model the execution of distributed training steps on a GPU cluster.
//
// The simulator models two kinds of entities:
//
//   - Resources: serial FIFO executors with an optional data rate. A GPU
//     compute stream, a NIC, and an NVSwitch port are all resources. A
//     resource executes one task at a time; queued tasks run in the order
//     they became ready (FIFO), which matches the in-order stream semantics
//     of CUDA streams and NCCL channels that the paper's systems rely on.
//
//   - Tasks: units of work with explicit dependencies. A task either has a
//     fixed duration (kernel time from a cost model) or a size in bytes
//     (transfer time = size / resource rate + per-message latency). Tasks
//     with no resource complete instantly once their dependencies resolve
//     and act as barriers / join points.
//
// The engine is deterministic: identical task graphs produce identical
// schedules. Ties in event time are broken by creation order.
//
// A task's identity is its Rank, its Kind and its creation order; its
// Label only names the stage that emitted it, for traces. Labels are
// constants such as "attn-fwd/ring/kv", "linear-bwd" or
// "remap-to-linear", shared by every task that stage creates. Nothing
// parses them: per-phase accounting (internal/trainer) attributes a task
// to the phase of the stage that emitted it. Resource names follow the
// same rule ("gpu/compute", "nic/tx"); a resource is identified by its
// creation order.
//
// Building and running a graph allocates per block, not per task: tasks
// and successor edges come from pooled blocks, the event queue is a
// typed heap of runs linked through the tasks themselves, and a
// resource's FIFO reuses its backing array.
//
// Graph storage is recycled. Tasks and edges live in blocks, and an
// engine's growable slices (block list, task list and event heap) in a
// lists value; an engine takes both from process-wide sync.Pools with
// its first task, and Release zeroes them and hands them back. No task
// of a released engine may be read: Tasks is empty, Run fails, and a
// *Task kept from before points into whatever graph its block holds
// next. Blocks are pooled singly rather than as one storage per engine
// because a sync.Pool keeps one object per processor out of the others'
// reach: whole storages stranded there each grew to the largest graph
// seen, while single blocks circulate, and those a burst of large graphs
// left behind are dropped two collections after their last use. Zeroed,
// a pooled block keeps no earlier graph reachable.
//
// Resources outlive graphs. Reset re-arms a released engine for the next
// graph on the same resources, so a caller that simulates one cluster
// many times (a campaign) builds them once. What survives a reset is
// each resource with its Name, Rate, Latency and Speed, its creation
// order, and its FIFO's backing array, so a resource that once queued n
// tasks never grows its queue again for n. What is zeroed is the clock,
// the event queue, and each resource's busy flag, FIFO contents and
// BusyTime. A graph built after Reset schedules exactly as on a new
// engine with the same resources.
//
// Completions are ordered by (time, push sequence), and balanced
// schedules make many of them tie. One heap entry stands for a run: the
// tasks pushed one after another for one time, linked in push order
// through Task.next. A push for a later time joins the newest run if it
// has that time and starts a new run otherwise, so runs are contiguous
// stretches of the push sequence, and (time, run, position in run) is
// exactly (time, push sequence). Completions due at the current time
// (zero-duration barriers, zero-time tasks) skip the heap for a FIFO
// chained through the same field; each task is pushed once. Run pops the
// rest of the current run, then any other run due now (pushed before
// time reached now, so earlier than everything in the FIFO), then the
// FIFO, then the next run. The argument needs non-negative task times,
// which every cost in this repository is.
package sim

import (
	"fmt"
	"math"
	"sync"
)

// Time is simulated time in seconds.
type Time = float64

// Kind classifies a task for tracing and accounting.
type Kind uint8

// Task kinds. Barrier tasks carry no work; the remaining kinds mirror the
// operation classes in the paper's timeline analysis (Fig. 12).
const (
	KindBarrier Kind = iota
	KindCompute
	KindIntraComm
	KindInterComm
	KindMemOp
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindBarrier:
		return "barrier"
	case KindCompute:
		return "compute"
	case KindIntraComm:
		return "intra-comm"
	case KindInterComm:
		return "inter-comm"
	case KindMemOp:
		return "mem"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

type taskState uint8

const (
	statePending taskState = iota // waiting on dependencies
	stateQueued                   // dependencies met, waiting for resource
	stateRunning
	stateDone
)

// Resource is a serial FIFO executor. Rate is in bytes/second and is used
// for tasks that specify Size; it may be zero for pure-duration resources
// such as compute streams.
type Resource struct {
	Name string
	Rate float64 // bytes per second; 0 means duration-only resource
	// Latency is a fixed per-task overhead added to every task executed on
	// this resource (e.g. NCCL kernel launch, RDMA message setup).
	Latency Time
	// Speed scales this resource's effective execution rate: a task's work
	// time (duration plus rated transfer time, but not Latency) is divided
	// by Speed. Zero or one means nominal speed; 0.5 models a degraded
	// executor running at half rate (a throttled GPU, a flapping NIC).
	// The fault-injection layer sets this; healthy simulations leave it 0.
	Speed float64

	id   int
	busy bool
	// queue[head:] holds the tasks waiting for this resource, in the
	// order they became ready.
	queue []*Task
	head  int

	// BusyTime accumulates the total time this resource spent executing
	// tasks, for utilization reporting.
	BusyTime Time
}

// enqueue appends a ready task to the FIFO, first sliding the waiting
// tasks to the front when the backing array is full but has a consumed
// prefix, so a steadily busy resource never re-grows its queue.
func (r *Resource) enqueue(t *Task) {
	if r.head > 0 && len(r.queue) == cap(r.queue) {
		n := copy(r.queue, r.queue[r.head:])
		clear(r.queue[n:])
		r.queue, r.head = r.queue[:n], 0
	}
	r.queue = append(r.queue, t)
}

// dequeue pops the oldest waiting task, or returns nil if none waits.
func (r *Resource) dequeue() *Task {
	if r.head == len(r.queue) {
		return nil
	}
	t := r.queue[r.head]
	r.queue[r.head] = nil
	r.head++
	if r.head == len(r.queue) {
		r.queue, r.head = r.queue[:0], 0
	}
	return t
}

// Utilization returns the fraction of [0, makespan] this resource was busy.
func (r *Resource) Utilization(makespan Time) float64 {
	if makespan <= 0 {
		return 0
	}
	return r.BusyTime / makespan
}

// Task is a schedulable unit of work.
type Task struct {
	Label string
	Kind  Kind
	state taskState
	// Rank identifies the device this task belongs to, for tracing.
	Rank int
	// Duration is a fixed execution time. Used when Size is zero.
	Duration Time
	// Size is a transfer size in bytes; execution time is Size/res.Rate.
	Size float64

	id   int
	eng  *Engine
	res  *Resource
	deps int
	succ *edge // successors in the order After added them
	last *edge // tail of the succ list
	next *Task // the task completing after this one in its run or the FIFO

	// Start and End are filled in by Run.
	Start, End Time
}

// edge links a task to one of its successors.
type edge struct {
	to   *Task
	next *edge
}

// After declares that t runs only once all of the given tasks complete.
// Nil entries are ignored so callers can chain optional stages.
func (t *Task) After(deps ...*Task) *Task {
	for _, d := range deps {
		if d == nil {
			continue
		}
		ed := t.eng.newEdge(t)
		if d.last == nil {
			d.succ = ed
		} else {
			d.last.next = ed
		}
		d.last = ed
		t.deps++
	}
	return t
}

// blockTasks and blockEdges size a block, the unit in which graph
// storage is pooled: 256 tasks and 640 edges fill five 8 KB pages
// exactly. Emitted graphs use 1.9–2.2 edges per task, so a block's
// tasks run out first.
const (
	blockTasks = 256
	blockEdges = 640
)

// block holds tasks and edges. A pooled block is all zero, so it keeps
// no earlier graph, engine or resource reachable.
type block struct {
	tasks [blockTasks]Task
	edges [blockEdges]edge
}

// lists are an engine's growable slices, pooled with capacity kept: the
// blocks it took, the task list and the event heap. Entries past a
// slice's length are zero.
type lists struct {
	blocks []*block
	tasks  []*Task
	runs   runHeap
}

var (
	blockPool = sync.Pool{New: func() any { return new(block) }}
	listsPool = sync.Pool{New: func() any { return new(lists) }}
)

// Engine owns resources and tasks and advances simulated time.
type Engine struct {
	*lists // nil before the first task and after Release

	now       Time
	spare     []Task // unused tail of the current task block
	edges     []edge // unused tail of the current edge block
	taskBlock int    // blocks[:taskBlock] have handed out their tasks
	edgeBlock int    // blocks[:edgeBlock] have handed out their edges
	resources []*Resource
	ran       bool // set by Run and by Release

	// cur is the rest of the run popped last; newest is the last task
	// pushed onto a run and newestAt its time; dueHead and dueTail are
	// the ends of the zero-delay FIFO.
	cur, newest      *Task
	newestAt         Time
	dueHead, dueTail *Task
	runSeq           int

	// OnTaskDone, if set, is invoked after each task finishes, in
	// completion order. Only tests set it.
	OnTaskDone func(t *Task)
}

// NewEngine returns an empty engine. It takes pooled storage with its
// first task; call Release once nothing reads its tasks any more.
func NewEngine() *Engine {
	return &Engine{}
}

// nextBlock returns the engine's block *used, taking one from the pool
// when the engine holds no further block, and advances *used. Tasks and
// edges draw on the blocks each at their own pace.
func (e *Engine) nextBlock(used *int) *block {
	if *used == len(e.blocks) {
		e.blocks = append(e.blocks, blockPool.Get().(*block))
	}
	b := e.blocks[*used]
	*used++
	return b
}

// Release zeroes the engine's graph storage and returns it to the pool.
// Afterwards the engine has no tasks and cannot run, and no task it
// created may be read. Releasing twice is a no-op.
func (e *Engine) Release() {
	e.ran = true
	l := e.lists
	if l == nil {
		return
	}
	for i, b := range l.blocks {
		if i < e.taskBlock {
			clear(b.tasks[:])
		}
		if i < e.edgeBlock {
			clear(b.edges[:])
		}
		blockPool.Put(b)
	}
	clear(l.blocks)
	clear(l.tasks)
	// Run leaves the heap empty, its vacated slots zeroed, and cur and
	// the FIFO nil; newest still points into a block.
	l.blocks, l.tasks, l.runs = l.blocks[:0], l.tasks[:0], l.runs[:0]
	e.lists, e.spare, e.edges, e.newest = nil, nil, nil, nil
	listsPool.Put(l)
}

// Reset releases the engine's graph (see Release) and re-arms the engine
// for a new one on the same resources: the clock and the event queue
// start from zero, and every resource is idle, with zero BusyTime and an
// empty FIFO that keeps its backing array. The fields a caller sets on a
// resource, and OnTaskDone, are kept. Reset may follow Run, a failed Run
// or Release.
func (e *Engine) Reset() {
	e.Release()
	for _, r := range e.resources {
		clear(r.queue)
		r.queue, r.head, r.busy, r.BusyTime = r.queue[:0], 0, false, 0
	}
	*e = Engine{resources: e.resources, OnTaskDone: e.OnTaskDone}
}

// NewResource registers a serial FIFO resource.
func (e *Engine) NewResource(name string, rate float64) *Resource {
	r := &Resource{Name: name, Rate: rate, id: len(e.resources)}
	e.resources = append(e.resources, r)
	return r
}

// Tasks returns all registered tasks in creation order.
func (e *Engine) Tasks() []*Task {
	if e.lists == nil {
		return nil
	}
	return e.tasks
}

// NewTask registers a task. A nil resource makes the task a zero-cost
// barrier unless Duration is set, in which case it models unresourced
// latency (e.g. host-side bookkeeping).
func (e *Engine) NewTask(label string, kind Kind, rank int, res *Resource) *Task {
	if len(e.spare) == 0 {
		if e.lists == nil {
			e.lists = listsPool.Get().(*lists)
		}
		e.spare = e.nextBlock(&e.taskBlock).tasks[:]
	}
	// A block's tasks are zero until handed out (Release clears them), so
	// setting the fields one by one is the whole initialization; a
	// composite literal would be built on the stack and copied.
	t := &e.spare[0]
	e.spare = e.spare[1:]
	t.Label, t.Kind, t.Rank, t.res, t.id, t.eng = label, kind, rank, res, len(e.tasks), e
	e.tasks = append(e.tasks, t)
	return t
}

func (e *Engine) newEdge(to *Task) *edge {
	if len(e.edges) == 0 {
		e.edges = e.nextBlock(&e.edgeBlock).edges[:]
	}
	ed := &e.edges[0]
	e.edges = e.edges[1:]
	*ed = edge{to: to}
	return ed
}

// Compute is a convenience wrapper for a fixed-duration task on a resource.
func (e *Engine) Compute(label string, rank int, res *Resource, d Time) *Task {
	t := e.NewTask(label, KindCompute, rank, res)
	t.Duration = d
	return t
}

// Transfer is a convenience wrapper for a sized task on a rated resource.
func (e *Engine) Transfer(label string, kind Kind, rank int, res *Resource, bytes float64) *Task {
	t := e.NewTask(label, kind, rank, res)
	t.Size = bytes
	return t
}

// Barrier is a zero-cost join point.
func (e *Engine) Barrier(label string, rank int) *Task {
	return e.NewTask(label, KindBarrier, rank, nil)
}

// run is a heap entry: the tasks due at one time that were pushed one
// after another, from head along Task.next. seq numbers runs in the
// order they were started.
type run struct {
	at   Time
	seq  int
	head *Task
}

// runHeap is a binary min-heap on (at, seq). Its sift steps are those of
// container/heap, specialized to run so nothing is boxed.
type runHeap []run

func (h runHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *runHeap) push(r run) {
	*h = append(*h, r)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *runHeap) pop() run {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	r := q[n]
	q[n] = run{}
	*h = q[:n]
	return r
}

// push schedules t to complete at at: onto the zero-delay FIFO when at
// is the current time; otherwise onto the newest run if that run is due
// at at, and as a new run on the heap if not.
func (e *Engine) push(at Time, t *Task) {
	switch {
	case at == e.now:
		if e.dueTail == nil {
			e.dueHead = t
		} else {
			e.dueTail.next = t
		}
		e.dueTail = t
		return
	case at == e.newestAt && e.newest != nil:
		e.newest.next = t
	default:
		e.runs.push(run{at: at, seq: e.runSeq, head: t})
		e.runSeq++
		e.newestAt = at
	}
	e.newest = t
}

// pop returns the next task to complete in (time, push) order, advancing
// the clock, or nil when no event is left: the rest of the current run,
// another run due now, the FIFO, then the next run.
func (e *Engine) pop() *Task {
	if t := e.cur; t != nil {
		e.cur = t.next
		return t
	}
	if len(e.runs) > 0 && (e.runs[0].at == e.now || e.dueHead == nil) {
		r := e.runs.pop()
		e.now = r.at
		e.cur = r.head.next
		return r.head
	}
	t := e.dueHead
	if t != nil {
		e.dueHead = t.next
		if e.dueHead == nil {
			e.dueTail = nil
		}
	}
	return t
}

func (t *Task) execTime() Time {
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

func (e *Engine) ready(t *Task) {
	if t.res == nil {
		t.state = stateRunning
		t.Start = e.now
		e.push(e.now+t.execTime(), t)
		return
	}
	t.state = stateQueued
	if t.res.busy {
		t.res.enqueue(t)
		return
	}
	e.start(t)
}

func (e *Engine) start(t *Task) {
	t.state = stateRunning
	t.Start = e.now
	t.res.busy = true
	d := t.execTime()
	t.res.BusyTime += d
	e.push(e.now+d, t)
}

// Run executes the task graph to completion and returns the makespan.
// It returns an error if the dependency graph has a cycle (some tasks can
// never run). Run may be called once per graph: once on a new engine or
// after Reset, and not after Release.
func (e *Engine) Run() (Time, error) {
	if e.ran {
		return 0, fmt.Errorf("sim: engine already ran or was released")
	}
	e.ran = true
	if e.lists == nil {
		return 0, nil // no tasks
	}
	for _, t := range e.tasks {
		if t.deps == 0 {
			e.ready(t)
		}
	}
	done := 0
	for t := e.pop(); t != nil; t = e.pop() {
		t.state = stateDone
		t.End = e.now
		done++
		if t.res != nil {
			t.res.busy = false
			if next := t.res.dequeue(); next != nil {
				e.start(next)
			}
		}
		for ed := t.succ; ed != nil; ed = ed.next {
			s := ed.to
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
		var stuck []string
		for _, t := range e.tasks {
			if t.state != stateDone {
				stuck = append(stuck, fmt.Sprintf("%s@%d", t.Label, t.Rank))
				if len(stuck) >= 5 {
					break
				}
			}
		}
		return 0, fmt.Errorf("sim: deadlock, %d/%d tasks completed (stuck: %v)", done, len(e.tasks), stuck)
	}
	return e.now, nil
}

// Makespan returns the completion time of the latest task; valid after Run.
func (e *Engine) Makespan() Time { return e.now }

// KindTotals sums busy time per task kind across all completed tasks.
// Overlapping tasks are counted independently, so totals can exceed the
// makespan; this mirrors per-stream accounting in profiler timelines.
func (e *Engine) KindTotals() map[Kind]Time {
	out := make(map[Kind]Time)
	for _, t := range e.Tasks() {
		if t.state == stateDone {
			out[t.Kind] += t.End - t.Start
		}
	}
	return out
}

// CriticalPath returns the longest dependency chain's total duration,
// ignoring resource contention. It lower-bounds the makespan and is used
// in tests to validate the scheduler.
func (e *Engine) CriticalPath() Time {
	// Tasks were created in topological-compatible order only if callers
	// added dependencies to already-created tasks; handle the general case
	// with a memoized DFS over successors instead.
	tasks := e.Tasks()
	memo := make([]Time, len(tasks))
	for i := range memo {
		memo[i] = -1
	}
	var longest func(t *Task) Time
	longest = func(t *Task) Time {
		if memo[t.id] >= 0 {
			return memo[t.id]
		}
		memo[t.id] = 0 // cycle guard; graphs here are DAGs by construction
		best := Time(0)
		for ed := t.succ; ed != nil; ed = ed.next {
			if v := longest(ed.to); v > best {
				best = v
			}
		}
		memo[t.id] = best + t.execTime()
		return memo[t.id]
	}
	best := Time(0)
	for _, t := range tasks {
		if v := longest(t); v > best {
			best = v
		}
	}
	return best
}

// AlmostEqual reports whether two times are equal within a small tolerance,
// for use in tests that compare schedules built through different paths.
func AlmostEqual(a, b Time) bool {
	const eps = 1e-9
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= eps*scale
}
