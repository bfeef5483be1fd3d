package main

import (
	"fmt"
	"runtime/metrics"

	"zeppelin/internal/campaign"
	"zeppelin/internal/cluster"
	"zeppelin/internal/partition"
	"zeppelin/internal/remap"
	"zeppelin/internal/seq"
	"zeppelin/internal/sim"
	"zeppelin/internal/trainer"
)

// markKind names one span boundary the benchmark records. Spans are
// recorded outside-in: from the benchmark's own code around each call
// into a module's public functions, never inside the program.
type markKind uint8

const (
	mOpStart markKind = iota
	mOpEnd
	mStartStart // campaign.Start (serve: the timeline is expanded here)
	mStartEnd
	mBatchStart // trainer.Config.Batch or campaign.Arrival.Batch
	mBatchEnd
	mEnvStart // trainer.Config.NewEnv
	mEnvEnd
	mZepPlanStart  // Method.Plan of a Zeppelin planner
	mBasePlanStart // Method.Plan of a baseline
	mPlanEnd
	mRunStart // trainer.RunPlanned
	mRunEnd
	mAttnStart // Placement.EmitAttention
	mAttnEnd
	mRemapStart // Placement.EmitRemapToLinear / EmitRemapToAttention
	mRemapEnd
	mLinStart // Placement.LinearEffectiveTokens
	mLinEnd
	mHostStart // Placement.HostOverhead, called right after sim.Engine.Run
	mHostEnd
	mModeCall // PlanModeReporter.LastPlanMode, called after trainer.Run
)

// layer is one bucket of attributed op time.
type layer uint8

const (
	lUnattributed layer = iota
	lSample             // workload: batch sampling
	lTimeline           // workload: serve timeline expansion (campaign.Start)
	lEnv                // trainer: NewEnv
	lZepPlan            // zeppelin: Method.Plan
	lBasePlan           // baselines: Method.Plan
	lAttn               // attention: EmitAttention
	lRemap              // remap: EmitRemapTo*
	lLinear             // trainer: linear-module emit
	lSim                // sim: Engine.Run
	lPhases             // trainer: RunPlanned's own code around the stages
	lCampaign           // campaign: the loop's own code
	numLayers
)

// mark is one recorded boundary: process CPU and the heap allocation
// count at that instant.
type mark struct {
	kind   markKind
	cpu    int64
	allocs uint64
}

// planCall is one Method.Plan call seen by the decorator, kept so the
// benchmark can read plan facts and re-time the partition and remap
// solves on the same inputs after the op. It holds the plan's inputs
// and results but neither the environment nor the placement: both
// reach the iteration's whole task graph, and keeping a campaign's
// graphs alive until the op ends would inflate the GC work the trace
// measures.
type planCall struct {
	cluster  *cluster.Cluster
	capacity int
	actBytes float64 // bytes per token of one activation
	batch    []seq.Sequence
	zep      bool
	plan     *seq.Plan   // Zeppelin placements only
	remap    *remap.Plan // nil without the remap layer
	tasks    int
	host     float64 // modeled host overhead, seconds
}

// tracer records the marks of one unit: a replayed plan request, or a
// campaign with all its ops. It is single-goroutine, like the campaign
// stream it observes.
type tracer struct {
	marks  []mark
	calls  []planCall
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		marks:  make([]mark, 0, 1<<14),
		sample: []metrics.Sample{{Name: mAllocObjects}},
	}
}

func (tr *tracer) mark(k markKind) {
	metrics.Read(tr.sample)
	tr.marks = append(tr.marks, mark{kind: k, cpu: cpuNow(), allocs: tr.sample[0].Value.Uint64()})
}

func (tr *tracer) reset() {
	tr.marks = tr.marks[:0]
	tr.calls = tr.calls[:0]
}

// attribute assigns the interval between two consecutive marks to a
// layer. RunPlanned calls HostOverhead immediately after sim.Engine.Run
// returns, so the interval from the backward attention emit to that call
// is the simulation. In serve campaigns nothing public follows
// trainer.Run, so the phase fold after HostOverhead is counted with the
// campaign loop.
func attribute(prev, next markKind, serve bool) layer {
	switch prev {
	case mStartStart:
		if serve {
			return lTimeline
		}
		return lCampaign
	case mBatchStart:
		return lSample
	case mEnvStart:
		return lEnv
	case mZepPlanStart:
		return lZepPlan
	case mBasePlanStart:
		return lBasePlan
	case mAttnStart:
		return lAttn
	case mRemapStart:
		return lRemap
	case mLinStart, mLinEnd:
		return lLinear
	case mHostStart:
		return lPhases
	case mPlanEnd, mRunStart:
		return lPhases
	case mAttnEnd:
		if next == mHostStart {
			return lSim
		}
		return lPhases
	case mRemapEnd:
		if next == mLinStart {
			return lLinear
		}
		return lPhases
	case mHostEnd:
		if next == mRunEnd || next == mModeCall {
			return lPhases
		}
		return lCampaign
	case mOpStart, mStartEnd, mBatchEnd, mModeCall:
		switch next {
		case mZepPlanStart, mBasePlanStart, mBatchStart, mStartStart, mOpEnd:
			if prev == mBatchEnd && next == mOpEnd {
				return lUnattributed
			}
			return lCampaign
		}
	}
	return lUnattributed
}

// opSpans folds one op's marks into per-layer CPU and allocation totals.
type opSpans struct {
	cpu    [numLayers]int64
	allocs [numLayers]uint64
}

func (tr *tracer) fold(serve, replay bool) opSpans {
	var s opSpans
	for i := 1; i < len(tr.marks); i++ {
		a, b := tr.marks[i-1], tr.marks[i]
		if a.kind == mOpEnd {
			continue // between two ops
		}
		l := attribute(a.kind, b.kind, serve)
		if replay && l == lCampaign {
			// A plan replay has no campaign loop: the gaps between its
			// top-level calls are the benchmark's own bookkeeping.
			l = lUnattributed
		}
		s.cpu[l] += b.cpu - a.cpu
		s.allocs[l] += b.allocs - a.allocs
	}
	return s
}

// reporter is the planner introspection a campaign reads from
// stateful Zeppelin planners.
type reporter interface {
	campaign.PlanModeReporter
	PlannerCounters() partition.Counters
}

// tracedMethod decorates a trainer.Method with spans at Plan and on the
// placement it returns. The optional campaign interfaces whose answer
// is a flag (SpeedAware, ShapeIndependent) or an action (Replanner) are
// forwarded with the same result an undecorated method gives.
type tracedMethod struct {
	inner trainer.Method
	tr    *tracer
	zep   bool
}

// tracedReporter adds the planner introspection, present exactly when
// the inner method has it: a campaign emits placement records only for
// methods that report a plan mode.
type tracedReporter struct {
	*tracedMethod
	rep reporter
}

// decorate wraps a method for tracing. zep marks Zeppelin planners.
func decorate(m trainer.Method, tr *tracer, zep bool) (trainer.Method, error) {
	tm := &tracedMethod{inner: m, tr: tr, zep: zep}
	_, hasMode := m.(campaign.PlanModeReporter)
	rep, hasBoth := m.(reporter)
	switch {
	case hasBoth:
		return tracedReporter{tracedMethod: tm, rep: rep}, nil
	case hasMode:
		return nil, fmt.Errorf("trace: %s reports a plan mode without planner counters", m.Name())
	}
	return tm, nil
}

func (m *tracedMethod) Name() string { return m.inner.Name() }

func (m *tracedMethod) SpeedAware() bool {
	sa, ok := m.inner.(campaign.SpeedAware)
	return ok && sa.SpeedAware()
}

func (m *tracedMethod) ShapeIndependent() bool {
	si, ok := m.inner.(campaign.ShapeIndependent)
	return ok && si.ShapeIndependent()
}

func (m *tracedMethod) ResetPlanner() {
	if rp, ok := m.inner.(campaign.Replanner); ok {
		rp.ResetPlanner()
	}
}

func (m *tracedMethod) Plan(env *trainer.Env, batch []seq.Sequence) (trainer.Placement, error) {
	start := mBasePlanStart
	if m.zep {
		start = mZepPlanStart
	}
	m.tr.mark(start)
	pl, err := m.inner.Plan(env, batch)
	m.tr.mark(mPlanEnd)
	if err != nil {
		return nil, err
	}
	call := planCall{
		cluster: env.C, capacity: env.CapacityTokens, actBytes: env.CM.ActBytes(1),
		batch: batch, zep: m.zep,
	}
	tp := &tracedPlacement{inner: pl, tr: m.tr, env: env, call: len(m.tr.calls)}
	pc, hasPlan := pl.(planCarrier)
	rc, hasRemap := pl.(remapCarrier)
	var out trainer.Placement = tp
	switch {
	case hasPlan && hasRemap:
		call.plan, call.remap = pc.Plan(), rc.RemapPlan()
		out = tracedPlanPlacement{tracedPlacement: tp, plan: pc, remap: rc}
	case hasPlan || hasRemap:
		return nil, fmt.Errorf("trace: %s placement exposes only one of Plan and RemapPlan", m.inner.Name())
	}
	m.tr.calls = append(m.tr.calls, call)
	return out, nil
}

func (m tracedReporter) LastPlanMode() string {
	m.tr.mark(mModeCall)
	return m.rep.LastPlanMode()
}

func (m tracedReporter) PlannerCounters() partition.Counters { return m.rep.PlannerCounters() }

// planCarrier and remapCarrier are the plan facts Zeppelin placements
// expose; the public planner reads them for its response.
type planCarrier interface{ Plan() *seq.Plan }
type remapCarrier interface{ RemapPlan() *remap.Plan }

// tracedPlacement records spans around every Placement call.
type tracedPlacement struct {
	inner trainer.Placement
	tr    *tracer
	env   *trainer.Env
	call  int
}

// tracedPlanPlacement forwards the plan facts of placements that have
// them.
type tracedPlanPlacement struct {
	*tracedPlacement
	plan  planCarrier
	remap remapCarrier
}

func (p tracedPlanPlacement) Plan() *seq.Plan        { return p.plan.Plan() }
func (p tracedPlanPlacement) RemapPlan() *remap.Plan { return p.remap.RemapPlan() }

func (p *tracedPlacement) EmitAttention(env *trainer.Env, backward bool, deps ...*sim.Task) *sim.Task {
	p.tr.mark(mAttnStart)
	t := p.inner.EmitAttention(env, backward, deps...)
	p.tr.mark(mAttnEnd)
	return t
}

func (p *tracedPlacement) EmitRemapToLinear(env *trainer.Env, deps ...*sim.Task) *sim.Task {
	p.tr.mark(mRemapStart)
	t := p.inner.EmitRemapToLinear(env, deps...)
	p.tr.mark(mRemapEnd)
	return t
}

func (p *tracedPlacement) EmitRemapToAttention(env *trainer.Env, deps ...*sim.Task) *sim.Task {
	p.tr.mark(mRemapStart)
	t := p.inner.EmitRemapToAttention(env, deps...)
	p.tr.mark(mRemapEnd)
	return t
}

func (p *tracedPlacement) LinearEffectiveTokens(env *trainer.Env) []float64 {
	p.tr.mark(mLinStart)
	v := p.inner.LinearEffectiveTokens(env)
	p.tr.mark(mLinEnd)
	return v
}

func (p *tracedPlacement) MicroBatches() int { return p.inner.MicroBatches() }

func (p *tracedPlacement) HostOverhead() float64 {
	p.tr.mark(mHostStart)
	v := p.inner.HostOverhead()
	c := &p.tr.calls[p.call]
	c.tasks, c.host = len(p.env.E.Tasks()), v
	p.tr.mark(mHostEnd)
	return v
}
