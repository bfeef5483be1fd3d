// Package campaign is the streaming long-horizon simulation layer: it
// runs a training Method over hundreds of iterations of an arriving,
// drifting workload instead of the single batches the paper's figures
// measure. Each iteration a batch arrives (Arrival), a replanning
// controller (Policy) decides whether to re-run the partitioner or
// reuse the previous placement skeleton, and the iteration is simulated
// end to end — charging a configurable replan cost when planning runs
// and a balance penalty when a stale skeleton is stretched over a batch
// it was not built for. An online metrics layer accumulates the
// per-iteration stream (time percentiles, tokens/sec, imbalance and
// per-rank utilization histories) into a JSON-exportable Report that
// internal/trace can render as an iteration timeline.
//
// Campaigns are deterministic per (Config, seed): all randomness flows
// from one sequential RNG, so fanning campaigns across seeds or methods
// with internal/runner.ForEach is bit-identical to running them serially.
//
// A campaign can additionally run under a fault-and-elasticity schedule
// (internal/faults): per-rank straggler windows and NIC degradations
// flow into the iteration's simulation as an effective-speed cluster
// view, elastic shrink/grow events resize the active cluster
// mid-campaign (migrating sequence state through the Eq. 2 remapping
// solver, or paying a checkpoint restart on fail-stop), and the
// replanning controller sees speed-weighted projections for methods
// that re-plan against the degraded view.
package campaign

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"zeppelin/internal/cluster"
	"zeppelin/internal/decision"
	"zeppelin/internal/faults"
	"zeppelin/internal/partition"
	"zeppelin/internal/runner"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
)

// ShapeIndependent is implemented by methods whose placement does not
// depend on the batch's shape: even-splitting strategies shard every
// sequence the same way whatever arrives, so a campaign never replans
// them and they never pay a staleness penalty. TE CP and LLaMA CP opt in.
type ShapeIndependent interface {
	ShapeIndependent() bool
}

// Replanner is implemented by stateful methods whose planner carries
// state across iterations — plan caches, incremental patch bases
// (zeppelin.Incremental opts in). The campaign resets that state at Run
// start so a reused method instance produces the same stream run over
// run; sharing one Replanner instance across concurrent grid cells is a
// caller bug.
type Replanner interface {
	ResetPlanner()
}

// PlanModeReporter is implemented by methods whose planner can name the
// fast path its most recent Plan call took ("full", "patched", "cached",
// "shared"). The campaign loop uses it to emit placement decision
// records; zeppelin.Incremental opts in.
type PlanModeReporter interface {
	LastPlanMode() string
}

// SpeedAware is implemented by methods that re-plan against the degraded
// effective-speed cluster view (Zeppelin opts in): their fresh-plan and
// stale-plan projections weight rank loads by slowdown, so straggler
// onset raises the projected stale imbalance and triggers replanning.
// Speed-oblivious methods keep homogeneous projections — replanning
// would not route them around a straggler, and the controller should
// not thrash trying.
type SpeedAware interface {
	SpeedAware() bool
}

// Config describes one campaign: the cluster/model cell, the method
// under test, the arrival process, and the replanning controller.
type Config struct {
	// Trainer is the per-iteration simulation cell; its Seed seeds the
	// campaign's single RNG stream.
	Trainer trainer.Config
	Method  trainer.Method
	// Iters is the campaign horizon (≥ 1).
	Iters int
	// Arrival generates each iteration's batch; default Steady(arxiv).
	Arrival Arrival
	// Policy decides when to re-run the partitioner; default Threshold.
	Policy Policy
	// ReplanCost is the per-replan coordination charge in seconds — the
	// cost of re-running the solver, broadcasting the new placement, and
	// draining in-flight micro-batches. Zero selects DefaultReplanCost;
	// a negative value is a validation error (use a small positive value
	// to approximate free replanning).
	ReplanCost float64
	// ReuseOverhead is the bookkeeping charge of a reuse iteration in
	// seconds (routing the batch through the frozen skeleton). Zero
	// selects DefaultReuseOverhead; a negative value means free.
	ReuseOverhead float64
	// Faults is the fault-and-elasticity schedule the campaign runs
	// under; nil means a healthy fixed-size cluster (bit-identical to
	// pre-fault-layer campaigns).
	Faults *faults.Schedule
	// Autoscaler, when non-nil, closes the elasticity loop: the campaign
	// grows and shrinks its own world from observed queue depth and
	// utilization instead of replaying a declared schedule, paying the
	// same Eq. 2 state migration on every transition. Mutually exclusive
	// with Faults — the two both own the world size.
	Autoscaler *Autoscaler
	// MigrateBytesPerToken scales elastic state migrations: bytes of
	// resident sequence state per token shipped through the Eq. 2 solver
	// on planned shrink/grow transitions. Zero derives the model's KV
	// footprint (2 × hidden × bytes × layers / TP); negative means
	// migrations are free.
	MigrateBytesPerToken float64
	// Decisions, when non-nil, records every replan/admission/placement
	// choice the campaign loop makes, with the scored alternatives each
	// site considered. Records are appended from the single campaign
	// goroutine in iteration order, so the trace is deterministic per
	// (Config, seed) at any worker count. The trace is Reset at Start.
	// Nil disables tracing entirely (zero overhead on the hot loop).
	Decisions *decision.Trace
	// Flip, when non-nil, overrides the replan verdict at exactly one
	// iteration — the counterfactual replay hook. Forced decisions (first
	// iteration, post-resize) are not flippable and the override is
	// ignored there; a flip that matches the factual verdict changes
	// nothing, keeping the stream bit-identical.
	Flip *Flip
	// Serve, when non-nil, switches the campaign to an inference-style
	// request stream: SLO-classed requests arrive on a multi-client
	// timeline, each iteration forms and routes one batch, and the report
	// gains per-class latency/goodput/violation metrics. Iters caps the
	// number of serving ticks; the stream ends early once the timeline
	// drains. Mutually exclusive with Arrival, Faults, Autoscaler, and
	// Flip.
	Serve *ServeConfig
}

// Flip names one replan decision to invert during a counterfactual
// re-run: at iteration Iter, force the verdict to Replan instead of
// whatever the policy decides.
type Flip struct {
	Iter   int
	Replan bool
}

// Default iteration charges; see Config.ReplanCost / Config.ReuseOverhead.
const (
	DefaultReplanCost    = 20e-3
	DefaultReuseOverhead = 0.2e-3
)

// Validate fills defaults and checks the configuration. Errors are
// validation-classified (IsValidation) so the HTTP layer can answer bad
// inputs with a structured 400.
func (c *Config) Validate() error {
	if c.Method == nil {
		return validationf("campaign: no method")
	}
	if c.Iters <= 0 {
		return validationf("campaign: iters must be >= 1, got %d", c.Iters)
	}
	if err := c.Trainer.Validate(); err != nil {
		return asValidation(err)
	}
	if c.Serve != nil {
		if err := c.validateServe(); err != nil {
			return err
		}
	} else {
		if c.Arrival == nil {
			c.Arrival = Steady{D: workload.ArXiv}
		}
		if v, ok := c.Arrival.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return asValidation(err)
			}
		}
		if c.Policy == nil {
			c.Policy = Threshold{}
		}
	}
	if !(c.ReplanCost >= 0) || math.IsInf(c.ReplanCost, 1) {
		return validationf("campaign: replan cost must be finite and >= 0 seconds, got %g", c.ReplanCost)
	}
	if c.ReplanCost == 0 {
		c.ReplanCost = DefaultReplanCost
	}
	switch {
	case c.ReuseOverhead == 0:
		c.ReuseOverhead = DefaultReuseOverhead
	case c.ReuseOverhead < 0:
		c.ReuseOverhead = 0
	}
	if c.Faults != nil {
		espec := c.Trainer.EffectiveSpec()
		if err := c.Faults.Validate(c.Trainer.Nodes, espec.GPUsPerNode, espec.NICsPerNode); err != nil {
			return asValidation(err)
		}
	}
	if c.Autoscaler != nil {
		if c.Faults != nil {
			return validationf("campaign: autoscaler and fault schedule are mutually exclusive (both own the world size)")
		}
		if err := c.Autoscaler.validate(c.Trainer.Nodes); err != nil {
			return asValidation(err)
		}
	}
	switch {
	case c.MigrateBytesPerToken == 0:
		c.MigrateBytesPerToken = 2 * float64(c.Trainer.Model.Hidden) *
			float64(c.Trainer.Model.BytesPerElem) * float64(c.Trainer.Model.Layers) /
			float64(c.Trainer.TP)
	case c.MigrateBytesPerToken < 0:
		c.MigrateBytesPerToken = 0
	}
	return nil
}

// shapeIndependent reports whether the method opts out of replanning.
func (c *Config) shapeIndependent() bool {
	si, ok := c.Method.(ShapeIndependent)
	return ok && si.ShapeIndependent()
}

// speedAware reports whether the method re-plans against degraded views.
func (c *Config) speedAware() bool {
	sa, ok := c.Method.(SpeedAware)
	return ok && sa.SpeedAware()
}

// Stream is an in-flight campaign: the iterator-style counterpart of
// Run. Start validates the configuration and primes the loop state; each
// Next call simulates exactly one iteration and returns its IterRecord,
// so callers — the public pkg/zeppelin Campaign API, the zeppelind
// NDJSON event stream — can consume the campaign record by record
// instead of all at once. Draining a Stream produces the byte-identical
// record sequence and Report that Run returns for the same Config.
//
// A Stream is single-goroutine: the loop is serial by construction
// (iteration t+1's controller state depends on t), so parallelism lives
// one level up, across (method × policy × seed) cells.
type Stream struct {
	ctx context.Context
	cfg Config

	// Derived once at Start.
	espec      cluster.Spec
	rpn        int // DP ranks per node
	baseWorld  int
	capacity   int
	baseTokens int
	shapeIndep bool
	speedAware bool
	layers     float64

	// Loop state carried across iterations.
	rng         *rand.Rand
	stale       *slotPlan
	sinceReplan int
	prevTokens  int
	it          int
	busySum     []float64
	spanSum     float64

	// Autoscaler state: the world the last iteration ran on, the world
	// the next one will run on (decided at end of iteration), and the
	// iterations elapsed since the last transition took effect.
	curNodes   int
	nextNodes  int
	sinceScale int

	// serve is the request-stream state of serving campaigns (nil for
	// training campaigns).
	serve *serveState

	report *Report
	err    error
	done   bool
}

// Start validates the configuration and returns a primed Stream. The
// context governs the whole campaign: once it is cancelled, the next
// Next call stops the stream and Err reports ctx.Err(). A nil context
// means Background.
func Start(ctx context.Context, cfg Config) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rp, ok := cfg.Method.(Replanner); ok {
		rp.ResetPlanner()
	}
	if cfg.Decisions != nil {
		cfg.Decisions.Reset()
	}
	espec := cfg.Trainer.EffectiveSpec()
	baseWorld := cfg.Trainer.GPUs() / cfg.Trainer.TP
	st := &Stream{
		ctx:        ctx,
		cfg:        cfg,
		espec:      espec,
		rpn:        espec.GPUsPerNode,
		baseWorld:  baseWorld,
		capacity:   int(cfg.Trainer.CapacityFactor * float64(cfg.Trainer.TokensPerGPU*cfg.Trainer.TP)),
		baseTokens: cfg.Trainer.TotalTokens(),
		shapeIndep: cfg.shapeIndependent(),
		speedAware: cfg.speedAware(),
		layers:     float64(cfg.Trainer.Model.Layers),
		rng:        rand.New(rand.NewSource(cfg.Trainer.Seed)),
		busySum:    make([]float64, baseWorld),
		report:     &Report{Records: make([]IterRecord, 0, cfg.Iters)},
	}
	if as := cfg.Autoscaler; as != nil {
		// Start at the ceiling and shrink into the load: the first
		// decision is eligible immediately (no transition to cool from).
		st.curNodes = as.MaxNodes
		st.nextNodes = as.MaxNodes
		st.sinceScale = as.Cooldown
	}
	if cfg.Serve != nil {
		if err := st.startServe(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Next simulates the next iteration and returns its record. It returns
// ok=false when the campaign completed, the context was cancelled, or an
// iteration failed — Err distinguishes the three (nil on completion).
func (s *Stream) Next() (IterRecord, bool) {
	if s.done {
		return IterRecord{}, false
	}
	if s.it >= s.cfg.Iters || (s.serve != nil && s.serve.drained()) {
		s.finish()
		return IterRecord{}, false
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		s.finish()
		return IterRecord{}, false
	}
	var rec IterRecord
	var err error
	if s.serve != nil {
		rec, err = s.stepServe()
	} else {
		rec, err = s.step()
	}
	if err != nil {
		s.err = err
		s.finish()
		return IterRecord{}, false
	}
	s.report.Records = append(s.report.Records, rec)
	s.it++
	return rec, true
}

// Err reports why the stream stopped: nil while records keep coming and
// after a complete campaign, the context error after a cancellation, or
// the failing iteration's error.
func (s *Stream) Err() error { return s.err }

// Report returns the campaign report accumulated so far. After Next has
// returned false the report is finalized (per-rank utilization and the
// summary computed over the records that ran — all of them for a
// complete campaign, a prefix for a cancelled one).
func (s *Stream) Report() *Report { return s.report }

// finish seals the stream: per-rank utilization and the summary fold
// over whatever records were produced.
func (s *Stream) finish() {
	if s.done {
		return
	}
	s.done = true
	s.report.PerRankUtil = make([]float64, s.baseWorld)
	if s.spanSum > 0 {
		for r := range s.busySum {
			f := s.busySum[r] / s.spanSum
			if f > 1 {
				f = 1
			}
			s.report.PerRankUtil[r] = f
		}
	}
	if s.serve != nil {
		s.finishServe()
		return
	}
	s.report.summarize(s.cfg.Method.Name(), s.cfg.Arrival.Name(), policyLabel(&s.cfg))
}

// step simulates one iteration — the body of the campaign loop.
func (s *Stream) step() (IterRecord, error) {
	cfg := &s.cfg
	it := s.it
	// Resolve the iteration's cluster state under the fault schedule:
	// active node count, effective-speed view, transition events.
	view := faults.View{Nodes: cfg.Trainer.Nodes, PrevNodes: cfg.Trainer.Nodes}
	switch {
	case cfg.Faults != nil:
		view = cfg.Faults.At(it, cfg.Trainer.Nodes, s.rpn, s.espec.NICsPerNode)
	case cfg.Autoscaler != nil:
		// Apply the transition the autoscaler decided at the end of the
		// previous iteration; the synthesized view flows through the same
		// elastic-resize machinery as a scheduled shrink/grow event.
		view = faults.View{Nodes: s.nextNodes, PrevNodes: s.curNodes}
		if s.nextNodes != s.curNodes {
			view.Resized = true
			dir := "scale-up"
			if s.nextNodes < s.curNodes {
				dir = "scale-down"
			}
			view.Events = []string{fmt.Sprintf("%s:nodes=%d", dir, s.nextNodes)}
		}
		s.curNodes = s.nextNodes
	}
	world := view.Nodes * s.rpn
	var recovery float64
	if view.Resized {
		// Elastic transition: the stale skeleton addresses a rank set
		// that no longer exists; every shape-dependent method must
		// replan. Fail-stop loses state and pays the checkpoint
		// restart; planned shrink/grow migrates it through Eq. 2.
		s.stale = nil
		if view.FailStop {
			recovery += cfg.Faults.Restart()
		} else {
			_, mig, err := faults.Migration(s.espec, view.PrevNodes, view.Nodes,
				s.prevTokens, cfg.MigrateBytesPerToken)
			if err != nil {
				return IterRecord{}, fmt.Errorf("campaign: iteration %d migration: %w", it, err)
			}
			recovery += mig
		}
	}
	// Speed-aware methods project plans against the degraded view;
	// oblivious ones keep homogeneous projections (replanning would
	// not help them around a straggler).
	var slow []float64
	if s.speedAware && view.Health.Degraded() {
		slow = make([]float64, world)
		for r := range slow {
			slow[r] = view.Health.SlowOf(r)
		}
	}

	batch := cfg.Arrival.Batch(it, s.baseTokens, s.rng)
	if len(batch) == 0 {
		// A bad trace or degenerate process is an input problem, not a
		// simulation failure: classify it so the HTTP layer answers 400.
		return IterRecord{}, validationf("campaign: arrival %s produced an empty batch at iteration %d", cfg.Arrival.Name(), it)
	}
	// Admission control: no iteration can place more tokens than the
	// partitioners' total capacity, so overload arrivals (bursts,
	// Poisson spikes) — and nominal arrivals landing on an elastically
	// shrunk cluster — are trimmed to fit and the excess is deferred;
	// in a real system those samples re-enter the stream later.
	batch, deferred := admit(batch, world*s.capacity)
	if cfg.Decisions != nil && deferred > 0 {
		admitted := seq.TotalLen(batch)
		drec := decision.Record{
			Iter: it, Kind: decision.KindAdmission, Chosen: "trim",
			Alternatives: []decision.Alternative{
				{Choice: "admit-all", Score: float64(admitted + deferred)},
				{Choice: "trim", Score: float64(admitted), Chosen: true},
			},
		}
		if cfg.Faults != nil || cfg.Autoscaler != nil {
			drec.World = world
			drec.Events = view.Events
		}
		cfg.Decisions.Add(drec)
	}

	// Project both placements for the incoming batch: what a fresh
	// plan would achieve and what reusing the stale skeleton costs.
	// Shape-independent methods skip the projection entirely — they
	// have no plan skeleton to manage.
	var fresh *slotPlan
	var staleImb float64
	replan := false
	flipped := false
	if !s.shapeIndep {
		fresh = buildSlotPlan(batch, world, s.capacity, slow)
		staleImb = fresh.imbalance
		if s.stale != nil {
			staleImb = s.stale.fill(batch, slow)
		}
		forced := s.stale == nil
		replan = forced || cfg.Policy.ShouldReplan(PolicyState{
			Iter:           it,
			SinceReplan:    s.sinceReplan,
			StaleImbalance: staleImb,
			FreshImbalance: fresh.imbalance,
		})
		// The counterfactual override: invert exactly one non-forced
		// verdict. A flip that agrees with the factual verdict is a no-op,
		// so a replay with that flip stays bit-identical.
		if cfg.Flip != nil && cfg.Flip.Iter == it && !forced && replan != cfg.Flip.Replan {
			replan = cfg.Flip.Replan
			flipped = true
		}
		if cfg.Decisions != nil {
			drec := decision.Record{
				Iter: it, Kind: decision.KindReplan,
				Chosen: "reuse", Forced: forced, Flipped: flipped,
				Policy:         cfg.Policy.Name(),
				StaleImbalance: staleImb,
				FreshImbalance: fresh.imbalance,
				SinceReplan:    s.sinceReplan,
				Alternatives: []decision.Alternative{
					{Choice: "replan", Score: fresh.imbalance, Chosen: replan},
					{Choice: "reuse", Score: staleImb, Chosen: !replan},
				},
			}
			if replan {
				drec.Chosen = "replan"
			}
			if th, ok := cfg.Policy.(Threshold); ok {
				drec.Threshold = th.ratio()
			}
			if cfg.Faults != nil || cfg.Autoscaler != nil {
				drec.World = world
				drec.Events = view.Events
			}
			cfg.Decisions.Add(drec)
		}
	}

	// The fresh reference simulation: full fidelity for the plan the
	// partitioner would produce on this batch, on the active cluster,
	// under the iteration's effective-speed view.
	tcfg := cfg.Trainer
	tcfg.Nodes = view.Nodes
	tcfg.Health = view.Health
	res, err := trainer.Run(tcfg, cfg.Method, batch)
	if err != nil {
		return IterRecord{}, fmt.Errorf("campaign: iteration %d: %w", it, err)
	}
	busy := perRankBusy(res, world)
	realizedImb := maxOverMean(busy)

	// Placement record: which fast path the incremental planner took for
	// this iteration's plan (trainer.Run just executed it). Cumulative
	// fast-path counters score the alternatives — the planner's lifetime
	// tendency at the moment of the decision.
	if cfg.Decisions != nil && !s.shapeIndep {
		if pm, ok := cfg.Method.(PlanModeReporter); ok {
			mode := pm.LastPlanMode()
			drec := decision.Record{
				Iter: it, Kind: decision.KindPlacement, Chosen: mode, PlanMode: mode,
			}
			if pc, ok := cfg.Method.(interface{ PlannerCounters() partition.Counters }); ok {
				c := pc.PlannerCounters()
				drec.Alternatives = []decision.Alternative{
					{Choice: "full", Score: float64(c.Full), Chosen: mode == "full"},
					{Choice: "patched", Score: float64(c.Patched), Chosen: mode == "patched"},
					{Choice: "cached", Score: float64(c.Cached), Chosen: mode == "cached"},
					{Choice: "shared", Score: float64(c.Shared), Chosen: mode == "shared"},
				}
			}
			cfg.Decisions.Add(drec)
		}
	}

	rec := IterRecord{
		Iter:     it,
		Tokens:   seq.TotalLen(batch),
		Seqs:     len(batch),
		Deferred: deferred,
		Penalty:  1,
		Recovery: recovery,
		Events:   view.Events,
		Flipped:  flipped,
	}
	if cfg.Faults != nil || cfg.Autoscaler != nil {
		rec.World = world
	}
	span := res.LayerTime
	switch {
	case s.shapeIndep:
		// Even-splitting methods re-chunk every iteration as part of
		// their normal (cheap) host path; there is no plan to reuse.
		rec.Time = res.IterTime
		rec.Imbalance = realizedImb
	case replan:
		rec.Replanned = true
		rec.Time = res.IterTime + cfg.ReplanCost
		rec.Imbalance = realizedImb
		s.stale = fresh
		s.sinceReplan = 0
	default:
		// Reuse: the layer critical path stretches by the ratio of the
		// stale skeleton's projected imbalance to the fresh plan's; the
		// partitioner's host overhead is skipped.
		penalty := staleImb / fresh.imbalance
		if penalty < 1 {
			penalty = 1
		}
		rec.Penalty = penalty
		span = res.LayerTime * penalty
		rec.Time = span*s.layers + res.GradSync + cfg.ReuseOverhead
		rec.Imbalance = realizedImb * penalty
		s.sinceReplan++
	}
	rec.Time += recovery
	if rec.Time > 0 {
		rec.TokensPerSec = float64(rec.Tokens) / rec.Time
	}
	s.prevTokens = rec.Tokens

	// Utilization: busy fraction of the (possibly stretched) layer span.
	var util float64
	if span > 0 {
		for r, b := range busy {
			f := b / span
			if f > 1 {
				f = 1
			}
			util += f
			s.busySum[r] += b
		}
		util /= float64(world)
		s.spanSum += span
	}
	rec.Utilization = util

	// Close the loop: with an autoscaler configured, the iteration's
	// observed queue depth and utilization pick the next world. Verdicts
	// inside the cooldown window are forced back to hold.
	if as := cfg.Autoscaler; as != nil {
		next, verdict := as.decide(view.Nodes, util, deferred)
		forced := false
		if next != view.Nodes && s.sinceScale < as.Cooldown {
			next, verdict = view.Nodes, "hold"
			forced = true
		}
		if next != view.Nodes {
			s.sinceScale = 0
		} else {
			s.sinceScale++
		}
		s.nextNodes = next
		if cfg.Decisions != nil {
			cfg.Decisions.Add(decision.Record{
				Iter: it, Kind: decision.KindScale, Chosen: verdict, Forced: forced,
				World:  world,
				Events: view.Events,
				Alternatives: []decision.Alternative{
					{Choice: "grow", Score: float64(deferred), Chosen: verdict == "grow"},
					{Choice: "hold", Score: util, Chosen: verdict == "hold"},
					{Choice: "shrink", Score: util, Chosen: verdict == "shrink"},
				},
			})
		}
	}
	return rec, nil
}

// Run executes the campaign to completion and returns its report: Start
// plus a full drain of the stream. Cancelling ctx stops the loop between
// iterations and returns ctx.Err().
func Run(ctx context.Context, cfg Config) (*Report, error) {
	s, err := Start(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return s.Report(), nil
}

// policyLabel names the controller column: shape-independent methods
// have no plan to manage, which the report states explicitly.
func policyLabel(cfg *Config) string {
	if cfg.shapeIndependent() {
		return "n/a (shape-independent)"
	}
	return cfg.Policy.Name()
}

// RunGrid executes a flat list of independent campaigns across a
// bounded worker pool. Each campaign is deterministic and
// self-contained, so results are positional and bit-identical at every
// pool size; the fig13 experiment and the CLI campaign subcommand both
// fan their (row × seed) grids through it.
func RunGrid(ctx context.Context, cfgs []Config, workers int) ([]*Report, error) {
	reports := make([]*Report, len(cfgs))
	err := runner.ForEach(ctx, workers, len(cfgs), func(i int) error {
		rep, err := Run(ctx, cfgs[i])
		if err != nil {
			name := "?"
			if cfgs[i].Method != nil {
				name = cfgs[i].Method.Name()
			}
			return fmt.Errorf("campaign %s (grid job %d): %w", name, i, err)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// admit trims a batch to the placement capacity of one iteration,
// returning the admitted batch and the deferred token count. Sequences
// are admitted in arrival order; the first sequence that does not fit
// is clamped to the remaining budget (when ≥ 16 tokens remain, matching
// the samplers' remnant rule) and the rest wait for a later iteration.
func admit(batch []seq.Sequence, maxTokens int) ([]seq.Sequence, int) {
	total := seq.TotalLen(batch)
	if maxTokens <= 0 || total <= maxTokens {
		return batch, 0
	}
	remaining := maxTokens
	admitted := make([]seq.Sequence, 0, len(batch))
	for _, s := range batch {
		if s.Len <= remaining {
			admitted = append(admitted, s)
			remaining -= s.Len
			continue
		}
		if remaining >= 16 {
			admitted = append(admitted, seq.Sequence{ID: s.ID, Len: remaining})
			remaining = 0
		}
		break
	}
	return admitted, total - (maxTokens - remaining)
}

// perRankBusy sums each rank's busy seconds across all simulated phases
// of the iteration's layer. Phases are folded in sorted label order so
// the floating-point accumulation — and therefore the whole report — is
// bit-identical across runs (map iteration order is not).
func perRankBusy(res *trainer.Result, world int) []float64 {
	labels := make([]string, 0, len(res.PerRankPhase))
	for label := range res.PerRankPhase {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	busy := make([]float64, world)
	for _, label := range labels {
		for r, d := range res.PerRankPhase[label] {
			if r < world {
				busy[r] += d
			}
		}
	}
	return busy
}
