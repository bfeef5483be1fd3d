// Package trainer simulates end-to-end training iterations. It owns the
// execution environment (simulator, fabric, cost model), defines the
// Method/Placement interfaces that Zeppelin and the baselines implement,
// and measures throughput the way the paper reports it: processed tokens
// per second over a full forward+backward iteration.
//
// A transformer layer is simulated as
//
//	attention(fwd) → remap → linear(fwd) → remap⁻¹      (forward)
//	remap → linear(bwd) → remap⁻¹ → attention(bwd)      (backward)
//
// where the remap stages are no-ops for every method except Zeppelin with
// the remapping layer enabled. Per-layer costs are identical across a
// model's layers, so one layer is simulated in full fidelity and scaled
// by the layer count; host-side overheads (sequence partitioning, solver
// time) are charged once per iteration.
package trainer

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"zeppelin/internal/cluster"
	"zeppelin/internal/collective"
	"zeppelin/internal/costmodel"
	"zeppelin/internal/model"
	"zeppelin/internal/seq"
	"zeppelin/internal/sim"
)

// Env is the execution environment an iteration runs in, handed to
// placements. NewEnv builds one; after RunPlanned has spent it, ReuseEnv
// re-arms it for another iteration of the same cell, so a campaign
// builds its engine, fabric and cost model once per node count rather
// than once per iteration.
type Env struct {
	E  *sim.Engine
	F  *cluster.Fabric
	C  *cluster.Cluster
	CM *costmodel.Model
	// CapacityTokens is the per-(DP-rank) token budget L the partitioner
	// balances against (a small multiple of the per-iteration budget).
	CapacityTokens int
	// MemoryTokens is the HBM-derived ceiling on tokens a single rank can
	// hold resident for one micro-batch; hybrid methods use it to decide
	// when a sequence must be split for memory rather than for balance.
	MemoryTokens int
	// Health is the effective-speed cluster view this iteration executes
	// under (nil = nominal). The fabric is already degraded accordingly;
	// speed-aware methods additionally read it to plan around slow ranks,
	// while the baselines' even splits take the hit un-rebalanced.
	Health *cluster.Health
}

// Method plans the execution of a batch.
type Method interface {
	Name() string
	Plan(env *Env, batch []seq.Sequence) (Placement, error)
}

// Placement emits the per-layer task graphs for a planned batch.
type Placement interface {
	// EmitAttention appends one layer's attention pass.
	EmitAttention(env *Env, backward bool, deps ...*sim.Task) *sim.Task
	// EmitRemapToLinear converts the attention layout to the linear-module
	// layout (a barrier for methods that share one layout).
	EmitRemapToLinear(env *Env, deps ...*sim.Task) *sim.Task
	// EmitRemapToAttention restores the attention layout.
	EmitRemapToAttention(env *Env, deps ...*sim.Task) *sim.Task
	// LinearEffectiveTokens returns per-rank effective token counts for
	// the linear modules (expert-routing weighted for MoE models).
	LinearEffectiveTokens(env *Env) []float64
	// MicroBatches is the number of serial micro-batch groups the linear
	// modules are split into on each rank (≥ 1).
	MicroBatches() int
	// HostOverhead is per-iteration host-side planning time in seconds.
	HostOverhead() float64
}

// Config describes one experiment cell.
type Config struct {
	Model model.Config
	Spec  cluster.Spec
	// Nodes is the node count, in [1, MaxNodes].
	Nodes int
	// TP is the tensor-parallel degree (1 unless stated; the paper uses
	// TP=2 for 13B on Cluster A and 30B on Cluster C).
	TP int
	// TokensPerGPU is the per-GPU context budget (4k in the paper), at
	// most MaxTokensPerGPU; <= 0 selects 4096.
	TokensPerGPU int
	// CapacityFactor sets L = CapacityFactor × TokensPerGPU × TP. It
	// must be finite, at most MaxCapacityFactor, and large enough that L
	// is at least one token; <= 0 selects 1.25.
	CapacityFactor float64
	Seed           int64
	// Health degrades the iteration's cluster (per-rank compute slowdowns,
	// per-NIC bandwidth derates). Nil means healthy; internal/faults
	// produces per-iteration views for campaigns under a fault schedule.
	Health *cluster.Health
}

// MaxCapacityFactor bounds Config.CapacityFactor; it is also the top of
// the tuner's capacity dimension. Without a bound, a huge factor
// overflows the integer capacity L.
const MaxCapacityFactor = 100

// MaxNodes bounds Config.Nodes, and so the work one simulated iteration
// can ask for: TE CP's single ring grows with the world size. At 128
// nodes (1,024 Cluster A GPUs, 4,096 tokens per GPU) one plan-and-
// simulate call took 5.8 s for TE CP and 0.7 s for Zeppelin on a 2-vCPU
// x86-64 VM (go1.24.0); no figure or test cell exceeds 16 nodes.
const MaxNodes = 128

// MaxTokensPerGPU bounds Config.TokensPerGPU (a 1M-token context per
// GPU), so the global budget TokensPerGPU × GPUs stays far from int
// overflow. At 128 Cluster A nodes and this budget one plan-and-simulate
// call took 5.2 s and 1.5 GB of peak RSS for TE CP and 0.2 s for
// Zeppelin on the same VM.
const MaxTokensPerGPU = 1 << 20

// Validate fills defaults and checks the configuration.
func (c *Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Nodes <= 0 {
		return fmt.Errorf("trainer: nodes must be positive")
	}
	if c.Nodes > MaxNodes {
		return fmt.Errorf("trainer: nodes must be <= %d, got %d", MaxNodes, c.Nodes)
	}
	if c.TP <= 0 {
		c.TP = 1
	}
	if c.TokensPerGPU <= 0 {
		c.TokensPerGPU = 4096
	}
	if c.TokensPerGPU > MaxTokensPerGPU {
		return fmt.Errorf("trainer: tokens per GPU must be <= %d, got %d", MaxTokensPerGPU, c.TokensPerGPU)
	}
	if math.IsNaN(c.CapacityFactor) || math.IsInf(c.CapacityFactor, 0) || c.CapacityFactor > MaxCapacityFactor {
		return fmt.Errorf("trainer: capacity factor must be finite and <= %d, got %g", MaxCapacityFactor, c.CapacityFactor)
	}
	if c.CapacityFactor <= 0 {
		// L = 1.25 × the per-rank budget: tight enough that medium
		// sequences split into intra-node rings and the longest cross
		// nodes, the regime every figure of the paper exercises.
		c.CapacityFactor = 1.25
	}
	if c.CapacityTokens() < 1 {
		return fmt.Errorf("trainer: capacity factor %g leaves a per-rank capacity below 1 token (%d tokens per GPU × TP %d)",
			c.CapacityFactor, c.TokensPerGPU, c.TP)
	}
	if c.Spec.GPUsPerNode%c.TP != 0 {
		return fmt.Errorf("trainer: TP %d does not divide GPUs per node %d", c.TP, c.Spec.GPUsPerNode)
	}
	return nil
}

// CapacityTokens is the per-rank token ceiling L = CapacityFactor ×
// TokensPerGPU × TP, rounded down. Call it after Validate.
func (c *Config) CapacityTokens() int { return int(c.CapacityFactor * float64(c.TokensPerGPU*c.TP)) }

// GPUs returns the physical GPU count of the configuration.
func (c *Config) GPUs() int { return c.Nodes * c.Spec.GPUsPerNode }

// TotalTokens is the global batch budget: TokensPerGPU × physical GPUs.
// Usable before Validate: the 4k-per-GPU default applies.
func (c *Config) TotalTokens() int {
	tpg := c.TokensPerGPU
	if tpg <= 0 {
		tpg = 4096
	}
	return tpg * c.GPUs()
}

// EffectiveSpec folds tensor parallelism into the topology: a TP group
// acts as one data-parallel rank owning its GPUs' aggregate compute and
// the NIC of its group. On Cluster A (2 GPUs per NIC), TP=2 gives each
// DP rank a dedicated NIC — the §5.1 observation that TP=2 removes the
// shared-NIC bottleneck. The campaign layer and the fault scheduler
// size their per-rank and per-NIC views from this spec; an unset TP
// counts as 1 (Validate's default).
func (c *Config) EffectiveSpec() cluster.Spec {
	spec := c.Spec
	tp := c.TP
	if tp <= 0 {
		tp = 1
	}
	spec.GPUsPerNode /= tp
	if spec.NICsPerNode > spec.GPUsPerNode {
		spec.NICsPerNode = spec.GPUsPerNode
	}
	return spec
}

// NewEnv builds the simulation environment for one iteration.
func (c *Config) NewEnv() (*Env, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	spec := c.EffectiveSpec()
	cl, err := cluster.New(spec, c.Nodes)
	if err != nil {
		return nil, err
	}
	cm, err := costmodel.New(c.Model, c.Spec, c.TP)
	if err != nil {
		return nil, err
	}
	e := sim.NewEngine()
	// Memory ceiling: reserve ~60% of HBM for weights/optimizer/workspace,
	// charge ~3 hidden-width activation tensors per token per layer
	// (selective recomputation), scaled by the TP shard factor.
	actPerToken := 3 * float64(c.Model.Hidden) * float64(c.Model.BytesPerElem) *
		float64(c.Model.Layers) / float64(c.TP)
	memTokens := int(0.4 * c.Spec.GPUMemory * float64(c.TP) / actPerToken)
	if memTokens < c.TokensPerGPU*c.TP {
		memTokens = c.TokensPerGPU * c.TP
	}
	env := &Env{
		E:              e,
		F:              cluster.NewFabric(e, cl),
		C:              cl,
		CM:             cm,
		CapacityTokens: c.CapacityTokens(),
		MemoryTokens:   memTokens,
	}
	if err := c.setHealth(env); err != nil {
		return nil, err
	}
	return env, nil
}

// ReuseEnv returns the environment for one iteration of c: env re-armed
// when it was built for c's node count, a new one from NewEnv when env is
// nil or was not. c may differ from the configuration env was built for
// only in Nodes, Health and Seed, and is validated as NewEnv validates
// it, degraded health view included. Re-arming resets the engine,
// keeping its resources (sim.Engine.Reset), and sets the fabric to c's
// health view. Any graph env still holds is released.
func (c *Config) ReuseEnv(env *Env) (*Env, error) {
	if env == nil || env.C.Nodes != c.Nodes {
		return c.NewEnv()
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	env.E.Reset()
	if err := c.setHealth(env); err != nil {
		return nil, err
	}
	return env, nil
}

// setHealth puts env under c's health view, validating a degraded view
// against env's cluster first.
func (c *Config) setHealth(env *Env) error {
	if c.Health.Degraded() {
		if err := c.Health.Validate(env.C.World(), env.C.Nodes*env.C.NICsPerNode); err != nil {
			return err
		}
	}
	env.F.SetHealth(c.Health)
	env.Health = c.Health
	return nil
}

// Batch samples the iteration's batch for a dataset-like sampler.
func (c *Config) Batch(sample func(total int, rng *rand.Rand) []seq.Sequence) []seq.Sequence {
	rng := rand.New(rand.NewSource(c.Seed))
	return sample(c.TotalTokens(), rng)
}

// Phase is one of the five accounting phases of a simulated layer. A
// task counts toward the phase of the RunPlanned stage that emitted it.
// The constants run in the sorted order of the phases' names (attn-bwd,
// attn-fwd, linear-bwd, linear-fwd, remap): campaign utilization folds
// the per-rank vectors in this order, and the last bits of its reports
// depend on it.
type Phase uint8

const (
	PhaseAttnBwd Phase = iota
	PhaseAttnFwd
	PhaseLinearBwd
	PhaseLinearFwd
	PhaseRemap
	NumPhases
)

// Result reports one simulated iteration. It is an in-process readout:
// nothing encodes it.
type Result struct {
	Method    string
	IterTime  float64 // seconds per iteration (all layers + host overhead)
	LayerTime float64 // seconds for the simulated layer (fwd+bwd)
	Tokens    int
	// TokensPerSec is the paper's headline metric.
	TokensPerSec float64
	// Phase spans of the simulated layer in seconds.
	AttnFwd   float64
	AttnBwd   float64
	LinearFwd float64
	LinearBwd float64
	RemapTime float64
	// PerRankPhase holds each phase's per-rank busy seconds, for the
	// Table 3 min–max ranges and campaign utilization.
	PerRankPhase [NumPhases][]float64
	HostOverhead float64
	// GradSync is the method-independent per-iteration gradient
	// synchronization cost not hidden by backward overlap.
	GradSync float64
}

// gradSyncTime estimates the unhidden portion of the per-iteration
// gradient reduce-scatter + parameter all-gather (ZeRO-style): 2× the
// gradient volume crosses the slowest tier, at collective efficiency,
// with half hidden under backward compute. This cost is identical across
// scheduling methods and bounds the achievable speedup ratios.
func gradSyncTime(cfg *Config) float64 {
	params := cfg.Model.ParamCount() / float64(cfg.TP)
	bytes := 2 * params * float64(cfg.Model.BytesPerElem)
	spec := cfg.Spec
	var t float64
	if cfg.Nodes > 1 {
		inter := bytes * float64(cfg.Nodes-1) / float64(cfg.Nodes)
		t += inter / (float64(spec.NICsPerNode) * spec.NICBandwidth * 0.55)
	}
	p := spec.GPUsPerNode
	t += bytes * float64(p-1) / float64(p) / (spec.IntraBandwidth * 0.8)
	return 0.5 * t // half overlapped with backward
}

// Run simulates one training iteration of a method on a batch, in a new
// environment.
func Run(cfg Config, m Method, batch []seq.Sequence) (*Result, error) {
	env, err := cfg.NewEnv()
	if err != nil {
		return nil, err
	}
	return RunOn(cfg, m, env, batch)
}

// RunOn plans batch with m on env and simulates the iteration; env
// comes from cfg.NewEnv or cfg.ReuseEnv and is spent as by RunPlanned.
func RunOn(cfg Config, m Method, env *Env, batch []seq.Sequence) (*Result, error) {
	pl, err := m.Plan(env, batch)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.Name(), err)
	}
	return RunPlanned(cfg, m.Name(), env, pl, batch)
}

// RunPlanned simulates one iteration of an already-planned placement on
// the environment it was planned against. Callers that need both the
// placement's plan facts and the simulated readout (the public API's
// one-shot plan endpoint) use it to avoid solving the partition twice;
// env must come from cfg.NewEnv() or cfg.ReuseEnv and carry no
// previously emitted tasks. env is spent after the call: RunPlanned
// releases its engine's task graph for the next simulation to reuse,
// once the Result is built and pl.HostOverhead has run; neither the
// caller nor pl may read the graph afterwards. Only ReuseEnv may bring a
// spent env back.
func RunPlanned(cfg Config, name string, env *Env, pl Placement, batch []seq.Sequence) (*Result, error) {
	defer env.E.Release()
	// ends[i] is the task count once stage i, of phase stagePhases[i], is
	// emitted.
	var ends [len(stagePhases)]int
	stages := 0
	staged := func(t *sim.Task) *sim.Task {
		ends[stages] = len(env.E.Tasks())
		stages++
		return t
	}
	start := env.E.Barrier("start", 0)

	attnF := staged(pl.EmitAttention(env, false, start))
	toLin := staged(pl.EmitRemapToLinear(env, attnF))
	linF := staged(emitLinear(env, pl, linearFwd, 1.0, toLin))
	toAttn := staged(pl.EmitRemapToAttention(env, linF))

	toLinB := staged(pl.EmitRemapToLinear(env, toAttn))
	linB := staged(emitLinear(env, pl, linearBwd, costmodel.BwdComputeFactor, toLinB))
	toAttnB := staged(pl.EmitRemapToAttention(env, linB))
	attnB := staged(pl.EmitAttention(env, true, toAttnB))

	if _, err := env.E.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	res := &Result{
		Method:       name,
		Tokens:       seq.TotalLen(batch),
		HostOverhead: pl.HostOverhead(),
		PerRankPhase: perRankPhases(env, &ends),
	}
	res.AttnFwd = attnF.End - start.End
	res.LinearFwd = linF.End - toLin.End
	res.LinearBwd = linB.End - toLinB.End
	res.AttnBwd = attnB.End - toAttnB.End
	res.RemapTime = (toLin.End - attnF.End) + (toAttn.End - linF.End) +
		(toLinB.End - toAttn.End) + (toAttnB.End - linB.End)
	res.LayerTime = env.E.Makespan()
	res.GradSync = gradSyncTime(&cfg)
	res.IterTime = res.LayerTime*float64(cfg.Model.Layers) + res.HostOverhead + res.GradSync
	if res.IterTime > 0 {
		res.TokensPerSec = float64(res.Tokens) / res.IterTime
	}
	return res, nil
}

// linearStage labels one pass of the linear modules: its kernels and
// barriers, and the MoE all-to-alls around the expert computation.
type linearStage struct{ phase, dispatch, combine string }

var (
	linearFwd = linearStage{"linear-fwd", "linear-fwd/moe-dispatch", "linear-fwd/moe-combine"}
	linearBwd = linearStage{"linear-bwd", "linear-bwd/moe-dispatch", "linear-bwd/moe-combine"}
)

// emitLinear schedules the token-wise modules on every rank. Micro-batch
// counts above one split the work into that many serial kernels, each
// paying the launch latency — the compute-intensity penalty of Fig. 2c.
// For MoE models, expert-parallel dispatch and combine all-to-alls wrap
// the expert computation; this traffic is identical across scheduling
// methods and compresses MoE speedups, as §5.1 observes.
func emitLinear(env *Env, pl Placement, st linearStage, mul float64, deps ...*sim.Task) *sim.Task {
	eff := pl.LinearEffectiveTokens(env)
	mb := pl.MicroBatches()
	if mb < 1 {
		mb = 1
	}
	start := env.E.Barrier(st.phase, 0)
	start.After(deps...)
	gate := start
	// Each rank exchanges TopK routed copies of its tokens' activations
	// with the rest of the world.
	var a2a []float64
	if mc := env.CM.MC; mc.MoE {
		a2a = make([]float64, env.C.World())
		for rank := range a2a {
			a2a[rank] = eff[rank] * float64(mc.TopK) * env.CM.ActBytes(1) * mul
		}
		gate = collective.AllToAll(env.F, st.dispatch, a2a, start)
	}
	done := env.E.Barrier(st.phase, 0)
	done.After(gate)
	for rank := 0; rank < env.C.World(); rank++ {
		if eff[rank] <= 0 {
			continue
		}
		per := env.CM.LinearTime(eff[rank]/float64(mb)) * mul
		var prev *sim.Task
		for i := 0; i < mb; i++ {
			t := env.F.ComputeTask(st.phase, rank, per)
			t.After(gate)
			t.After(prev)
			prev = t
		}
		done.After(prev)
	}
	if a2a != nil {
		return collective.AllToAll(env.F, st.combine, a2a, done)
	}
	return done
}

// stagePhases is the phase of each stage RunPlanned emits, in order.
var stagePhases = [...]Phase{PhaseAttnFwd, PhaseRemap, PhaseLinearFwd, PhaseRemap,
	PhaseRemap, PhaseLinearBwd, PhaseRemap, PhaseAttnBwd}

// perRankPhases sums each rank's busy time per phase: stage i emitted
// the tasks up to ends[i], and they count toward stagePhases[i].
func perRankPhases(env *Env, ends *[len(stagePhases)]int) [NumPhases][]float64 {
	world := env.C.World()
	var out [NumPhases][]float64
	buf := make([]float64, len(out)*world)
	for p := range out {
		out[p] = buf[p*world : (p+1)*world : (p+1)*world]
	}
	tasks := env.E.Tasks()
	from := 0
	for i, end := range ends {
		busy := out[stagePhases[i]]
		for _, t := range tasks[from:end] {
			if t.Kind != sim.KindBarrier && t.Rank >= 0 && t.Rank < world {
				busy[t.Rank] += t.End - t.Start
			}
		}
		from = end
	}
	return out
}

// MoEWeight is the deterministic per-sequence expert-routing cost
// multiplier used for MoE models: routing concentration makes some
// sequences ~35% more expensive and others ~25% cheaper than average.
// Methods that place whole sequences inherit this variance; methods that
// shard every sequence across all ranks average it away — the §5.1
// mechanism that weakens Hybrid DP's FLOP-estimated balancing on MoE.
func MoEWeight(seqID int) float64 {
	h := fnv.New32a()
	var b [4]byte
	b[0] = byte(seqID)
	b[1] = byte(seqID >> 8)
	b[2] = byte(seqID >> 16)
	b[3] = byte(seqID >> 24)
	h.Write(b[:])
	u := float64(h.Sum32()%1000) / 1000.0
	return 0.75 + 0.6*u
}

// LinearWeight is the linear-module cost of one token of sequence id:
// MoEWeight(id) for MoE models, 1 otherwise. Placements add each portion
// they place as LinearWeight × tokens, in plan order, so the sum is the
// same on every call.
func LinearWeight(mc model.Config, id int) float64 {
	if mc.MoE {
		return MoEWeight(id)
	}
	return 1
}

// NoRemap is a reusable no-op remap stage for single-layout methods.
type NoRemap struct{}

// EmitRemapToLinear returns a pass-through barrier.
func (NoRemap) EmitRemapToLinear(env *Env, deps ...*sim.Task) *sim.Task {
	return env.E.Barrier("remap-noop", 0).After(deps...)
}

// EmitRemapToAttention returns a pass-through barrier.
func (NoRemap) EmitRemapToAttention(env *Env, deps ...*sim.Task) *sim.Task {
	return env.E.Barrier("remap-noop", 0).After(deps...)
}
