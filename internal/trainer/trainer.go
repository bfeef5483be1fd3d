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
	"strings"

	"zeppelin/internal/cluster"
	"zeppelin/internal/costmodel"
	"zeppelin/internal/model"
	"zeppelin/internal/seq"
	"zeppelin/internal/sim"
)

// Env is the per-iteration execution environment handed to placements.
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
	Nodes int
	// TP is the tensor-parallel degree (1 unless stated; the paper uses
	// TP=2 for 13B on Cluster A and 30B on Cluster C).
	TP int
	// TokensPerGPU is the per-GPU context budget (4k in the paper).
	TokensPerGPU int
	// CapacityFactor sets L = CapacityFactor × TokensPerGPU × TP. It
	// must be finite and at most MaxCapacityFactor; <= 0 selects 1.25.
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

// Validate fills defaults and checks the configuration.
func (c *Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Nodes <= 0 {
		return fmt.Errorf("trainer: nodes must be positive")
	}
	if c.TP <= 0 {
		c.TP = 1
	}
	if c.TokensPerGPU <= 0 {
		c.TokensPerGPU = 4096
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
	if c.Spec.GPUsPerNode%c.TP != 0 {
		return fmt.Errorf("trainer: TP %d does not divide GPUs per node %d", c.TP, c.Spec.GPUsPerNode)
	}
	return nil
}

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
	f := cluster.NewFabric(e, cl)
	if c.Health.Degraded() {
		if err := c.Health.Validate(cl.World(), cl.Nodes*cl.NICsPerNode); err != nil {
			return nil, err
		}
		f.Degrade(c.Health)
	}
	return &Env{
		E:              e,
		F:              f,
		C:              cl,
		CM:             cm,
		CapacityTokens: int(c.CapacityFactor * float64(c.TokensPerGPU*c.TP)),
		MemoryTokens:   memTokens,
		Health:         c.Health,
	}, nil
}

// Batch samples the iteration's batch for a dataset-like sampler.
func (c *Config) Batch(sample func(total int, rng *rand.Rand) []seq.Sequence) []seq.Sequence {
	rng := rand.New(rand.NewSource(c.Seed))
	return sample(c.TotalTokens(), rng)
}

// Result reports one simulated iteration. The JSON field names are part
// of the runner's artifact format and must stay stable.
type Result struct {
	Method    string  `json:"method"`
	IterTime  float64 `json:"iter_time"`  // seconds per iteration (all layers + host overhead)
	LayerTime float64 `json:"layer_time"` // seconds for the simulated layer (fwd+bwd)
	Tokens    int     `json:"tokens"`
	// TokensPerSec is the paper's headline metric.
	TokensPerSec float64 `json:"tokens_per_sec"`
	// Phase spans of the simulated layer in seconds.
	AttnFwd   float64 `json:"attn_fwd"`
	AttnBwd   float64 `json:"attn_bwd"`
	LinearFwd float64 `json:"linear_fwd"`
	LinearBwd float64 `json:"linear_bwd"`
	RemapTime float64 `json:"remap_time"`
	// PerRankPhase maps phase label prefix -> per-rank busy seconds, for
	// the Table 3 min–max ranges.
	PerRankPhase map[string][]float64 `json:"per_rank_phase,omitempty"`
	HostOverhead float64              `json:"host_overhead"`
	// GradSync is the method-independent per-iteration gradient
	// synchronization cost not hidden by backward overlap.
	GradSync float64 `json:"grad_sync"`
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

// Run simulates one training iteration of a method on a batch.
func Run(cfg Config, m Method, batch []seq.Sequence) (*Result, error) {
	env, err := cfg.NewEnv()
	if err != nil {
		return nil, err
	}
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
// env must come from cfg.NewEnv() and carry no previously emitted tasks.
func RunPlanned(cfg Config, name string, env *Env, pl Placement, batch []seq.Sequence) (*Result, error) {
	start := env.E.Barrier("start", 0)

	attnF := pl.EmitAttention(env, false, start)
	toLin := pl.EmitRemapToLinear(env, attnF)
	linF := emitLinear(env, pl, linearFwd, 1.0, toLin)
	toAttn := pl.EmitRemapToAttention(env, linF)

	toLinB := pl.EmitRemapToLinear(env, toAttn)
	linB := emitLinear(env, pl, linearBwd, costmodel.BwdComputeFactor, toLinB)
	toAttnB := pl.EmitRemapToAttention(env, linB)
	attnB := pl.EmitAttention(env, true, toAttnB)

	if _, err := env.E.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	res := &Result{
		Method:       name,
		Tokens:       seq.TotalLen(batch),
		HostOverhead: pl.HostOverhead(),
		PerRankPhase: perRankPhases(env),
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
// barriers, and the MoE all-to-alls around the expert computation. Each
// label starts with the pass's phase, the prefix perRankPhases keys on.
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
	if env.CM.MC.MoE {
		gate = emitMoEAllToAll(env, st.dispatch, eff, mul, start)
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
	if env.CM.MC.MoE {
		return emitMoEAllToAll(env, st.combine, eff, mul, done)
	}
	return done
}

// emitMoEAllToAll models one expert-parallel all-to-all: each rank
// exchanges TopK routed copies of its tokens' activations with the rest
// of the world; the cross-node fraction rides the rank's NIC and the rest
// crosses NVSwitch. Every task it creates carries label.
func emitMoEAllToAll(env *Env, label string, eff []float64, mul float64, dep *sim.Task) *sim.Task {
	mc := env.CM.MC
	c := env.C
	done := env.E.Barrier(label, 0)
	done.After(dep)
	for rank := 0; rank < c.World(); rank++ {
		if eff[rank] <= 0 {
			continue
		}
		vol := eff[rank] * float64(mc.TopK) * env.CM.ActBytes(1) * mul
		crossFrac := 0.0
		if c.Nodes > 1 {
			crossFrac = float64(c.Nodes-1) / float64(c.Nodes)
		}
		if crossFrac > 0 {
			nic := c.NICOf(rank)
			tx := env.E.Transfer(label, sim.KindInterComm, rank, env.F.NICSend[nic], vol*crossFrac)
			tx.After(dep)
			rx := env.E.Transfer(label, sim.KindInterComm, rank, env.F.NICRecv[nic], vol*crossFrac)
			rx.After(dep)
			done.After(tx, rx)
		}
		intra := env.E.Transfer(label, sim.KindIntraComm, rank, env.F.IntraSend[rank], vol*(1-crossFrac))
		intra.After(dep)
		done.After(intra)
	}
	return done
}

// perRankPhases aggregates per-rank busy time by phase label prefix.
func perRankPhases(env *Env) map[string][]float64 {
	out := make(map[string][]float64)
	world := env.C.World()
	add := func(key string, rank int, d float64) {
		v, ok := out[key]
		if !ok {
			v = make([]float64, world)
			out[key] = v
		}
		if rank >= 0 && rank < world {
			v[rank] += d
		}
	}
	for _, t := range env.E.Tasks() {
		if t.Kind == sim.KindBarrier {
			continue
		}
		label := t.Label
		var key string
		switch {
		case strings.HasPrefix(label, "attn-fwd"):
			key = "attn-fwd"
		case strings.HasPrefix(label, "attn-bwd"):
			key = "attn-bwd"
		case strings.HasPrefix(label, "linear-fwd"):
			key = "linear-fwd"
		case strings.HasPrefix(label, "linear-bwd"):
			key = "linear-bwd"
		case strings.HasPrefix(label, "remap"):
			key = "remap"
		default:
			key = "other"
		}
		add(key, t.Rank, t.End-t.Start)
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

// EffectiveTokens converts a per-rank map of sequence portions into
// effective linear-module token counts: weighted by MoEWeight for MoE
// models, raw counts otherwise.
func EffectiveTokens(mc model.Config, world int, portions []map[int]int) []float64 {
	out := make([]float64, world)
	for rank, m := range portions {
		for id, tok := range m {
			w := 1.0
			if mc.MoE {
				w = MoEWeight(id)
			}
			out[rank] += w * float64(tok)
		}
	}
	return out
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
