package trainer

import (
	"math"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/seq"
	"zeppelin/internal/sim"
)

// fakeMethod lets us test the trainer loop in isolation.
type fakeMethod struct{ mb int }

func (fakeMethod) Name() string { return "fake" }

func (f fakeMethod) Plan(env *Env, batch []seq.Sequence) (Placement, error) {
	return &fakePlacement{tokens: seq.TotalLen(batch), mb: f.mb}, nil
}

type fakePlacement struct {
	NoRemap
	tokens int
	mb     int
}

func (p *fakePlacement) EmitAttention(env *Env, backward bool, deps ...*sim.Task) *sim.Task {
	name := "attn-fwd/fake"
	mul := 1.0
	if backward {
		name, mul = "attn-bwd/fake", 2.0
	}
	done := env.E.Barrier(name+"/done", 0)
	for r := 0; r < env.C.World(); r++ {
		t := env.F.ComputeTask(name+"/k", r, 0.001*mul)
		t.After(deps...)
		done.After(t)
	}
	return done
}

func (p *fakePlacement) LinearEffectiveTokens(env *Env) []float64 {
	out := make([]float64, env.C.World())
	per := float64(p.tokens) / float64(env.C.World())
	for i := range out {
		out[i] = per
	}
	return out
}

func (p *fakePlacement) MicroBatches() int     { return p.mb }
func (p *fakePlacement) HostOverhead() float64 { return 0.001 }

func cfg7B(nodes int) Config {
	return Config{Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: nodes, Seed: 1}
}

func TestConfigValidateDefaults(t *testing.T) {
	c := cfg7B(2)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.TP != 1 || c.TokensPerGPU != 4096 || c.CapacityFactor != 1.25 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.GPUs() != 16 || c.TotalTokens() != 16*4096 {
		t.Fatalf("GPUs=%d TotalTokens=%d", c.GPUs(), c.TotalTokens())
	}
}

func TestConfigValidateRejects(t *testing.T) {
	c := Config{Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 0}
	if err := c.Validate(); err == nil {
		t.Fatal("zero nodes should fail")
	}
	c = Config{Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 1, TP: 3}
	if err := c.Validate(); err == nil {
		t.Fatal("TP not dividing GPUs per node should fail")
	}
	c = Config{Model: model.Config{Name: "bad"}, Spec: cluster.ClusterA, Nodes: 1}
	if err := c.Validate(); err == nil {
		t.Fatal("invalid model should fail")
	}
}

// TestConfigValidateCapacityFactor: a non-finite or oversized factor is
// rejected instead of reaching the partitioner as an overflowed (or
// NaN-derived) per-rank capacity; the ceiling itself stays legal.
func TestConfigValidateCapacityFactor(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), MaxCapacityFactor + 0.5, 1e300} {
		c := cfg7B(2)
		c.CapacityFactor = f
		if err := c.Validate(); err == nil {
			t.Errorf("capacity factor %v accepted", f)
		}
	}
	c := cfg7B(2)
	c.CapacityFactor = MaxCapacityFactor
	if err := c.Validate(); err != nil {
		t.Fatalf("capacity factor at the ceiling rejected: %v", err)
	}
	env, err := c.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	if env.CapacityTokens <= 0 {
		t.Fatalf("capacity at the ceiling = %d tokens, want positive", env.CapacityTokens)
	}
}

func TestEffectiveSpecTPFoldsNICs(t *testing.T) {
	c := cfg7B(2)
	c.Model = model.LLaMA13B
	c.TP = 2
	env, err := c.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	// 8 GPUs / TP2 = 4 DP ranks per node, one NIC each on Cluster A.
	if env.C.GPUsPerNode != 4 || env.C.NICsPerNode != 4 {
		t.Fatalf("effective topology = %d GPUs, %d NICs per node", env.C.GPUsPerNode, env.C.NICsPerNode)
	}
	if env.C.GPUsPerNIC() != 1 {
		t.Fatal("TP=2 on Cluster A should give each DP rank a dedicated NIC")
	}
	if env.CapacityTokens != int(1.25*4096*2) {
		t.Fatalf("capacity = %d", env.CapacityTokens)
	}
	if env.MemoryTokens < env.CapacityTokens {
		t.Fatalf("memory tokens %d below capacity %d", env.MemoryTokens, env.CapacityTokens)
	}
}

func TestRunProducesThroughput(t *testing.T) {
	c := cfg7B(2)
	batch := []seq.Sequence{{ID: 0, Len: 65536}}
	res, err := Run(c, fakeMethod{mb: 1}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.TokensPerSec <= 0 {
		t.Fatal("throughput must be positive")
	}
	if res.IterTime <= res.LayerTime {
		t.Fatal("iteration must cost at least layers × layer time")
	}
	if res.GradSync <= 0 {
		t.Fatal("gradient sync cost must be positive")
	}
	if res.AttnFwd <= 0 || res.AttnBwd <= res.AttnFwd {
		t.Fatalf("attention phases wrong: fwd=%v bwd=%v", res.AttnFwd, res.AttnBwd)
	}
	if res.LinearFwd <= 0 || res.LinearBwd <= res.LinearFwd {
		t.Fatalf("linear phases wrong: fwd=%v bwd=%v", res.LinearFwd, res.LinearBwd)
	}
	if len(res.PerRankPhase["attn-fwd"]) != 16 {
		t.Fatal("per-rank phase accounting missing")
	}
}

func TestMicroBatchingCostsMore(t *testing.T) {
	c := cfg7B(1)
	batch := []seq.Sequence{{ID: 0, Len: 32768}}
	r1, err := Run(c, fakeMethod{mb: 1}, batch)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(c, fakeMethod{mb: 8}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if r8.LinearFwd <= r1.LinearFwd {
		t.Fatalf("8 micro-batches should cost more launch overhead: %v vs %v", r8.LinearFwd, r1.LinearFwd)
	}
}

func TestMoEAllToAllAddsCommunication(t *testing.T) {
	dense := cfg7B(2)
	moe := dense
	moe.Model = model.MoE8x550M
	batch := []seq.Sequence{{ID: 0, Len: 65536}}
	rd, err := Run(dense, fakeMethod{mb: 1}, batch)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(moe, fakeMethod{mb: 1}, batch)
	if err != nil {
		t.Fatal(err)
	}
	// The MoE run must show inter-node traffic in the linear phase; the
	// dense run has none (fake attention has no comm at all).
	if rm.LinearFwd <= rd.LinearFwd*0.5 && rm.LinearFwd <= 0 {
		t.Fatal("MoE linear phase should include all-to-all time")
	}
	moePhase := rm.PerRankPhase["linear-fwd"]
	if len(moePhase) == 0 {
		t.Fatal("missing MoE linear phase accounting")
	}
}

func TestGradSyncScalesWithModel(t *testing.T) {
	small := cfg7B(2)
	big := small
	big.Model = model.LLaMA30B
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	if gradSyncTime(&big) <= gradSyncTime(&small) {
		t.Fatal("30B gradient sync should cost more than 7B")
	}
	tp := big
	tp.TP = 2
	if gradSyncTime(&tp) >= gradSyncTime(&big) {
		t.Fatal("TP should shard gradient volume")
	}
}

func TestMoEWeightDeterministicAndBounded(t *testing.T) {
	for id := 0; id < 1000; id++ {
		w := MoEWeight(id)
		if w < 0.75 || w > 1.35 {
			t.Fatalf("weight %v out of range for id %d", w, id)
		}
		if w != MoEWeight(id) {
			t.Fatal("weight must be deterministic")
		}
	}
	// Weights must actually vary (otherwise the MoE imbalance mechanism
	// is inert).
	if MoEWeight(1) == MoEWeight(2) && MoEWeight(2) == MoEWeight(3) {
		t.Fatal("weights suspiciously constant")
	}
}

func TestEffectiveTokens(t *testing.T) {
	portions := []map[int]int{
		{1: 100, 2: 200},
		{3: 300},
	}
	dense := EffectiveTokens(model.LLaMA7B, 2, portions)
	if dense[0] != 300 || dense[1] != 300 {
		t.Fatalf("dense effective tokens = %v", dense)
	}
	moe := EffectiveTokens(model.MoE8x550M, 2, portions)
	if moe[0] == dense[0] && moe[1] == dense[1] {
		t.Fatal("MoE weighting should perturb token counts")
	}
}
