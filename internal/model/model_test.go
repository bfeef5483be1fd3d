package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for _, c := range []Config{LLaMA3B, LLaMA7B, LLaMA13B, LLaMA30B, MoE8x550M} {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"3B", "7B", "13B", "30B", "8x550M"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name != name {
			t.Fatalf("ByName(%q).Name = %q", name, c.Name)
		}
	}
	if _, err := ByName("70B"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "indiv", Hidden: 100, Layers: 1, Heads: 3, KVHeads: 3, FFN: 1, BytesPerElem: 2},
		{Name: "kv", Hidden: 96, Layers: 1, Heads: 6, KVHeads: 4, FFN: 1, BytesPerElem: 2},
		{Name: "elem", Hidden: 96, Layers: 1, Heads: 6, KVHeads: 6, FFN: 1},
		{Name: "moe", Hidden: 96, Layers: 1, Heads: 6, KVHeads: 6, BytesPerElem: 2, MoE: true, Experts: 2, TopK: 4, ExpertFFN: 8},
		{Name: "noffn", Hidden: 96, Layers: 1, Heads: 6, KVHeads: 6, BytesPerElem: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %q should fail validation", c.Name)
		}
	}
}

func TestParamCountsMatchNames(t *testing.T) {
	cases := []struct {
		c        Config
		min, max float64
	}{
		{LLaMA3B, 2.0e9, 4.5e9},
		{LLaMA7B, 5.5e9, 8.5e9},
		{LLaMA13B, 11e9, 15e9},
		{LLaMA30B, 27e9, 36e9},
		{MoE8x550M, 3.5e9, 6e9}, // 8 × ~550M experts + attention
	}
	for _, tc := range cases {
		got := tc.c.ParamCount()
		if got < tc.min || got > tc.max {
			t.Errorf("%s: param count %.2fB outside [%.1fB, %.1fB]",
				tc.c.Name, got/1e9, tc.min/1e9, tc.max/1e9)
		}
	}
}

func TestCausalPairs(t *testing.T) {
	if CausalPairs(1) != 1 {
		t.Fatal("one token attends to itself")
	}
	if CausalPairs(4) != 10 {
		t.Fatalf("CausalPairs(4) = %v, want 10", CausalPairs(4))
	}
}

func TestAttnFlopsQuadraticScaling(t *testing.T) {
	c := LLaMA7B
	f1 := c.AttnFlopsForPairs(CausalPairs(8192))
	f2 := c.AttnFlopsForPairs(CausalPairs(16384))
	ratio := f2 / f1
	if math.Abs(ratio-4) > 0.01 {
		t.Fatalf("doubling length should ~4x attention flops, got %.3fx", ratio)
	}
}

func TestLinearFlopsPerTokenDense(t *testing.T) {
	c := LLaMA7B
	h := 4096.0
	want := 2*(2*h*h+2*h*h) + 2*3*h*11008
	if got := c.LinearFlopsPerToken(); got != want {
		t.Fatalf("linear flops = %v, want %v", got, want)
	}
}

func TestLinearFlopsMoEUsesTopK(t *testing.T) {
	c := MoE8x550M
	h := float64(c.Hidden)
	want := 2*(2*h*h+2*h*h) + 2*3*h*float64(c.ExpertFFN)*2
	if got := c.LinearFlopsPerToken(); got != want {
		t.Fatalf("moe linear flops = %v, want %v", got, want)
	}
}

func TestKVBytesPerToken(t *testing.T) {
	// 7B MHA: 2 tensors × 4096 × 2 bytes.
	if got := LLaMA7B.KVBytesPerToken(); got != 16384 {
		t.Fatalf("kv bytes = %v, want 16384", got)
	}
	if got := LLaMA7B.ActivationBytesPerToken(); got != 8192 {
		t.Fatalf("act bytes = %v, want 8192", got)
	}
}

func TestHeadDims(t *testing.T) {
	if LLaMA7B.HeadDim() != 128 {
		t.Fatalf("7B head dim = %d", LLaMA7B.HeadDim())
	}
	if LLaMA7B.KVDim() != 4096 {
		t.Fatalf("7B kv dim = %d", LLaMA7B.KVDim())
	}
}

// Property: attention flops are monotone and superlinear in length; linear
// flops per token are constant (independent of length by construction).
func TestPropertyAttnSuperlinear(t *testing.T) {
	c := LLaMA13B
	f := func(a uint16) bool {
		s := float64(a%32768) + 2
		// superlinearity: f(2s) > 2 f(s)
		return c.AttnFlopsForPairs(CausalPairs(2*s)) > 2*c.AttnFlopsForPairs(CausalPairs(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting a sequence across G ranks conserves causal pairs
// when counted as the sum of each rank's assigned pair share — the chunked
// balanced split in the attention engine relies on this identity.
func TestPropertyPairAdditivity(t *testing.T) {
	f := func(a, b uint16) bool {
		s1, s2 := float64(a%10000), float64(b%10000)
		total := CausalPairs(s1 + s2)
		// Pairs split as: first part's own pairs + cross block (s2 × s1)
		// + second part's own pairs.
		split := CausalPairs(s1) + s1*s2 + CausalPairs(s2)
		return math.Abs(total-split) < 1e-6*math.Max(total, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
