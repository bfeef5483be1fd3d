// Package model defines transformer model configurations matching the five
// architectures evaluated in the paper (§5: LLaMA 3B/7B/13B/30B dense and
// an 8×550M MoE) and their FLOP / activation-byte calculators. These feed
// the cost model: attention cost is quadratic in sequence length, linear
// modules are token-wise, and distributed attention moves KV activations
// whose volume is linear in sequence length.
package model

import "fmt"

// Config describes a transformer architecture.
type Config struct {
	Name    string
	Hidden  int // model dimension
	Layers  int
	Heads   int
	KVHeads int // = Heads for MHA (the paper uses multi-head attention)
	FFN     int // feed-forward inner dimension (gated, 3 matrices)
	Vocab   int

	// MoE fields; zero for dense models.
	MoE       bool
	Experts   int
	TopK      int
	ExpertFFN int

	// BytesPerElem is the activation element size (2 for BF16).
	BytesPerElem int
}

// The five evaluated configurations. Shapes follow the LLaMA family.
var (
	LLaMA3B = Config{
		Name: "3B", Hidden: 3072, Layers: 28, Heads: 24, KVHeads: 24,
		FFN: 8192, Vocab: 32000, BytesPerElem: 2,
	}
	LLaMA7B = Config{
		Name: "7B", Hidden: 4096, Layers: 32, Heads: 32, KVHeads: 32,
		FFN: 11008, Vocab: 32000, BytesPerElem: 2,
	}
	LLaMA13B = Config{
		Name: "13B", Hidden: 5120, Layers: 40, Heads: 40, KVHeads: 40,
		FFN: 13824, Vocab: 32000, BytesPerElem: 2,
	}
	LLaMA30B = Config{
		Name: "30B", Hidden: 6656, Layers: 60, Heads: 52, KVHeads: 52,
		FFN: 17920, Vocab: 32000, BytesPerElem: 2,
	}
	// MoE8x550M: 8 experts of ~550M parameters each (summed over layers),
	// top-2 routing: 3·hidden·expertFFN·layers ≈ 550M per expert.
	MoE8x550M = Config{
		Name: "8x550M", Hidden: 2048, Layers: 24, Heads: 16, KVHeads: 16,
		FFN: 5504, Vocab: 32000, BytesPerElem: 2,
		MoE: true, Experts: 8, TopK: 2, ExpertFFN: 3712,
	}
)

// ByName returns a preset configuration by its paper name.
func ByName(name string) (Config, error) {
	for _, c := range []Config{LLaMA3B, LLaMA7B, LLaMA13B, LLaMA30B, MoE8x550M} {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown model %q", name)
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.Hidden <= 0 || c.Layers <= 0 || c.Heads <= 0 || c.KVHeads <= 0 {
		return fmt.Errorf("model %q: non-positive dimension", c.Name)
	}
	if c.Hidden%c.Heads != 0 {
		return fmt.Errorf("model %q: hidden %d not divisible by heads %d", c.Name, c.Hidden, c.Heads)
	}
	if c.Heads%c.KVHeads != 0 {
		return fmt.Errorf("model %q: heads %d not divisible by kv heads %d", c.Name, c.Heads, c.KVHeads)
	}
	if c.BytesPerElem <= 0 {
		return fmt.Errorf("model %q: bytes per element must be positive", c.Name)
	}
	if c.MoE && (c.Experts <= 0 || c.TopK <= 0 || c.TopK > c.Experts || c.ExpertFFN <= 0) {
		return fmt.Errorf("model %q: invalid MoE config", c.Name)
	}
	if !c.MoE && c.FFN <= 0 {
		return fmt.Errorf("model %q: missing FFN dim", c.Name)
	}
	return nil
}

// HeadDim returns the per-head dimension.
func (c Config) HeadDim() int { return c.Hidden / c.Heads }

// KVDim is the total key (or value) width per token.
func (c Config) KVDim() int { return c.HeadDim() * c.KVHeads }

// AttnFlopsForPairs returns the attention-core FLOPs needed to process a
// given number of query–key token pairs: QK^T and P·V each contribute
// 2·headDim multiply–adds per head per pair, i.e. 4·hidden FLOPs per pair
// (softmax cost is folded into the efficiency factor of the cost model).
func (c Config) AttnFlopsForPairs(pairs float64) float64 {
	return 4 * float64(c.Hidden) * pairs
}

// CausalPairs is the number of (query, key) pairs a causal mask admits for
// a sequence of length s: s(s+1)/2.
func CausalPairs(s float64) float64 { return s * (s + 1) / 2 }

// LinearFlopsPerToken is the per-token FLOPs of the token-wise modules:
// QKV and output projections plus the (gated) FFN. For MoE models the FFN
// term is TopK experts wide. Each weight contributes a multiply–add.
func (c Config) LinearFlopsPerToken() float64 {
	h := float64(c.Hidden)
	proj := 2 * (2*h*h + 2*h*float64(c.KVDim())) // Q,O: h×h; K,V: h×kv
	var ffn float64
	if c.MoE {
		ffn = 2 * 3 * h * float64(c.ExpertFFN) * float64(c.TopK)
	} else {
		ffn = 2 * 3 * h * float64(c.FFN)
	}
	return proj + ffn
}

// KVBytesPerToken is the size of one token's key+value activations for a
// single layer: 2 tensors × KV width × element size. This is the unit of
// ring-attention communication volume.
func (c Config) KVBytesPerToken() float64 {
	return 2 * float64(c.KVDim()) * float64(c.BytesPerElem)
}

// ActivationBytesPerToken is the hidden-state size of one token, the unit
// of remapping (alltoallv) communication volume.
func (c Config) ActivationBytesPerToken() float64 {
	return float64(c.Hidden) * float64(c.BytesPerElem)
}

// ParamCount estimates total parameters (embeddings + layers), used for
// documentation and sanity tests that the presets match their names.
func (c Config) ParamCount() float64 {
	h := float64(c.Hidden)
	perLayer := 2*h*h + 2*h*float64(c.KVDim()) // attention projections
	if c.MoE {
		perLayer += 3 * h * float64(c.ExpertFFN) * float64(c.Experts)
	} else {
		perLayer += 3 * h * float64(c.FFN)
	}
	return perLayer*float64(c.Layers) + 2*h*float64(c.Vocab)
}
