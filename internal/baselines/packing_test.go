package baselines

import (
	"testing"

	"zeppelin/internal/model"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
)

func TestPackingRuns(t *testing.T) {
	c := cfg(2)
	for _, d := range workload.Eval {
		res, err := trainer.Run(c, Packing{}, batchOf(t, c, d))
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if res.TokensPerSec <= 0 {
			t.Fatalf("%s: zero throughput", d.Name)
		}
	}
	if (Packing{}).Name() != "Packing+Ulysses" {
		t.Fatal("name wrong")
	}
	if _, err := trainer.Run(c, Packing{}, nil); err == nil {
		t.Fatal("empty batch should fail")
	}
}

// Packing wastes work on short-sequence batches (cross-sequence pairs) —
// it must lose to Zeppelin-style per-sequence handling; on a single long
// sequence there is no redundancy and it behaves like balanced Ulysses.
// The share is read off the pairs Packing.Plan packs on a 16-rank cell.
func TestPackingRedundancyShare(t *testing.T) {
	c := cfg(2)
	env, err := c.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	share := func(batch []seq.Sequence) float64 {
		pl, err := (Packing{}).Plan(env, batch)
		if err != nil {
			t.Fatal(err)
		}
		var useful float64
		for _, s := range batch {
			useful += model.CausalPairs(float64(s.Len))
		}
		return 1 - useful/pl.(*packingPlacement).packedPairs
	}
	short := make([]seq.Sequence, 64)
	for i := range short {
		short[i] = seq.Sequence{ID: i, Len: 1024}
	}
	if s := share(short); s < 0.5 {
		t.Fatalf("64x1k packed into 16 chunks should be mostly redundant, got %.2f", s)
	}
	single := []seq.Sequence{{ID: 0, Len: 65536}}
	if s := share(single); s > 0.01 {
		t.Fatalf("single sequence has no packing redundancy, got %.2f", s)
	}
}

// On a short-heavy distribution, packing's redundant attention makes it
// slower than TE CP's redundancy-free even split would suggest relative
// to its communication savings — and clearly slower than Hybrid DP which
// computes only the true triangles.
func TestPackingLosesOnShortHeavyBatches(t *testing.T) {
	c := cfg(2)
	batch := make([]seq.Sequence, 0, 64)
	for i := 0; i < 64; i++ {
		batch = append(batch, seq.Sequence{ID: i, Len: 1024})
	}
	pk, err := trainer.Run(c, Packing{}, batch)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := trainer.Run(c, HybridDP{}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if pk.TokensPerSec >= hy.TokensPerSec {
		t.Fatalf("packing (%.0f) should lose to Hybrid DP (%.0f) on all-short batches",
			pk.TokensPerSec, hy.TokensPerSec)
	}
}

// Packing balances linear tokens perfectly regardless of input skew.
func TestPackingLinearBalance(t *testing.T) {
	c := cfg(2)
	env, err := c.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	batch := batchOf(t, c, workload.ProLong64k)
	pl, err := (Packing{}).Plan(env, batch)
	if err != nil {
		t.Fatal(err)
	}
	eff := pl.LinearEffectiveTokens(env)
	for i := 1; i < len(eff); i++ {
		if eff[i] != eff[0] {
			t.Fatal("packed linear tokens must be uniform")
		}
	}
}
