package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
)

func m7bA() *Model { return MustNew(model.LLaMA7B, cluster.ClusterA, 1) }

func TestNewValidation(t *testing.T) {
	if _, err := New(model.LLaMA7B, cluster.ClusterA, 0); err == nil {
		t.Fatal("expected error for TP=0")
	}
	if _, err := New(model.LLaMA7B, cluster.ClusterA, 3); err == nil {
		t.Fatal("expected error for TP not dividing heads")
	}
	if _, err := New(model.Config{Name: "bad"}, cluster.ClusterA, 1); err == nil {
		t.Fatal("expected error for invalid model")
	}
	if _, err := New(model.LLaMA7B, cluster.ClusterA, 2); err != nil {
		t.Fatal(err)
	}
}

// Fig. 5 calibration: a 64k causal sequence on one A800 should cost on the
// order of 100–400 ms of attention compute (the paper's curve tops out
// near 240 ms for its hidden size).
func TestAttnTimeMagnitudeMatchesFig5(t *testing.T) {
	got := m7bA().CausalAttnTime(65536)
	if got < 0.08 || got > 0.5 {
		t.Fatalf("64k attention time = %v s, outside plausible Fig.5 range", got)
	}
}

// Fig. 12 calibration: TE CP on 16 GPUs / 64k context sends 4k tokens of
// 3B-model KV cross-node per round, measured at 2.18 ms. Our model should
// land within 2x.
func TestInterKVTransferMatchesFig12(t *testing.T) {
	m := MustNew(model.LLaMA3B, cluster.ClusterA, 1)
	got := m.InterTime(m.KVBytes(4096))
	if got < 1.0e-3 || got > 4.5e-3 {
		t.Fatalf("cross-node 4k KV transfer = %v s, want ~2.18ms", got)
	}
}

func TestTPDividesComputeAndKV(t *testing.T) {
	m1 := MustNew(model.LLaMA13B, cluster.ClusterA, 1)
	m2 := MustNew(model.LLaMA13B, cluster.ClusterA, 2)
	if r := m1.CausalAttnTime(8192) / m2.CausalAttnTime(8192); math.Abs(r-2) > 1e-9 {
		t.Fatalf("TP=2 should halve attention time, ratio %v", r)
	}
	if r := m1.KVBytes(8192) / m2.KVBytes(8192); math.Abs(r-2) > 1e-9 {
		t.Fatalf("TP=2 should halve KV bytes, ratio %v", r)
	}
	if r := m1.LinearTime(8192) / m2.LinearTime(8192); math.Abs(r-2) > 1e-9 {
		t.Fatalf("TP=2 should halve linear time, ratio %v", r)
	}
}

func TestZeroInputsCostNothing(t *testing.T) {
	m := m7bA()
	if m.AttnTimePairs(0) != 0 || m.LinearTime(0) != 0 ||
		m.IntraTime(0) != 0 || m.InterTime(0) != 0 {
		t.Fatal("zero-size work must be free")
	}
}

// Fig. 5 zones: the local/intra boundary must be below the intra/inter
// boundary (NVSwitch is faster than a NIC) and both should land in the
// sub-1k .. tens-of-k range the paper's figure shows.
func TestZoneBoundariesOrderedAndPlausible(t *testing.T) {
	m := m7bA()
	s0 := m.LocalIntraBoundary()
	s1 := m.IntraInterBoundary()
	if !(s0 < s1) {
		t.Fatalf("boundaries out of order: local/intra %v >= intra/inter %v", s0, s1)
	}
	if s0 < 100 || s0 > 4096 {
		t.Fatalf("local/intra boundary %v outside plausible range (paper: <1k-ish)", s0)
	}
	if s1 < 2048 || s1 > 65536 {
		t.Fatalf("intra/inter boundary %v outside plausible range (paper: ~8-16k)", s1)
	}
}

// On the higher-bandwidth Cluster C, both boundaries shift left relative
// to compute (faster links are easier to hide), but the faster H200 also
// shrinks compute time; the net intra/inter boundary should still exist
// and stay finite.
func TestZoneBoundariesClusterC(t *testing.T) {
	m := MustNew(model.LLaMA7B, cluster.ClusterC, 1)
	s1 := m.IntraInterBoundary()
	if math.IsInf(s1, 1) || s1 <= 0 {
		t.Fatalf("intra/inter boundary on C = %v", s1)
	}
}

func TestPackedPairsRedundancy(t *testing.T) {
	useful, redundant := PackedPairs([]int{100, 100})
	// Packed triangle of 200 = 20100; useful = 2 × 5050.
	if useful != 10100 {
		t.Fatalf("useful = %v", useful)
	}
	if redundant != 10000 {
		t.Fatalf("redundant = %v, want 100×100 cross block", redundant)
	}
	u2, r2 := PackedPairs([]int{200})
	if r2 != 0 || u2 != 20100 {
		t.Fatalf("single sequence should have no redundancy: %v %v", u2, r2)
	}
}

func TestBackwardFactors(t *testing.T) {
	if BwdComputeFactor != 2.0 || BwdCommFactor != 2.0 {
		t.Fatal("backward factors should model the ~2x observed in Fig. 12")
	}
}

// Property: attention time is monotone in pairs; transfer times are
// monotone in bytes. The partitioner's greedy arguments rely on this.
func TestPropertyMonotone(t *testing.T) {
	m := m7bA()
	f := func(a, b uint32) bool {
		x, y := float64(a%1000000), float64(b%1000000)
		if x > y {
			x, y = y, x
		}
		return m.AttnTimePairs(x) <= m.AttnTimePairs(y) &&
			m.IntraTime(x) <= m.IntraTime(y) &&
			m.InterTime(x) <= m.InterTime(y) &&
			m.LinearTime(x) <= m.LinearTime(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: packing redundancy is never negative and is zero only for
// single-sequence packs.
func TestPropertyPackedRedundancyNonNegative(t *testing.T) {
	f := func(ls []uint16) bool {
		lengths := make([]int, 0, len(ls))
		for _, l := range ls {
			if l > 0 {
				lengths = append(lengths, int(l))
			}
		}
		_, red := PackedPairs(lengths)
		if red < 0 {
			return false
		}
		if len(lengths) >= 2 && red == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
