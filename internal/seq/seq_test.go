package seq

import (
	"testing"
	"testing/quick"
)

func TestZoneString(t *testing.T) {
	if ZoneLocal.String() != "local" || ZoneIntra.String() != "intra-node" || ZoneInter.String() != "inter-node" {
		t.Fatal("zone names wrong")
	}
	if Zone(9).String() == "" {
		t.Fatal("unknown zone should stringify")
	}
}

func TestSplitEven(t *testing.T) {
	got := SplitEven(10, 4)
	want := []int{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitEven(10,4) = %v", got)
		}
	}
	if got := SplitEven(0, 3); got[0]+got[1]+got[2] != 0 {
		t.Fatalf("SplitEven(0,3) = %v", got)
	}
}

func TestSplitEvenPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitEven(5, 0)
}

func TestPropertySplitEvenConserves(t *testing.T) {
	f := func(n uint16, k uint8) bool {
		kk := int(k%32) + 1
		parts := SplitEven(int(n), kk)
		sum := 0
		maxP, minP := parts[0], parts[0]
		for _, p := range parts {
			sum += p
			if p > maxP {
				maxP = p
			}
			if p < minP {
				minP = p
			}
		}
		return sum == int(n) && maxP-minP <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRingShares(t *testing.T) {
	r := Ring{Seq: Sequence{ID: 1, Len: 1000}, Zone: ZoneIntra, Ranks: []int{0, 1, 2, 3}}
	if r.G() != 4 {
		t.Fatalf("G = %d", r.G())
	}
	tk := r.TokensPerRank()
	sum := 0
	for _, v := range tk {
		sum += v
	}
	if sum != 1000 {
		t.Fatalf("token shares sum to %d", sum)
	}
	wantPairs := 1000.0 * 1001 / 2 / 4
	if r.PairsPerRank() != wantPairs {
		t.Fatalf("pairs per rank = %v, want %v", r.PairsPerRank(), wantPairs)
	}
}

func TestSortByLenDesc(t *testing.T) {
	s := []Sequence{{ID: 1, Len: 5}, {ID: 2, Len: 9}, {ID: 3, Len: 9}, {ID: 4, Len: 1}}
	SortByLenDesc(s)
	if s[0].ID != 2 || s[1].ID != 3 || s[3].ID != 4 {
		t.Fatalf("sorted = %v", s)
	}
	if TotalLen(s) != 24 {
		t.Fatalf("TotalLen = %d", TotalLen(s))
	}
}

func makePlan() (*Plan, []Sequence) {
	batch := []Sequence{{ID: 0, Len: 4000}, {ID: 1, Len: 100}, {ID: 2, Len: 200}}
	p := NewPlan(4)
	p.Local[0] = append(p.Local[0], batch[1])
	p.Local[3] = append(p.Local[3], batch[2])
	p.Rings = append(p.Rings, Ring{Seq: batch[0], Zone: ZoneIntra, Ranks: []int{0, 1, 2, 3}})
	return p, batch
}

func TestPlanAccounting(t *testing.T) {
	p, batch := makePlan()
	if err := p.Validate(batch); err != nil {
		t.Fatal(err)
	}
	toks := p.TokensPerRank()
	if toks[0] != 1100 || toks[1] != 1000 || toks[2] != 1000 || toks[3] != 1200 {
		t.Fatalf("tokens per rank = %v", toks)
	}
	if p.TotalTokens() != 4300 {
		t.Fatalf("total = %d", p.TotalTokens())
	}
	pairs := p.PairsPerRank()
	if pairs[1] != pairs[2] {
		t.Fatal("ring members should share equal pairs")
	}
	if pairs[0] <= pairs[1] {
		t.Fatal("rank 0 has an extra local sequence, so more pairs")
	}
}

func TestPlanValidateCatchesErrors(t *testing.T) {
	batch := []Sequence{{ID: 0, Len: 100}}

	p := NewPlan(2)
	if err := p.Validate(batch); err == nil {
		t.Fatal("missing sequence should fail")
	}

	p = NewPlan(2)
	p.Local[0] = append(p.Local[0], Sequence{ID: 0, Len: 50})
	if err := p.Validate(batch); err == nil {
		t.Fatal("token loss should fail")
	}

	p = NewPlan(2)
	p.Rings = append(p.Rings, Ring{Seq: batch[0], Zone: ZoneIntra, Ranks: []int{0}})
	if err := p.Validate(batch); err == nil {
		t.Fatal("ring of 1 should fail")
	}

	p = NewPlan(2)
	p.Rings = append(p.Rings, Ring{Seq: batch[0], Zone: ZoneIntra, Ranks: []int{0, 0}})
	if err := p.Validate(batch); err == nil {
		t.Fatal("duplicate rank should fail")
	}

	p = NewPlan(2)
	p.Rings = append(p.Rings, Ring{Seq: batch[0], Zone: ZoneLocal, Ranks: []int{0, 1}})
	if err := p.Validate(batch); err == nil {
		t.Fatal("local ring should fail")
	}

	p = NewPlan(2)
	p.Rings = append(p.Rings, Ring{Seq: batch[0], Zone: ZoneInter, Ranks: []int{0, 5}})
	if err := p.Validate(batch); err == nil {
		t.Fatal("out-of-range rank should fail")
	}
}
