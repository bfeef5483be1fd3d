package partition

import (
	"math/rand"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/seq"
	"zeppelin/internal/workload"
)

func newPart(t *testing.T, spec cluster.Spec, nodes, capacity int) *Partitioner {
	t.Helper()
	p, err := New(Config{Cluster: cluster.MustNew(spec, nodes), CapacityTokens: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil cluster should fail")
	}
	if _, err := New(Config{Cluster: cluster.MustNew(cluster.ClusterA, 1)}); err == nil {
		t.Fatal("zero capacity should fail")
	}
}

func TestRejectsOversizedBatch(t *testing.T) {
	p := newPart(t, cluster.ClusterA, 1, 1000)
	_, err := p.Plan([]seq.Sequence{{ID: 0, Len: 9000}})
	if err == nil {
		t.Fatal("batch exceeding aggregate capacity must fail")
	}
}

func TestRejectsEmptySequence(t *testing.T) {
	p := newPart(t, cluster.ClusterA, 1, 1000)
	if _, err := p.Plan([]seq.Sequence{{ID: 0, Len: 0}}); err == nil {
		t.Fatal("zero-length sequence must fail")
	}
}

func TestShortSequencesStayLocal(t *testing.T) {
	p := newPart(t, cluster.ClusterA, 2, 8192)
	batch := []seq.Sequence{}
	for i := 0; i < 16; i++ {
		batch = append(batch, seq.Sequence{ID: i, Len: 500})
	}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Rings) != 0 {
		t.Fatalf("short sequences should all be local, got %d rings", len(res.Plan.Rings))
	}
	// 16 sequences over 16 GPUs: greedy least-loaded gives one each.
	for r, ls := range res.Plan.Local {
		if len(ls) != 1 {
			t.Fatalf("rank %d has %d local sequences, want 1", r, len(ls))
		}
	}
}

func TestLongSequenceSpansNodes(t *testing.T) {
	// One sequence filling the entire 2-node budget must ring over all 16.
	p := newPart(t, cluster.ClusterA, 2, 4096)
	batch := []seq.Sequence{{ID: 0, Len: 2 * 8 * 4096}}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Rings) != 1 {
		t.Fatalf("want 1 ring, got %d", len(res.Plan.Rings))
	}
	ring := res.Plan.Rings[0]
	if ring.Zone != seq.ZoneInter {
		t.Fatalf("zone = %v, want inter-node", ring.Zone)
	}
	if ring.G() != 16 {
		t.Fatalf("ring size = %d, want 16", ring.G())
	}
}

func TestMediumSequenceIntraNodeRing(t *testing.T) {
	// A sequence just under the inter threshold but above device capacity
	// must split within a node.
	p := newPart(t, cluster.ClusterA, 2, 4096)
	batch := []seq.Sequence{
		{ID: 0, Len: 3 * 4096}, // needs ~3 devices
		{ID: 1, Len: 1000}, {ID: 2, Len: 1000}, {ID: 3, Len: 900},
	}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	var intraRings int
	c := cluster.MustNew(cluster.ClusterA, 2)
	for _, ring := range res.Plan.Rings {
		if ring.Zone == seq.ZoneIntra {
			intraRings++
			node := c.NodeOf(ring.Ranks[0])
			for _, r := range ring.Ranks {
				if c.NodeOf(r) != node {
					t.Fatal("intra ring must stay within one node")
				}
			}
		}
	}
	if intraRings == 0 {
		t.Fatal("expected at least one intra-node ring")
	}
}

func TestCapacityRespected(t *testing.T) {
	cap := 4096
	p := newPart(t, cluster.ClusterA, 2, cap)
	rng := rand.New(rand.NewSource(42))
	batch := workload.ArXiv.Batch(16*4096, rng)
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	for r, tok := range res.Plan.TokensPerRank() {
		// Alg. 2 balances *quadratic* cost for fragmented sequences, so a
		// rank's token count can modestly exceed L (only local-zone
		// placements are capacity-gated). Allow 10% headroom.
		if float64(tok) > 1.1*float64(cap) {
			t.Fatalf("rank %d holds %d tokens, capacity %d", r, tok, cap)
		}
	}
}

func TestThresholdLoweringConverges(t *testing.T) {
	// Capacity forces nearly every sequence to split: many sequences of
	// exactly capacity size.
	p := newPart(t, cluster.ClusterA, 2, 1024)
	var batch []seq.Sequence
	for i := 0; i < 16; i++ {
		batch = append(batch, seq.Sequence{ID: i, Len: 1024})
	}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	if res.S1 > 8*1024 {
		t.Fatalf("s1 = %d should not exceed initial P*L", res.S1)
	}
}

func TestQuadraticBalanceAcrossDevices(t *testing.T) {
	// One node, one long + filler shorts: pair loads should be far closer
	// than a token-balanced split of whole sequences would give.
	p := newPart(t, cluster.ClusterA, 1, 8192)
	batch := []seq.Sequence{
		{ID: 0, Len: 16384}, // must fragment over >= 2 devices
		{ID: 1, Len: 4000}, {ID: 2, Len: 4000}, {ID: 3, Len: 4000},
		{ID: 4, Len: 4000}, {ID: 5, Len: 4000}, {ID: 6, Len: 4000},
	}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	pairs := res.Plan.PairsPerRank()
	var maxP, sumP float64
	for _, q := range pairs {
		sumP += q
		if q > maxP {
			maxP = q
		}
	}
	avg := sumP / float64(len(pairs))
	if maxP > 3*avg {
		t.Fatalf("quadratic imbalance too high: max %.3g vs avg %.3g (pairs=%v)", maxP, avg, pairs)
	}
}

func TestInterRingCrossNodeChunking(t *testing.T) {
	// Two long sequences on 4 nodes: each should chunk across ~2 nodes
	// rather than spreading thinly over all 4 (Alg. 1 lines 7-10 increase
	// granularity for cross-node sequences).
	p := newPart(t, cluster.ClusterA, 4, 4096)
	batch := []seq.Sequence{
		{ID: 0, Len: 60000},
		{ID: 1, Len: 60000},
	}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Rings) != 2 {
		t.Fatalf("want 2 rings, got %d", len(res.Plan.Rings))
	}
	for _, ring := range res.Plan.Rings {
		if ring.G() != 16 { // 2 nodes × 8 GPUs each
			t.Fatalf("ring size = %d, want 16 (2 nodes)", ring.G())
		}
	}
}

func TestDeterministicPlans(t *testing.T) {
	p := newPart(t, cluster.ClusterA, 2, 4096)
	rng1 := rand.New(rand.NewSource(9))
	batch := workload.GitHub.Batch(16*4096, rng1)
	r1, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	p2 := newPart(t, cluster.ClusterA, 2, 4096)
	r2, err := p2.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := r1.Plan.TokensPerRank(), r2.Plan.TokensPerRank()
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("plans must be deterministic")
		}
	}
}

// Property-style test over all datasets, scales, and seeds: plans always
// validate (token conservation, ring structure) and respect capacity.
func TestPropertyPlansValidateAcrossWorkloads(t *testing.T) {
	specs := []cluster.Spec{cluster.ClusterA, cluster.ClusterC}
	for _, spec := range specs {
		for _, nodes := range []int{1, 2, 4} {
			for _, d := range workload.Eval {
				rng := rand.New(rand.NewSource(int64(nodes)*100 + int64(len(d.Name))))
				c := cluster.MustNew(spec, nodes)
				capTok := 8192
				p, err := New(Config{Cluster: c, CapacityTokens: capTok})
				if err != nil {
					t.Fatal(err)
				}
				batch := d.Batch(c.World()*4096, rng)
				res, err := p.Plan(batch)
				if err != nil {
					t.Fatalf("%s/%s/%d nodes: %v", spec.Name, d.Name, nodes, err)
				}
				if err := res.Plan.Validate(batch); err != nil {
					t.Fatalf("%s/%s/%d nodes: %v", spec.Name, d.Name, nodes, err)
				}
				if res.S1 <= 0 || res.S1 > c.GPUsPerNode*capTok {
					t.Fatalf("s1 = %d out of range", res.S1)
				}
			}
		}
	}
}

func TestLeastLoaded(t *testing.T) {
	ones := []float64{1, 1, 1, 1}
	var v loadVec
	v.init([]int{5, 1, 3, 1}, ones)
	if got := v.least(2); got[0] != 1 || got[1] != 3 {
		t.Fatalf("least = %v, want [1 3]", got)
	}
	// Time loads: rank 0 is fast, rank 1 slow — 5/5 < 1/0.1.
	v.init([]int{5, 1, 3, 1}, []float64{5, 0.1, 1, 1})
	if got := v.least(2); got[0] != 0 || got[1] != 3 {
		t.Fatalf("speed-weighted least = %v, want [0 3]", got)
	}
	// Equal loads go to the position the selection swaps reach first:
	// picking index 2 swaps index 0 behind index 1.
	v.init([]int{1, 1, 0}, ones[:3])
	if got := v.least(2); got[0] != 2 || got[1] != 1 {
		t.Fatalf("least with ties = %v, want [2 1]", got)
	}
	// k == 1 takes the argmin early exit.
	v.init([]int{4, 2, 9}, ones[:3])
	if one := v.least(1); len(one) != 1 || one[0] != 1 {
		t.Fatalf("least k=1 = %v, want [1]", one)
	}
}

func TestArgminLoad(t *testing.T) {
	var v loadVec
	v.init([]int{3, 1, 2}, []float64{1, 1, 1})
	if v.argmin() != 1 {
		t.Fatal("argmin wrong")
	}
	v.init([]int{7}, []float64{1})
	if v.argmin() != 0 {
		t.Fatal("argmin singleton wrong")
	}
	v.init([]int{2, 1, 1}, []float64{1, 1, 1})
	if v.argmin() != 1 {
		t.Fatal("argmin tie must go to the lowest index")
	}
	// The fast rank's time load wins: 3/10 < 1/1.
	v.init([]int{3, 1, 2}, []float64{10, 1, 1})
	if v.argmin() != 0 {
		t.Fatal("speed-weighted argmin wrong")
	}
	// add refreshes the time load: 23/10 > 1/1.
	v.add(0, 20)
	if v.argmin() != 1 {
		t.Fatal("argmin ignores a landed placement")
	}
}

// From treeMin slots on argmin reads a tournament tree. It must pick what
// a scan picks, ties to the lowest index, wherever placements land.
func TestArgminTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 8, treeMin - 1, treeMin, treeMin + 1, 40, 257} {
		tok := make([]int, n)
		speed := make([]float64, n)
		for i := range speed {
			speed[i] = []float64{0.5, 1, 2}[rng.Intn(3)]
		}
		var v loadVec
		v.init(tok, speed)
		for step := 0; step < 20*n; step++ {
			want := 0
			for i := range tok {
				if float64(tok[i])/speed[i] < float64(tok[want])/speed[want] {
					want = i
				}
			}
			got := v.argmin()
			if got != want {
				t.Fatalf("n=%d step %d: argmin = %d, want %d", n, step, got, want)
			}
			// Small increments keep ties common; every third lands off
			// the argmin.
			slot := got
			if step%3 == 0 {
				slot = rng.Intn(n)
			}
			v.add(slot, 1+rng.Intn(3))
		}
	}
}
