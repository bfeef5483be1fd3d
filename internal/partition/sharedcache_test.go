package partition

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/seq"
)

// TestSharedCacheCrossPlannerHit: a full solve published by one planner
// serves another planner's identical request bit-identically, counted as
// a shared hit on the consumer and exactly one miss on the producer.
func TestSharedCacheCrossPlannerHit(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(7))
	batch := sampleBatch(cfg, rng, 0.8)
	shared := NewSharedCache(8)

	producer := NewIncremental(IncrementalConfig{Shared: shared})
	res1, st1 := mustPlan(t, producer, cfg, batch)
	if st1 != PlanFull {
		t.Fatalf("producer mode = %s, want full", st1)
	}

	consumer := NewIncremental(IncrementalConfig{Shared: shared})
	res2, st2 := mustPlan(t, consumer, cfg, batch)
	if st2 != PlanShared {
		t.Fatalf("consumer mode = %s, want shared", st2)
	}
	if res2 != res1 {
		t.Fatal("shared hit returned a different Result than the published solve")
	}
	// The shared hit now sits in the consumer's own cache too.
	if _, st3 := mustPlan(t, consumer, cfg, batch); st3 != PlanCached {
		t.Fatalf("consumer repeat mode = %s, want cached", st3)
	}
	if c := consumer.Counters(); c.Shared != 1 || c.Cached != 1 || c.Full != 0 {
		t.Fatalf("consumer counters = %+v, want one shared and one local hit", c)
	}

	// The shared result matches an independent stateless solve.
	part, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := part.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Plan.TokensPerRank(), want.Plan.TokensPerRank()) {
		t.Fatalf("shared plan layout %v != stateless solve %v",
			res2.Plan.TokensPerRank(), want.Plan.TokensPerRank())
	}

	st := shared.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("shared stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestSharedCacheDistinguishesNodeSplit: a 2×8 and a 4×4 cluster share a
// world of 16 but bucket sequences differently — the shared tier must
// never serve one shape's plan to the other.
func TestSharedCacheDistinguishesNodeSplit(t *testing.T) {
	spec44 := cluster.ClusterA
	spec44.GPUsPerNode = 4
	spec44.NICsPerNode = 2
	cfg28 := Config{Cluster: cluster.MustNew(cluster.ClusterA, 2), CapacityTokens: 5120}
	cfg44 := Config{Cluster: cluster.MustNew(spec44, 4), CapacityTokens: 5120}
	rng := rand.New(rand.NewSource(11))
	batch := sampleBatch(cfg28, rng, 0.8)

	shared := NewSharedCache(8)
	p1 := NewIncremental(IncrementalConfig{Shared: shared})
	if _, st := mustPlan(t, p1, cfg28, batch); st != PlanFull {
		t.Fatalf("first shape mode = %s, want full", st)
	}
	p2 := NewIncremental(IncrementalConfig{Shared: shared})
	if _, st := mustPlan(t, p2, cfg44, batch); st != PlanFull {
		t.Fatalf("4x4 shape served the 2x8 plan: mode = %s, want full", st)
	}
	if st := shared.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (one per node shape)", st.Entries)
	}
}

// TestSharedCacheSpeedViewsAreDistinct: plans solved under a degraded
// effective-speed view never answer healthy requests (and vice versa).
func TestSharedCacheSpeedViewsAreDistinct(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(13))
	batch := sampleBatch(cfg, rng, 0.8)

	degraded := cfg
	degraded.Speeds = make([]float64, cfg.Cluster.World())
	for i := range degraded.Speeds {
		degraded.Speeds[i] = 1
	}
	degraded.Speeds[0] = 0.4

	shared := NewSharedCache(8)
	p := NewIncremental(IncrementalConfig{Shared: shared})
	mustPlan(t, p, cfg, batch)
	q := NewIncremental(IncrementalConfig{Shared: shared})
	if _, st := mustPlan(t, q, degraded, batch); st != PlanFull {
		t.Fatalf("degraded view hit the healthy entry: mode = %s", st)
	}
}

// TestSharedCacheLRUEviction: the tier is bounded; the oldest entry
// falls out once the cap is exceeded.
func TestSharedCacheLRUEviction(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(17))
	shared := NewSharedCache(2)

	batches := make([][]seq.Sequence, 3)
	for i := range batches {
		batches[i] = sampleBatch(cfg, rng, 0.5+0.1*float64(i))
		p := NewIncremental(IncrementalConfig{Shared: shared})
		mustPlan(t, p, cfg, batches[i])
	}
	if st := shared.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want cap 2", st.Entries)
	}
	if _, ok := shared.Get(cfg, batches[0]); ok {
		t.Fatal("oldest entry survived past the cap")
	}
	if _, ok := shared.Get(cfg, batches[2]); !ok {
		t.Fatal("newest entry evicted")
	}
}

// TestSharedCacheConcurrentPlanners: many goroutines, each with a
// private planner, hammer a small set of keys through one shared tier.
// Every result must equal the reference stateless solve for its batch —
// the bit-identical contract under concurrency (and the race detector
// covers the locking).
func TestSharedCacheConcurrentPlanners(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(19))
	const keys = 4
	batches := make([][]seq.Sequence, keys)
	wantLayouts := make([][]int, keys)
	for i := range batches {
		batches[i] = sampleBatch(cfg, rng, 0.5+0.08*float64(i))
		part, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := part.Plan(batches[i])
		if err != nil {
			t.Fatal(err)
		}
		wantLayouts[i] = res.Plan.TokensPerRank()
	}

	shared := NewSharedCache(8)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := NewIncremental(IncrementalConfig{Shared: shared})
			for i := 0; i < 16; i++ {
				k := (g + i) % keys
				res, _, err := p.Plan(cfg, batches[k])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Plan.TokensPerRank(), wantLayouts[k]) {
					t.Errorf("goroutine %d key %d: layout diverged", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := shared.Stats()
	if st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("shared tier unused under concurrency: %+v", st)
	}
}

// TestSharedCacheStatsConsistentUnderConcurrentPublish hammers Get/Put
// directly from many goroutines — including concurrent duplicate
// publishes of the same key — and checks the counter arithmetic the
// /v1/stats and /metrics surfaces report from these numbers: every Get
// is exactly one hit or one miss, duplicate publishes deduplicate
// instead of storing twice, the entry count never exceeds the cap, and
// the eviction counter stays consistent with the inserts that actually
// happened (it can never wrap "negative"). Run under -race this also
// covers the locking of the stats snapshot against publishers.
func TestSharedCacheStatsConsistentUnderConcurrentPublish(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(23))
	const keys = 6
	batches := make([][]seq.Sequence, keys)
	results := make([]*Result, keys)
	for i := range batches {
		batches[i] = sampleBatch(cfg, rng, 0.4+0.09*float64(i))
		part, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if results[i], err = part.Plan(batches[i]); err != nil {
			t.Fatal(err)
		}
	}

	hammer := func(capEntries int) (SharedCacheStats, uint64, uint64) {
		shared := NewSharedCache(capEntries)
		var gets, puts atomic.Uint64
		stop := make(chan struct{})
		var readers sync.WaitGroup
		// A concurrent Stats reader: every snapshot it takes mid-hammer
		// must already satisfy the bounds (and -race checks the lock).
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := shared.Stats()
				if st.Entries > st.Capacity {
					t.Errorf("snapshot entries %d exceed capacity %d", st.Entries, st.Capacity)
					return
				}
				if st.Evictions > puts.Load() {
					t.Errorf("snapshot evictions %d exceed %d puts so far", st.Evictions, puts.Load())
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := (g + i) % keys
					gets.Add(1)
					if _, ok := shared.Get(cfg, batches[k]); !ok {
						// Several goroutines miss the same key at once and
						// all publish — the duplicate-publish race under test.
						puts.Add(1)
						shared.Put(cfg, batches[k], results[k])
					}
				}
			}(g)
		}
		wg.Wait()
		close(stop)
		readers.Wait()
		return shared.Stats(), gets.Load(), puts.Load()
	}

	// Roomy cache: every key fits, so dedup alone bounds the entries and
	// nothing is ever evicted.
	st, gets, puts := hammer(keys + 2)
	if st.Hits+st.Misses != gets {
		t.Fatalf("hits %d + misses %d != %d Get calls", st.Hits, st.Misses, gets)
	}
	if st.Entries != keys {
		t.Fatalf("entries = %d, want %d (concurrent duplicate publishes must dedup)", st.Entries, keys)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d on a cache that never filled", st.Evictions)
	}
	if puts < keys {
		t.Fatalf("puts = %d, want >= %d (every key misses at least once)", puts, keys)
	}

	// Undersized cache: constant churn. Every eviction and every resident
	// entry came from an insert and inserts are bounded by puts, so
	// evictions + entries <= puts — the identity that fails loudly if the
	// eviction counter ever wrapped.
	st, gets, puts = hammer(2)
	if st.Hits+st.Misses != gets {
		t.Fatalf("churn: hits %d + misses %d != %d Get calls", st.Hits, st.Misses, gets)
	}
	if st.Entries > 2 {
		t.Fatalf("churn: entries = %d, want <= cap 2", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("churn: rotating 6 keys through a 2-entry cache must evict")
	}
	if st.Evictions+uint64(st.Entries) > puts {
		t.Fatalf("churn: evictions %d + entries %d exceed %d puts", st.Evictions, st.Entries, puts)
	}
}
