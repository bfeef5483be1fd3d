package decision

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{
			Iter: 0, Kind: KindReplan, Chosen: "replan", Forced: true,
			Policy: "threshold(1.30)", Threshold: 1.3, FreshImbalance: 1.02,
			Alternatives: []Alternative{
				{Choice: "replan", Score: 1.02, Chosen: true},
				{Choice: "reuse", Score: 1.02},
			},
		},
		{
			Iter: 1, Kind: KindAdmission, Chosen: "trim",
			Alternatives: []Alternative{
				{Choice: "admit-all", Score: 70000},
				{Choice: "trim", Score: 65536, Chosen: true},
			},
		},
		{
			Iter: 1, Kind: KindPlacement, Chosen: "cached", PlanMode: "cached",
			Alternatives: []Alternative{
				{Choice: "cached", Score: 1, Chosen: true},
				{Choice: "full", Score: 1},
			},
		},
	}
}

// TestNDJSONDeterministic: the same records serialize to byte-identical
// NDJSON on every pass — the property decision-log diffing rests on.
func TestNDJSONDeterministic(t *testing.T) {
	tr := &Trace{}
	for _, r := range sampleRecords() {
		tr.Add(r)
	}
	var a, b bytes.Buffer
	if err := WriteNDJSON(&a, "", tr.Records()); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&b, "", tr.Records()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two serializations of one trace differ")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d NDJSON lines, want 3", len(lines))
	}
	// The replan grep key the CI smoke relies on: kind and chosen are
	// adjacent fields in a stable order.
	if !strings.Contains(lines[0], `"kind":"replan","chosen":"replan"`) {
		t.Fatalf("replan line lost its grep key: %s", lines[0])
	}
	if !strings.Contains(lines[0], `"forced":true`) {
		t.Fatalf("forced marker missing: %s", lines[0])
	}
}

// TestCountKind: the replan-execution count filters on kind and chosen,
// over records spread across several chunks.
func TestCountKind(t *testing.T) {
	tr := &Trace{}
	const rounds = chunkLen
	for i := 0; i < rounds; i++ {
		for _, r := range sampleRecords() {
			tr.Add(r)
		}
		tr.Add(Record{Iter: 2, Kind: KindReplan, Chosen: "reuse"})
	}
	if n := tr.CountKind(KindReplan, "replan"); n != rounds {
		t.Fatalf("replan executions = %d, want %d", n, rounds)
	}
	if n := tr.CountKind(KindReplan, ""); n != 2*rounds {
		t.Fatalf("replan decisions = %d, want %d", n, 2*rounds)
	}
	if n := tr.Len(); n != 4*rounds {
		t.Fatalf("len = %d, want %d", n, 4*rounds)
	}
	if n := len(tr.Records()); n != 4*rounds {
		t.Fatalf("snapshot holds %d records, want %d", n, 4*rounds)
	}
}

// TestReset: a reused trace starts empty, and records added after the
// reset are the only ones it holds.
func TestReset(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 2*chunkLen+1; i++ {
		tr.Add(Record{Iter: i, Kind: KindReplan, Chosen: "replan"})
	}
	tr.Reset()
	if tr.Len() != 0 || len(tr.Records()) != 0 || tr.CountKind(KindReplan, "") != 0 {
		t.Fatal("reset left records behind")
	}
	for i := 0; i < chunkLen+1; i++ {
		tr.Add(Record{Iter: i, Kind: KindScale, Chosen: "hold"})
	}
	recs := tr.Records()
	if len(recs) != chunkLen+1 || tr.CountKind(KindReplan, "") != 0 {
		t.Fatalf("after reset: %d records, %d replan; want %d, 0", len(recs), tr.CountKind(KindReplan, ""), chunkLen+1)
	}
	for i, r := range recs {
		if r.Iter != i || r.Kind != KindScale {
			t.Fatalf("record %d after reset is %+v", i, r)
		}
	}
}

// TestConcurrentReads: snapshots may race the producing loop — the
// zeppelind decisions route reads while the stream is running. The
// producer fills many chunks, so snapshots cross chunk boundaries.
func TestConcurrentReads(t *testing.T) {
	tr := &Trace{}
	const n = 16*chunkLen + 5
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			tr.Add(Record{Iter: i, Kind: KindReplan, Chosen: "reuse"})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			recs := tr.Records()
			for j, r := range recs {
				if r.Iter != j {
					t.Errorf("snapshot holds iteration %d at position %d", r.Iter, j)
					return
				}
			}
		}
	}()
	wg.Wait()
	if tr.Len() != n || tr.CountKind(KindReplan, "reuse") != n {
		t.Fatalf("len %d, counted %d; want %d", tr.Len(), tr.CountKind(KindReplan, "reuse"), n)
	}
}

// TestAddNeverCopies: records go into fixed-size chunks, so n Adds on a
// new trace allocate one chunk per chunkLen records and nothing else. A
// trace kept in one growing slice allocated 7 times for 64 records and
// 8 for 129, copying every record it held at each growth.
func TestAddNeverCopies(t *testing.T) {
	for _, n := range []int{1, chunkLen, chunkLen + 1, 2*chunkLen + 1, 10*chunkLen + 3} {
		chunks := (n + chunkLen - 1) / chunkLen
		var tr Trace
		r := sampleRecords()[0]
		allocs := testing.AllocsPerRun(5, func() {
			tr = Trace{}
			for i := 0; i < n; i++ {
				tr.Add(r)
			}
		})
		if allocs > float64(chunks) {
			t.Errorf("%d Adds: %.0f allocations, want <= %d (one per chunk)", n, allocs, chunks)
		}
		if tr.Len() != n {
			t.Fatalf("len %d, want %d", tr.Len(), n)
		}
	}
}

// TestKindsIsTheVocabulary: Kinds lists every kind exactly once, the
// service-level KindTune included.
func TestKindsIsTheVocabulary(t *testing.T) {
	seen := map[Kind]bool{}
	for _, k := range Kinds() {
		if seen[k] {
			t.Fatalf("kind %q listed twice", k)
		}
		seen[k] = true
	}
	for _, k := range []Kind{KindReplan, KindAdmission, KindPlacement, KindScale, KindRoute, KindTune} {
		if !seen[k] {
			t.Fatalf("Kinds() misses %q", k)
		}
	}
}
