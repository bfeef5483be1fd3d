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

// TestCountKind: the replan-execution count filters on kind and chosen.
func TestCountKind(t *testing.T) {
	tr := &Trace{}
	for _, r := range sampleRecords() {
		tr.Add(r)
	}
	tr.Add(Record{Iter: 2, Kind: KindReplan, Chosen: "reuse"})
	if n := tr.CountKind(KindReplan, "replan"); n != 1 {
		t.Fatalf("replan executions = %d, want 1", n)
	}
	if n := tr.CountKind(KindReplan, ""); n != 2 {
		t.Fatalf("replan decisions = %d, want 2", n)
	}
	if n := tr.Len(); n != 4 {
		t.Fatalf("len = %d, want 4", n)
	}
}

// TestReset: a reused trace starts empty.
func TestReset(t *testing.T) {
	tr := &Trace{}
	tr.Add(Record{Iter: 0, Kind: KindReplan, Chosen: "replan"})
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("reset left records behind")
	}
}

// TestConcurrentReads: snapshots may race the producing loop — the
// zeppelind decisions route reads while the stream is running.
func TestConcurrentReads(t *testing.T) {
	tr := &Trace{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			tr.Add(Record{Iter: i, Kind: KindReplan, Chosen: "reuse"})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			recs := tr.Records()
			for j := 1; j < len(recs); j++ {
				if recs[j].Iter < recs[j-1].Iter {
					t.Error("snapshot out of order")
					return
				}
			}
		}
	}()
	wg.Wait()
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
