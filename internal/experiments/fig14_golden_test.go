package experiments

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
)

// TestFig14Golden pins the fault-and-elasticity campaign headline
// numbers at one seed: per-(scenario, method) campaign goodput, the
// goodput ratio against the method's own healthy run, recovery
// footprints, and the Zeppelin-over-TE-CP degradation edges. Every
// campaign is fully deterministic, so drift here means a code change
// silently altered the faulted results — if intentional, re-pin and say
// so in the commit.
func TestFig14Golden(t *testing.T) {
	res, err := Fig14(Options{Seeds: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		tput, ratio, p99 float64
		recovery         int
		replans          float64
	}
	want := map[string]golden{
		"healthy/TE CP":       {13816.3724, 1.000000, 7.137836, 0, 0},
		"healthy/LLaMA CP":    {27747.8257, 1.000000, 4.089933, 0, 0},
		"healthy/Hybrid DP":   {25371.7282, 1.000000, 6.378225, 0, 198},
		"healthy/Zeppelin":    {40428.9452, 1.000000, 4.715038, 0, 198},
		"straggler/TE CP":     {12585.9062, 0.910941, 8.524114, 100, 0},
		"straggler/LLaMA CP":  {21310.6154, 0.768010, 6.811404, 109, 0},
		"straggler/Hybrid DP": {21782.7050, 0.858542, 7.245118, 81, 198},
		"straggler/Zeppelin":  {39609.5162, 0.979732, 4.735094, 53, 199},
		"failstop/TE CP":      {13346.9501, 0.966024, 7.139616, 1, 0},
		"failstop/LLaMA CP":   {26143.6250, 0.942186, 4.117038, 28, 0},
		"failstop/Hybrid DP":  {23544.7114, 0.927990, 7.163151, 37, 195},
		"failstop/Zeppelin":   {35483.3947, 0.877673, 4.737031, 88, 195},
		"shrink/TE CP":        {12680.6783, 0.917801, 8.987074, 60, 0},
		"shrink/LLaMA CP":     {22008.1432, 0.793148, 7.702157, 82, 0},
		"shrink/Hybrid DP":    {21370.6075, 0.842300, 9.337365, 73, 194},
		"shrink/Zeppelin":     {38272.1266, 0.946652, 4.345385, 78, 194},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		key := row.Scenario + "/" + row.Method
		g, ok := want[key]
		if !ok {
			t.Errorf("unexpected fig14 row %q", key)
			continue
		}
		near(t, key+"/tput", row.TokensPerSec, g.tput)
		near(t, key+"/ratio", row.GoodputRatio, g.ratio)
		near(t, key+"/p99", row.P99IterTime, g.p99)
		near(t, key+"/replans", row.Replans, g.replans)
		if row.RecoveryIters != g.recovery {
			t.Errorf("%s/recovery = %d, want %d", key, row.RecoveryIters, g.recovery)
		}
	}

	// The headline acceptance invariant: Zeppelin's goodput degrades
	// strictly less than TE CP's under the straggler and elastic-shrink
	// scenarios — speed-aware replanning absorbs faults that even splits
	// must ride out.
	near(t, "straggler edge", Fig14DegradationEdge(res, "straggler"), 1.075515)
	near(t, "shrink edge", Fig14DegradationEdge(res, "shrink"), 1.031435)
	for _, scen := range []string{"straggler", "shrink"} {
		zep, te := Fig14Ratio(res, scen, "Zeppelin"), Fig14Ratio(res, scen, "TE CP")
		if zep <= te {
			t.Errorf("%s: Zeppelin ratio %.4f must strictly exceed TE CP's %.4f", scen, zep, te)
		}
	}
	// The honest counterpoint stays pinned too: a fail-stop's fixed
	// checkpoint-restart charge costs the fastest system the most
	// relative goodput.
	near(t, "failstop edge", Fig14DegradationEdge(res, "failstop"), 0.908541)

	// Every scenario carries a full Zeppelin sample report; faulted ones
	// must surface fault markers for the timeline renderer.
	for _, scen := range res.Scenarios {
		sample := res.Samples[scen]
		if sample == nil || len(sample.Records) != Fig14Iters {
			t.Fatalf("scenario %s: sample report missing or truncated", scen)
		}
		events := 0
		for _, rec := range sample.Records {
			events += len(rec.Events)
		}
		if scen == "healthy" && events != 0 {
			t.Errorf("healthy sample carries %d fault events", events)
		}
		if scen != "healthy" && events == 0 {
			t.Errorf("scenario %s: sample report has no fault/recovery markers", scen)
		}
	}
}

// TestFig14SerialParallelIdentical extends the campaign acceptance
// invariant to the fault grid: the whole fault-and-elasticity grid —
// per-iteration records, markers, and migrations included — must be
// bit-identical on one worker and on an oversubscribed pool.
func TestFig14SerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault grid in -short mode")
	}
	serial, err := Fig14(Options{Seeds: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig14(Options{Seeds: 1, Workers: 2 * runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Rows, parallel.Rows) {
		t.Fatal("serial and parallel fault-grid rows differ")
	}
	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(parallel)
	if string(a) != string(b) {
		t.Fatal("serial and parallel fault-grid artifacts differ")
	}
}
