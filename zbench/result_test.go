package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// An untraced run reports exactly the end-to-end metrics BENCHMARK.json
// declares, and a traced run exactly the per-layer ones, with the
// declared units. One grid pass of plan-fig8 exercises both paths.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one plan-fig8 pass twice")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := newAPI()
	if err != nil {
		t.Fatal(err)
	}
	units := unitSeeds(planFig8, 1, 1)
	timed, err := runTimed(ctx, a, planFig8, units, 1)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(ctx, a, planFig8, units)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		res  *result
		want []decl
	}{{timed, bench.EndToEnd}, {traced, bench.PerLayer}} {
		if !c.res.Correct || c.res.Failed != 0 || c.res.Attempted != 144 {
			t.Errorf("run not clean: correct %v, %d of %d failed", c.res.Correct, c.res.Failed, c.res.Attempted)
		}
		if len(c.res.Metrics) != len(c.want) {
			t.Errorf("%d metrics reported, %d declared", len(c.res.Metrics), len(c.want))
		}
		for _, d := range c.want {
			m, ok := c.res.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("declared metric %s not reported", d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s reported in %s, declared in %s", d.Name, m.Unit, d.Unit)
			}
		}
	}
}
