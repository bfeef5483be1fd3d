package main

import (
	"fmt"
	"reflect"
	"testing"
)

func TestOpListIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloadNames {
		a := unitSeeds(wl, 42, 30)
		b := unitSeeds(wl, 42, 30)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 gave two op lists", wl)
		}
		if reflect.DeepEqual(a, unitSeeds(wl, 43, 30)) {
			t.Errorf("%s: seeds 42 and 43 gave the same op list", wl)
		}
		seen := map[int64]bool{}
		for _, s := range a {
			// The warm-up seed lies above every timed seed.
			if s < 1 || s >= warmSeed {
				t.Errorf("%s: timed seed %d outside [1, 2^31)", wl, s)
			}
			if seen[s] {
				t.Errorf("%s: seed %d repeats", wl, s)
			}
			seen[s] = true
		}
	}
	if !reflect.DeepEqual(fig8Pass(7), fig8Pass(7)) {
		t.Error("fig8Pass(7) differs between calls")
	}
}

func TestOpListSizing(t *testing.T) {
	for _, wl := range workloadNames {
		short, long := unitSeeds(wl, 1, 1), unitSeeds(wl, 1, 60)
		if len(short) < sizes[wl].minUnits || len(long) < len(short) {
			t.Errorf("%s: %d units at 1s, %d at 60s", wl, len(short), len(long))
		}
		// A longer run extends the op list; it never reorders it.
		if !reflect.DeepEqual(long[:len(short)], short) {
			t.Errorf("%s: the 60s op list does not start with the 1s one", wl)
		}
	}
	// p90 needs >= 100 samples: one grid pass, or 100 campaigns.
	if n := len(fig8Pass(1)) * len(unitSeeds(planFig8, 1, 1)); n < 100 {
		t.Errorf("plan-fig8 holds %d ops at 1s, want >= 100", n)
	}
	if n := len(unitSeeds(campaignDrift, 1, 1)); n < 100 {
		t.Errorf("campaign-drift holds %d ops at 1s, want >= 100", n)
	}
}

func TestFig8GridShape(t *testing.T) {
	pass := fig8Pass(5)
	if len(pass) != 144 {
		t.Fatalf("a pass has %d requests, want 144", len(pass))
	}
	seen := map[string]bool{}
	for _, r := range pass {
		key := fmt.Sprintf("%s/%s/%s/%d", r.Model, r.Dataset, r.Method, r.Cluster.Nodes)
		if seen[key] {
			t.Errorf("request %s repeats", key)
		}
		seen[key] = true
		if ranks := r.Cluster.Nodes * gpusPerNode / r.Cluster.TP; r.Cluster.TokensPerGPU*r.Cluster.TP != 4096 {
			t.Errorf("%s on %d ranks: %d tokens per DP rank, want 4096", key, ranks, r.Cluster.TokensPerGPU*r.Cluster.TP)
		}
	}
}
