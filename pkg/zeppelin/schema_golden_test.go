package zeppelin

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the wire-schema golden files")

// canonicalFixtures are fully-populated instances of every v1 wire
// struct. Marshalling them and diffing against the checked-in goldens
// pins the JSON schema: an accidental field rename, type change, or tag
// edit fails this test instead of silently breaking zeppelind clients.
// Additive optional fields are schema-compatible — update the goldens
// with `go test ./pkg/zeppelin -run WireSchema -update`.
func canonicalFixtures() map[string]any {
	return map[string]any{
		"plan_request": PlanRequest{
			Model: "7B",
			Cluster: ClusterSpec{
				Preset: "A", Nodes: 2, TP: 1, TokensPerGPU: 4096,
			},
			Dataset: "arxiv",
			Method:  "zeppelin",
			Seed:    42,
		},
		"plan_response": PlanResponse{
			Method:           "Zeppelin",
			World:            16,
			Seqs:             12,
			Tokens:           65536,
			TokensPerRank:    []int{4096, 4096},
			Imbalance:        1.02,
			LocalSeqs:        9,
			RingSeqs:         3,
			RemapTransfers:   5,
			RemapInterTokens: 1024,
			IterTimeSec:      1.25,
			TokensPerSec:     52428.8,
			HostOverheadSec:  0.0035,
		},
		"campaign_request": CampaignRequest{
			Model: "7B",
			Cluster: ClusterSpec{
				Preset: "A", Nodes: 2, TP: 1, TokensPerGPU: 4096, Capacity: 1.25,
			},
			Workload: WorkloadSpec{
				Dataset:   "arxiv",
				Arrival:   "drift",
				DriftPath: []string{"arxiv", "github", "prolong64k"},
			},
			Policy:        PolicySpec{Name: "threshold", Threshold: 1.3, Every: 10},
			Faults:        "straggler:from=10,to=40",
			Method:        "zeppelin",
			Iters:         200,
			Seed:          1000,
			ReplanCostSec: 0.02,
		},
		"campaign_request_autoscale": CampaignRequest{
			Model: "7B",
			Workload: WorkloadSpec{
				Arrival:   "drift",
				DriftPath: []string{"arxiv", "github", "prolong64k"},
			},
			Iters: 200,
			Autoscale: &AutoscaleSpec{
				MinNodes: 1, MaxNodes: 4,
				UpUtil: 0.95, DownUtil: 0.9,
				Step: 1, Cooldown: 3,
			},
		},
		"campaign_request_serve": CampaignRequest{
			Model: "7B",
			Cluster: ClusterSpec{
				Preset: "A", Nodes: 2, TP: 1, TokensPerGPU: 4096,
			},
			Method: "zeppelin",
			Iters:  500,
			Seed:   1000,
			Serve: &ServeSpec{
				Clients: 3,
				Arrival: "gamma",
				CV:      2.0,
				Windows: []ServeWindow{
					{FromSec: 0, ToSec: 60, Rate: 50},
					{FromSec: 60, ToSec: 300, Rate: 120},
				},
				Classes: []SLOClass{
					{Name: "interactive", P99Sec: 0.2, Priority: 2},
					{Name: "batch", P99Sec: 8, Priority: 1},
				},
				Dataset:    "stackexchange",
				Sessions:   8,
				Prefix:     0.5,
				Formation:  "priority",
				Route:      "affinity",
				HorizonSec: 300,
			},
		},
		"serve_trace_event": ServeTraceEvent{
			T:       1.25,
			Client:  2,
			Class:   "interactive",
			Tokens:  412,
			Session: 17,
			Prefix:  206,
		},
		"class_metrics": ClassMetrics{
			Class:         "interactive",
			Priority:      2,
			Deadline:      0.2,
			Requests:      1800,
			Violations:    36,
			Tokens:        741200,
			P50Latency:    0.041,
			P99Latency:    0.188,
			MaxLatency:    0.244,
			Goodput:       2412.5,
			ViolationRate: 0.02,
		},
		"campaign_event": CampaignEvent{
			Iter:         17,
			Tokens:       65536,
			Seqs:         12,
			Deferred:     2048,
			Replanned:    true,
			Time:         2.5,
			TokensPerSec: 26214.4,
			Imbalance:    1.31,
			Penalty:      1.08,
			Utilization:  0.87,
			Recovery:     0.5,
			Events:       []string{"straggler:rank4 x2.5"},
			World:        16,
		},
		"campaign_event_serve": CampaignEvent{
			Iter:         4,
			Tokens:       14336,
			Seqs:         9,
			Replanned:    false,
			Time:         0.41,
			TokensPerSec: 34965.8,
			Imbalance:    1.07,
			Penalty:      1,
			Utilization:  0.91,
			Queued:       2048,
			AffinityHits: 6,
			SavedTokens:  1236,
			Violations:   1,
		},
		"campaign_summary_serve": CampaignSummary{
			Method:          "Zeppelin",
			Arrival:         "serve(3xgamma cv=2,2cls)",
			Policy:          "serve:priority+affinity",
			Iters:           42,
			TotalTokens:     602112,
			WallTime:        17.2,
			TokensPerSec:    35006.5,
			MeanIterTime:    0.41,
			P50IterTime:     0.4,
			P95IterTime:     0.47,
			P99IterTime:     0.51,
			MaxIterTime:     0.55,
			MeanImbalance:   1.06,
			MaxImbalance:    1.21,
			MeanUtilization: 0.9,
			Requests:        1420,
			Violations:      31,
			Unserved:        0,
			StreamTime:      18.4,
		},
		"campaign_summary": CampaignSummary{
			Method:          "Zeppelin",
			Arrival:         "drift(arxiv->github)",
			Policy:          "threshold(1.30)",
			Iters:           200,
			Replans:         23,
			TotalTokens:     13107200,
			DeferredTokens:  8192,
			WallTime:        500.5,
			TokensPerSec:    26188.2,
			MeanIterTime:    2.5,
			P50IterTime:     2.4,
			P95IterTime:     2.9,
			P99IterTime:     3.1,
			MaxIterTime:     3.3,
			MeanImbalance:   1.12,
			MaxImbalance:    1.45,
			MeanUtilization: 0.88,
			RecoverySeconds: 1.5,
			FaultEvents:     4,
		},
		"decision_record": DecisionRecord{
			Session:        "c1",
			Iter:           17,
			Kind:           "replan",
			Chosen:         "replan",
			Forced:         false,
			Flipped:        true,
			Policy:         "threshold",
			Threshold:      1.3,
			StaleImbalance: 1.42,
			FreshImbalance: 1.05,
			SinceReplan:    9,
			PlanMode:       "patched",
			Events:         []string{"straggler:rank4 x2.5"},
			World:          16,
			Alternatives: []DecisionAlternative{
				{Choice: "replan", Score: 1.05, Chosen: true},
				{Choice: "reuse", Score: 1.42},
			},
		},
		"replay_request": ReplayRequest{
			Campaign: CampaignRequest{
				Model: "7B",
				Workload: WorkloadSpec{
					Arrival:   "drift",
					DriftPath: []string{"arxiv", "github"},
				},
				Iters: 50,
				Seed:  42,
			},
			Flip: &FlipSpec{Iter: 17, Decision: "reuse"},
		},
		"replay_report": ReplayReport{
			Flip:      &FlipSpec{Iter: 17, Decision: "reuse"},
			Flipped:   true,
			Identical: false,
			Factual: CampaignSummary{
				Method: "Zeppelin", Iters: 50, Replans: 6,
				TokensPerSec: 26188.2, P99IterTime: 3.1, WallTime: 125.5,
			},
			Counterfactual: &CampaignSummary{
				Method: "Zeppelin", Iters: 50, Replans: 5,
				TokensPerSec: 26090.1, P99IterTime: 3.24, WallTime: 125.9,
			},
			Delta: &ReplayDelta{
				TokensPerSecPct: -0.37,
				P99IterTimePct:  4.52,
				WallTimeSec:     0.4,
				Replans:         -1,
				RecoverySec:     0.25,
			},
		},
		"tune_request": TuneRequest{
			Model: "7B",
			Cluster: ClusterSpec{
				Preset: "A", Nodes: 2, TP: 1, TokensPerGPU: 4096,
			},
			Workload: WorkloadSpec{
				Arrival:   "drift",
				DriftPath: []string{"arxiv", "github", "prolong64k"},
			},
			Faults:     "none",
			Method:     "zeppelin",
			Space:      "policy=threshold,threshold=1.05:1.6",
			Budget:     24,
			Iters:      60,
			Seeds:      2,
			Weights:    &TuneWeights{Goodput: 0.4, P99: 0.2, Migration: 0.2, Utilization: 0.2},
			SearchSeed: 1,
			Workers:    4,
		},
		"tune_report": TuneReport{
			Space:     "policy=threshold,threshold=1.05:1.6",
			Budget:    24,
			Iters:     60,
			Seeds:     2,
			Weights:   TuneWeights{Goodput: 0.4, P99: 0.2, Migration: 0.2, Utilization: 0.2},
			Evaluated: 24,
			Baseline: TuneCandidate{
				Key:    "policy=threshold",
				Params: TuneParams{Policy: "threshold"},
				Flags:  "-policy threshold",
				Metrics: TuneMetrics{
					TokensPerSec: 26098.1, P99IterTime: 3.205, Replans: 26,
					RecoverySeconds: 0.46, MigrationCost: 0.98,
					MeanUtilization: 0.935, DeferredTokens: 2048,
				},
				Fitness: TuneFitness{Goodput: 1, P99: 1, Migration: 1, Utilization: 1, Total: 1},
			},
			Winner: TuneCandidate{
				Key: "policy=threshold,threshold=1.56",
				Params: TuneParams{
					Policy: "threshold", Threshold: 1.56,
					Autoscale: true, UpUtil: 0.95, DownUtil: 0.9, Cooldown: 3, Step: 1,
				},
				Flags: "-policy threshold -threshold 1.56 -autoscale up-util=0.95,down-util=0.9,cooldown=3,step=1",
				Metrics: TuneMetrics{
					TokensPerSec: 26060.4, P99IterTime: 3.205, Replans: 17,
					RecoverySeconds: 0.3, MigrationCost: 0.64,
					MeanUtilization: 0.932,
				},
				Fitness: TuneFitness{Goodput: 0.999, P99: 1, Migration: 1.53, Utilization: 0.997, Total: 1.105},
			},
			Improved: true,
			Candidates: []TuneCandidate{{
				Key:     "policy=threshold,threshold=1.05,autoscale=on,up-util=0.5",
				Params:  TuneParams{Policy: "threshold", Threshold: 1.05, Autoscale: true, UpUtil: 0.5},
				Flags:   "-policy threshold -threshold 1.05 -autoscale up-util=0.5",
				Invalid: "campaign: autoscaler down-util 0.6 must be in [0, up-util 0.5)",
			}},
		},
		"version_info": VersionInfo{
			Module:     "zeppelin",
			Version:    "v1.2.3",
			APIVersion: "v1",
			GoVersion:  "go1.22.0",
		},
		"error_body": ErrorBody{Error: ErrorDetail{
			Code:    "bad_request",
			Message: "campaign iters must be >= 1, got 0",
		}},
	}
}

// TestWireSchemaGolden marshals every canonical fixture and diffs it
// against the checked-in testdata, so schema drift fails CI.
func TestWireSchemaGolden(t *testing.T) {
	for name, fixture := range canonicalFixtures() {
		t.Run(name, func(t *testing.T) {
			got, err := json.MarshalIndent(fixture, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", name+".golden.json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire schema for %s drifted from golden.\n got: %s\nwant: %s\n(an intentional schema change must update %s via -update and bump clients)",
					name, got, want, path)
			}
		})
	}
}

// TestWireSchemaRoundTrip: every request fixture unmarshals back to an
// equal value, so the schema is symmetric for clients.
func TestWireSchemaRoundTrip(t *testing.T) {
	req := canonicalFixtures()["campaign_request"].(CampaignRequest)
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back CampaignRequest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(back)
	if !bytes.Equal(raw, a) {
		t.Fatalf("campaign request does not round-trip:\n%s\n%s", raw, a)
	}
}
