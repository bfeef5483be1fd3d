package zeppelin

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"zeppelin/internal/campaign"
)

// tuneSmokeRequest is a deliberately tiny search: two-dimension space,
// small budget, short horizon — enough to exercise the whole wire path
// without slowing the package tests.
func tuneSmokeRequest(workers int) TuneRequest {
	return TuneRequest{
		Workload: WorkloadSpec{Arrival: "drift", DriftPath: []string{"arxiv", "github"}},
		Space:    "policy=threshold,threshold=1.1:1.5",
		Budget:   4,
		Iters:    20,
		Workers:  workers,
	}
}

// TestRunTuneSmoke drains a small search through the public API and
// checks the report invariants the CLI and daemon rely on.
func TestRunTuneSmoke(t *testing.T) {
	rep, err := RunTune(context.Background(), tuneSmokeRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.Fitness.Total != 1 {
		t.Fatalf("baseline fitness = %v, want exactly 1", rep.Baseline.Fitness.Total)
	}
	if rep.Evaluated == 0 || rep.Evaluated > rep.Budget {
		t.Fatalf("evaluated %d against budget %d", rep.Evaluated, rep.Budget)
	}
	if rep.Winner.Key == "" || rep.Winner.Flags == "" {
		t.Fatalf("winner missing identity or flag set: %+v", rep.Winner)
	}
	var text bytes.Buffer
	rep.WriteText(&text)
	for _, want := range []string{"tune:", "weights:", "winner:", "flags:"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
}

// TestRunTuneDeterministicAcrossWorkers pins the serial==parallel
// contract at the wire level: the marshalled TuneReport is bit-identical
// for worker pools 1 and 4.
func TestRunTuneDeterministicAcrossWorkers(t *testing.T) {
	a, err := RunTune(context.Background(), tuneSmokeRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTune(context.Background(), tuneSmokeRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := json.Marshal(a)
	rb, _ := json.Marshal(b)
	if !bytes.Equal(ra, rb) {
		t.Fatalf("tune reports differ between 1 and 4 workers:\n%s\n%s", ra, rb)
	}
}

func TestTuneRequestValidate(t *testing.T) {
	bad := []TuneRequest{
		{Space: "bogus=1"},
		{Budget: -1},
		{Weights: &TuneWeights{Goodput: -0.5}},
		{Weights: &TuneWeights{Goodput: math.NaN(), P99: 1}},
		{Weights: &TuneWeights{P99: math.Inf(1)}},
		{Weights: &TuneWeights{Utilization: math.Inf(-1)}},
		{Model: "900B"},
		{Faults: "gremlins"},
		{Seeds: -1},
		{Budget: 1e9},
		{Budget: 99, Seeds: 10, Iters: 101},
	}
	for _, req := range bad {
		if err := req.Validate(); !IsValidationError(err) {
			t.Errorf("Validate(%+v) = %v, want a validation error", req, err)
		}
	}
	for _, req := range []TuneRequest{{}, {Budget: 99, Seeds: 10, Iters: 100}} {
		if err := req.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", req, err)
		}
	}
	req := tuneSmokeRequest(1)
	req.Weights = &TuneWeights{Goodput: math.NaN(), P99: 1, Migration: 1, Utilization: 1}
	if _, err := RunTune(context.Background(), req); err == nil {
		t.Error("RunTune accepted a NaN weight")
	}
}

// TestReplanCostSecNegativeRejected is the regression for the silent
// clamp: a negative replan cost must surface as a structured validation
// error through the SDK, not be quietly zeroed.
func TestReplanCostSecNegativeRejected(t *testing.T) {
	req := CampaignRequest{Iters: 5, ReplanCostSec: -0.01}
	if err := req.Validate(); err == nil || !strings.Contains(err.Error(), "replan cost") {
		t.Fatalf("Validate error = %v, want replan-cost validation error", err)
	}
	if _, err := RunCampaign(context.Background(), req); err == nil {
		t.Fatal("RunCampaign accepted a negative replan cost")
	}
}

// TestNonFiniteRequestsAreValidationErrors: NaN and ±Inf in a fault
// spec, a policy threshold, a replan cost, an autoscaler gain or a tune
// space fail Validate as validation errors — the class zeppelind answers
// with 400 and the CLI with usage — instead of running a campaign whose
// numbers cannot be encoded.
func TestNonFiniteRequestsAreValidationErrors(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := strings.TrimPrefix(fmt.Sprint(v), "+")
		campaigns := map[string]CampaignRequest{
			"faults straggler x":  {Iters: 4, Faults: "straggler:x=" + s},
			"faults nic x":        {Iters: 4, Faults: "nic:x=" + s},
			"faults restart":      {Iters: 4, Faults: "failstop:restart=" + s},
			"policy threshold":    {Iters: 4, Policy: PolicySpec{Threshold: v}},
			"replan cost":         {Iters: 4, ReplanCostSec: v},
			"autoscale up-util":   {Iters: 4, Autoscale: &AutoscaleSpec{UpUtil: v}},
			"autoscale down-util": {Iters: 4, Autoscale: &AutoscaleSpec{DownUtil: v}},
			"cluster capacity":    {Iters: 4, Cluster: ClusterSpec{Capacity: v}},
		}
		for name, req := range campaigns {
			if err := req.Validate(); !IsValidationError(err) {
				t.Errorf("%s=%v: CampaignRequest.Validate error = %v, want a validation error", name, v, err)
			}
		}
		for _, space := range []string{"policy=threshold,threshold=" + s, "replan-cost=" + s, "up-util=0.5:" + s} {
			if err := (TuneRequest{Space: space}).Validate(); !IsValidationError(err) {
				t.Errorf("space %q: TuneRequest.Validate error = %v, want a validation error", space, err)
			}
		}
		if err := (TuneRequest{Faults: "straggler:x=" + s}).Validate(); !IsValidationError(err) {
			t.Errorf("tune faults x=%s: TuneRequest.Validate error = %v, want a validation error", s, err)
		}
	}
}

// TestCapacityFactorCeiling: a capacity factor above 100 (1e300
// overflowed the per-rank ceiling into a negative int) is a validation
// error on both the plan and the campaign path; 100 itself is legal.
func TestCapacityFactorCeiling(t *testing.T) {
	for _, c := range []float64{100.5, 1e300, math.NaN(), math.Inf(1)} {
		cs := ClusterSpec{Capacity: c}
		if err := (PlanRequest{Cluster: cs}).Validate(); !IsValidationError(err) {
			t.Errorf("capacity %v: PlanRequest.Validate error = %v, want a validation error", c, err)
		}
		if err := (CampaignRequest{Iters: 4, Cluster: cs}).Validate(); !IsValidationError(err) {
			t.Errorf("capacity %v: CampaignRequest.Validate error = %v, want a validation error", c, err)
		}
	}
	if err := (PlanRequest{Cluster: ClusterSpec{Capacity: 100}}).Validate(); err != nil {
		t.Errorf("capacity 100 rejected: %v", err)
	}
}

// TestItersCeiling: a horizon above campaign.MaxIters is a validation
// error on every campaign path (training, serve, tune) instead of an
// unbounded run; MaxIters itself is legal.
func TestItersCeiling(t *testing.T) {
	const huge = 1 << 50
	if err := (CampaignRequest{Iters: huge}).Validate(); !IsValidationError(err) {
		t.Errorf("CampaignRequest.Validate error = %v, want a validation error", err)
	}
	if err := (CampaignRequest{Iters: huge, Serve: &ServeSpec{}}).Validate(); !IsValidationError(err) {
		t.Errorf("serve CampaignRequest.Validate error = %v, want a validation error", err)
	}
	if err := (TuneRequest{Budget: 1, Iters: huge}).Validate(); !IsValidationError(err) {
		t.Errorf("TuneRequest.Validate error = %v, want a validation error", err)
	}
	if err := (CampaignRequest{Iters: campaign.MaxIters}).Validate(); err != nil {
		t.Errorf("iters = MaxIters rejected: %v", err)
	}
}

// TestCapacityFactorFloor: a capacity factor that cannot hold the batch
// is a validation error, not an internal partitioner error. A plan
// samples the whole TokensPerGPU × GPUs budget, so any factor below 1 is
// rejected there; a campaign trims arrivals to capacity, so only a
// factor whose per-rank ceiling rounds below one token is rejected.
func TestCapacityFactorFloor(t *testing.T) {
	for _, c := range []float64{0.5, 0.999, 0.0001} {
		if err := (PlanRequest{Cluster: ClusterSpec{Capacity: c}}).Validate(); !IsValidationError(err) {
			t.Errorf("plan capacity %v: PlanRequest.Validate error = %v, want a validation error", c, err)
		}
	}
	tiny := ClusterSpec{Capacity: 0.0001}
	if err := (CampaignRequest{Iters: 3, Cluster: tiny}).Validate(); !IsValidationError(err) {
		t.Errorf("campaign capacity 0.0001: CampaignRequest.Validate error = %v, want a validation error", err)
	}
	if err := (TuneRequest{Cluster: tiny}).Validate(); !IsValidationError(err) {
		t.Errorf("tune capacity 0.0001: TuneRequest.Validate error = %v, want a validation error", err)
	}
	if err := (CampaignRequest{Iters: 3, Cluster: ClusterSpec{Capacity: 0.5}}).Validate(); err != nil {
		t.Errorf("campaign capacity 0.5 rejected: %v", err)
	}
	if err := (PlanRequest{Cluster: ClusterSpec{Capacity: 1}}).Validate(); err != nil {
		t.Errorf("plan capacity 1 rejected: %v", err)
	}
}

// TestNegativeClusterSizesAreRejected: a negative tp or tokens_per_gpu
// is a validation error, like a negative node count, instead of being
// silently replaced by the default; zero still selects the default. So
// is a node count or tokens_per_gpu above the trainer's ceilings, which
// bound the work of one simulated iteration (at 2^40 each, the token
// budget overflows).
func TestNegativeClusterSizesAreRejected(t *testing.T) {
	for _, tc := range []struct {
		name, substr string
		cs           ClusterSpec
	}{
		{"nodes", "nodes", ClusterSpec{Nodes: -3}},
		{"tp", "tp", ClusterSpec{TP: -1}},
		{"tokens_per_gpu", "tokens_per_gpu", ClusterSpec{TokensPerGPU: -5}},
		{"nodes 2^30", "nodes must be <= 128", ClusterSpec{Nodes: 1 << 30}},
		{"tokens_per_gpu 2^40", "tokens per GPU must be <= 1048576", ClusterSpec{TokensPerGPU: 1 << 40}},
		{"both 2^40", "nodes must be <= 128", ClusterSpec{Nodes: 1 << 40, TokensPerGPU: 1 << 40}},
	} {
		name, cs := tc.name, tc.cs
		if err := (PlanRequest{Cluster: cs}).Validate(); !IsValidationError(err) || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: PlanRequest.Validate error = %v, want a validation error naming %q", name, err, tc.substr)
		}
		if err := (CampaignRequest{Iters: 3, Cluster: cs}).Validate(); !IsValidationError(err) {
			t.Errorf("%s: CampaignRequest.Validate error = %v, want a validation error", name, err)
		}
		if err := (TuneRequest{Cluster: cs}).Validate(); !IsValidationError(err) {
			t.Errorf("%s: TuneRequest.Validate error = %v, want a validation error", name, err)
		}
	}
	if err := (PlanRequest{Cluster: ClusterSpec{TP: 0, TokensPerGPU: 0}}).Validate(); err != nil {
		t.Errorf("zero tp and tokens_per_gpu must select the defaults: %v", err)
	}
}

// TestRunCampaignAutoscale drives the elastic autoscaler through the
// public API: the world stays within [1, cluster nodes] and the scale
// verdicts reach the decision trace.
func TestRunCampaignAutoscale(t *testing.T) {
	c, err := NewCampaign(CampaignRequest{
		Workload:  WorkloadSpec{Arrival: "drift", DriftPath: []string{"arxiv", "github", "prolong64k"}},
		Iters:     30,
		Autoscale: &AutoscaleSpec{UpUtil: 0.95, DownUtil: 0.9, Cooldown: 2},
	}, WithCampaignDecisions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range c.Report().Events {
		if ev.World < 1 {
			t.Fatalf("iter %d: world %d below 1", ev.Iter, ev.World)
		}
	}
	sawScale := false
	for _, d := range c.Decisions() {
		if d.Kind == "scale" {
			sawScale = true
			break
		}
	}
	if !sawScale {
		t.Fatal("autoscaled campaign produced no scale decisions")
	}
}
