package zeppelin

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
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
	}
	for _, req := range bad {
		if err := req.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", req)
		}
	}
	if err := (TuneRequest{}).Validate(); err != nil {
		t.Errorf("zero request rejected: %v", err)
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
