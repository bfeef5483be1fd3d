package main

import (
	"errors"
	"regexp"
	"strings"
	"testing"
)

// TestReadInputSniffsFormat: benchgate accepts both bench text and a
// native benchfmt JSON artifact through the same -input path.
func TestReadInputSniffsFormat(t *testing.T) {
	text := "BenchmarkLoadgenPlan-8   500   4000000 ns/op\n"
	f, err := readInput(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	r := f.Get("BenchmarkLoadgenPlan")
	if r == nil || r.NsPerOp != 4e6 {
		t.Fatalf("text parse = %+v", f.Results)
	}

	jsonIn := `{"source":"zeppelin-loadgen","results":[{"name":"BenchmarkLoadgenPlan","samples":1,"iters":500,"ns_per_op":4000000}]}`
	f, err = readInput(strings.NewReader("\n " + jsonIn))
	if err != nil {
		t.Fatal(err)
	}
	r = f.Get("BenchmarkLoadgenPlan")
	if r == nil || r.NsPerOp != 4e6 || f.Source != "zeppelin-loadgen" {
		t.Fatalf("json parse = %+v", f)
	}
}

// TestGateRatio: the baseline-free same-run gate that pins
// decision-tracing overhead at ≤ threshold over the untraced run.
func TestGateRatio(t *testing.T) {
	text := "BenchmarkDecisionBaseline   30   10000000 ns/op\n" +
		"BenchmarkDecisionOverhead   30   10300000 ns/op\n"
	f, err := readInput(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	spec := "BenchmarkDecisionOverhead/BenchmarkDecisionBaseline"
	if err := gateRatio(f, spec, 0.05); err != nil {
		t.Fatalf("+3%% within a 5%% gate: %v", err)
	}
	err = gateRatio(f, spec, 0.02)
	if err == nil || !strings.Contains(err.Error(), "REGRESSION") {
		t.Fatalf("+3%% must breach a 2%% gate, got %v", err)
	}
	// A regression is a result, not a usage error: it must exit 1, not 2.
	if errors.Is(err, errRatioUsage) {
		t.Fatalf("regression misclassified as a usage error: %v", err)
	}
	if err := gateRatio(f, "BenchmarkDecisionOverhead", 0.05); err == nil || !errors.Is(err, errRatioUsage) {
		t.Fatalf("spec without '/' must be a usage error, got %v", err)
	}
	if err := gateRatio(f, "BenchmarkDecisionOverhead/BenchmarkMissing", 0.05); err == nil ||
		!strings.Contains(err.Error(), "missing") || !errors.Is(err, errRatioUsage) {
		t.Fatalf("missing side must fail loudly as a usage error, got %v", err)
	}
}

// TestGateRatioZeroDenominator is the regression test for the silent
// Inf/NaN gate: a denominator with no ns/op sample must produce a clear
// division-by-zero diagnostic classified as a usage error (exit 2),
// never a ratio that passes or a bare exit-1 regression.
func TestGateRatioZeroDenominator(t *testing.T) {
	// A JSON artifact, not bench text: the text parser never emits a
	// 0-ns/op result, but artifact producers (zeppelin-loadgen) can —
	// exactly the input that used to divide by zero.
	jsonIn := `{"results":[` +
		`{"name":"BenchmarkDecisionBaseline","samples":1,"iters":30,"ns_per_op":0},` +
		`{"name":"BenchmarkDecisionOverhead","samples":1,"iters":30,"ns_per_op":10300000}]}`
	f, err := readInput(strings.NewReader(jsonIn))
	if err != nil {
		t.Fatal(err)
	}
	spec := "BenchmarkDecisionOverhead/BenchmarkDecisionBaseline"
	err = gateRatio(f, spec, 0.05)
	if err == nil {
		t.Fatal("zero denominator silently passed the ratio gate")
	}
	if !errors.Is(err, errRatioUsage) {
		t.Fatalf("zero denominator must classify as a usage error, got %v", err)
	}
	if !strings.Contains(err.Error(), "divide by zero") {
		t.Fatalf("diagnostic must name the division by zero, got %v", err)
	}
	// Zero numerator: also unusable, also a usage error.
	flipped := "BenchmarkDecisionBaseline/BenchmarkDecisionOverhead"
	if err := gateRatio(f, flipped, 0.05); err == nil || !errors.Is(err, errRatioUsage) {
		t.Fatalf("zero numerator must be a usage error, got %v", err)
	}
}

// TestDefaultGateCoversPlannerStack pins which benchmarks the CI bench
// job fails on: the planner fast paths and solvers, and nothing else —
// end-to-end figure benches drift with simulation changes by design and
// are tracked, not gated.
func TestDefaultGateCoversPlannerStack(t *testing.T) {
	re := regexp.MustCompile(DefaultGate)
	gated := []string{
		"BenchmarkFig15PlanFull",
		"BenchmarkFig15PlanIncremental",
		"BenchmarkFig15ParallelSolve/solve-workers=1",
		"BenchmarkFig15ParallelSolve/sessions",
		"BenchmarkPartitionerPlan",
		"BenchmarkRemapSolve",
		"BenchmarkLoadgenPlan",
	}
	for _, name := range gated {
		if !re.MatchString(name) {
			t.Fatalf("gate must cover %s", name)
		}
	}
	free := []string{
		"BenchmarkFig8EndToEnd",
		"BenchmarkFig13Campaign",
		"BenchmarkFig15ScalingSweep",
		"BenchmarkRunnerParallel",
		"BenchmarkMethodZeppelin",
		"BenchmarkLoadgenCampaignEvents",
	}
	for _, name := range free {
		if re.MatchString(name) {
			t.Fatalf("gate must not cover %s", name)
		}
	}
}
