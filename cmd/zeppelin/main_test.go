package main

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// wantUsage asserts campaignCmd rejects the flags with a usageError —
// the class main surfaces as exit 2 plus usage, per the repository's
// flag-validation convention.
func wantUsage(t *testing.T, args []string, substr string) {
	t.Helper()
	err := campaignCmd(io.Discard, args, 1, 1, false)
	if err == nil {
		t.Fatalf("args %v must fail", args)
	}
	var ue usageError
	if !errors.As(err, &ue) {
		t.Fatalf("args %v: error %v is not a usage error", args, err)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("args %v: error %q does not mention %q", args, err, substr)
	}
}

func TestCampaignCmdRejectsInvalidFlags(t *testing.T) {
	wantUsage(t, []string{"-replan-cost", "-0.5"}, "-replan-cost")
	wantUsage(t, []string{"-iters", "0"}, "-iters")
	wantUsage(t, []string{"-faults", "bogus"}, "unknown scenario")
	wantUsage(t, []string{"-faults", "straggler:x=abc"}, "parameter")
	wantUsage(t, []string{"-faults", "straggler:nope=3"}, "does not take key")
	wantUsage(t, []string{"-faults", "straggler:rank=99"}, "outside world")
	wantUsage(t, []string{"-faults", "shrink:node=7"}, "outside")
	wantUsage(t, []string{"-arrival", "warp"}, "unknown arrival")
	wantUsage(t, []string{"-policy", "vibes"}, "unknown replan policy")
	wantUsage(t, []string{"-dataset", "imaginary"}, "unknown")
	wantUsage(t, []string{"extra-positional"}, "unexpected arguments")
}

// TestCampaignCmdRejectsNonFinite: NaN and ±Inf in any float flag or
// spec value is a usage error (exit 2) — not NaN columns, a JSON
// encoding failure, or an internal partitioner error.
func TestCampaignCmdRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "Inf", "-Inf"} {
		wantUsage(t, []string{"-replan-cost", v}, "replan")
		wantUsage(t, []string{"-threshold", v}, "threshold")
		wantUsage(t, []string{"-capacity", v}, "capacity factor")
		wantUsage(t, []string{"-faults", "straggler:x=" + v}, "finite")
		wantUsage(t, []string{"-faults", "failstop:restart=" + v}, "finite")
		wantUsage(t, []string{"-autoscale", "up-util=" + v}, "up-util")
		wantUsage(t, []string{"-autoscale", "down-util=" + v}, "down-util")
	}
	wantUsage(t, []string{"-capacity", "1e300"}, "capacity factor")
	wantUsage(t, []string{"-capacity", "100.5"}, "capacity factor")
}

// TestTuneCmdRejectsNonFiniteSpace: a non-finite value in the search
// space is a usage error, not a NaN-threshold winner.
func TestTuneCmdRejectsNonFiniteSpace(t *testing.T) {
	for _, v := range []string{"NaN", "Inf", "-Inf"} {
		for _, space := range []string{"policy=threshold,threshold=" + v, "capacity=0.5:" + v} {
			err := tuneCmd(io.Discard, []string{"-budget", "1", "-iters", "2", "-space", space}, 1, 1, false)
			var ue usageError
			if err == nil || !errors.As(err, &ue) {
				t.Fatalf("-space %s: err = %v, want a usage error", space, err)
			}
		}
	}
}

func TestCampaignCmdRunsFaultedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	var sb strings.Builder
	err := campaignCmd(&sb, []string{"-iters", "6", "-faults", "straggler:from=2,to=4"}, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"faults straggler", "straggler:rank4", "'S' = straggler/NIC"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign output missing %q:\n%s", want, out)
		}
	}
}

// TestParseFlip: the -flip grammar resolves and validates.
func TestParseFlip(t *testing.T) {
	f, err := parseFlip("iter=7:decision=reuse")
	if err != nil || f.Iter != 7 || f.Decision != "reuse" {
		t.Fatalf("parseFlip = %+v, %v", f, err)
	}
	for _, bad := range []string{"", "iter=7", "decision=reuse", "iter=x:decision=reuse",
		"iter=7:decision=maybe", "iter=-2:decision=reuse", "iter=7:verdict=reuse"} {
		if _, err := parseFlip(bad); err == nil {
			t.Fatalf("parseFlip(%q) accepted", bad)
		}
	}
}

// TestReplayCmdRejectsInvalidFlags: flag mistakes are usage errors.
func TestReplayCmdRejectsInvalidFlags(t *testing.T) {
	cases := []struct {
		args   []string
		substr string
	}{
		{[]string{"-iters", "0"}, "-iters"},
		{[]string{"-flip", "iter=3"}, "decision"},
		{[]string{"-flip", "iter=3:decision=maybe"}, "decision"},
		{[]string{"-arrival", "warp"}, "unknown arrival"},
		{[]string{"extra"}, "unexpected arguments"},
	}
	for _, c := range cases {
		err := replayCmd(io.Discard, c.args, false)
		var ue usageError
		if err == nil || !errors.As(err, &ue) || !strings.Contains(err.Error(), c.substr) {
			t.Fatalf("args %v: err = %v, want usage error mentioning %q", c.args, err, c.substr)
		}
	}
}

// TestTuneCmdRejectsInvalidWeights: a weight that is not a finite
// non-negative number is a usage error (exit 2), in text and JSON mode
// alike — not a NaN-scored search or a JSON encoding failure.
func TestTuneCmdRejectsInvalidWeights(t *testing.T) {
	cases := []struct {
		weights, substr string
	}{
		{"NaN,1,1,1", "finite"},
		{"Inf,1,1,1", "finite"},
		{"1,1,1,-Inf", "finite"},
		{"1,-1,1,1", ">= 0"},
		{"1,1,1", "4 comma-separated"},
	}
	for _, c := range cases {
		for _, jsonOut := range []bool{false, true} {
			err := tuneCmd(io.Discard, []string{"-budget", "1", "-iters", "2", "-weights", c.weights}, 1, 1, jsonOut)
			var ue usageError
			if err == nil || !errors.As(err, &ue) || !strings.Contains(err.Error(), c.substr) {
				t.Fatalf("-weights %s (json %v): err = %v, want usage error mentioning %q", c.weights, jsonOut, err, c.substr)
			}
		}
	}
}

// TestReplayCmdIdentityAndFlip: without -flip the replay reports
// bit-identity; with one it reports the counterfactual delta.
func TestReplayCmdIdentityAndFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns in -short mode")
	}
	var ident strings.Builder
	if err := replayCmd(&ident, []string{"-iters", "20"}, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ident.String(), "bit-identically") {
		t.Fatalf("identity replay output:\n%s", ident.String())
	}
	var flipped strings.Builder
	if err := replayCmd(&flipped, []string{"-iters", "20", "-flip", "iter=10:decision=reuse"}, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flip iter 10 -> reuse", "counterfactual:", "delta:"} {
		if !strings.Contains(flipped.String(), want) {
			t.Fatalf("flip replay output missing %q:\n%s", want, flipped.String())
		}
	}
}

// TestCampaignCmdIncrementalMatchesStateless: the -incremental flag
// swaps Zeppelin's planner for the exact-mode incremental one, which
// must not move a single byte of the campaign artifact.
func TestCampaignCmdIncrementalMatchesStateless(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	var plain, inc strings.Builder
	if err := campaignCmd(&plain, []string{"-iters", "5", "-json"}, 1, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := campaignCmd(&inc, []string{"-iters", "5", "-incremental", "-json"}, 1, 2, false); err != nil {
		t.Fatal(err)
	}
	if plain.String() != inc.String() {
		t.Fatal("-incremental campaign artifact differs from the stateless planner's")
	}
}
