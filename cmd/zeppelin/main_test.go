package main

import (
	"errors"
	"io"
	"path/filepath"
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

// TestCampaignServeFlagConflicts: a training-cell flag set alongside
// -serve is a usage error (exit 2), even at its default value, since the
// serve spec owns the request stream and nothing replans.
func TestCampaignServeFlagConflicts(t *testing.T) {
	for _, fv := range [][2]string{
		{"arrival", "steady"}, {"dataset", "arxiv"}, {"drift", "arxiv,github"},
		{"policy", "always"}, {"threshold", "1.3"}, {"every", "10"},
		{"replan-cost", "5"}, {"faults", "none"}, {"autoscale", "on"},
	} {
		wantUsage(t, []string{"-serve", "clients=2,rate=20@0-2s", "-" + fv[0], fv[1]}, "-"+fv[0]+" conflicts with -serve")
	}
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

// TestCapacityFloorIsUsageError: a capacity factor whose per-rank
// ceiling rounds below one token is a usage error (exit 2) on the
// campaign and serve subcommands, not an internal partitioner error once
// the stream runs.
func TestCapacityFloorIsUsageError(t *testing.T) {
	wantUsage(t, []string{"-iters", "3", "-capacity", "0.0001"}, "capacity factor")
	err := serveCmd(io.Discard, []string{"-serve", "clients=2,rate=20@0-4s", "-capacity", "0.0001"}, 1, 1, false)
	var ue usageError
	if err == nil || !errors.As(err, &ue) || !strings.Contains(err.Error(), "capacity factor") {
		t.Fatalf("serve -capacity 0.0001: err = %v, want a usage error naming the capacity factor", err)
	}
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

// TestParseFlipSharedGrammar: -flip follows the shared key=value rules,
// so values are trimmed and the iteration takes an integral float
// literal.
func TestParseFlipSharedGrammar(t *testing.T) {
	for _, s := range []string{"iter=7.0:decision=reuse", "iter= 7:decision=reuse"} {
		if f, err := parseFlip(s); err != nil || f.Iter != 7 || f.Decision != "reuse" {
			t.Errorf("parseFlip(%q) = %+v, %v", s, f, err)
		}
	}
}

// TestServeCeilingIsUsageError: a serve spec asking for more than
// serve.MaxRequests clients or expected requests is a usage error (exit
// 2) before any timeline is expanded, on both subcommands that take one.
func TestServeCeilingIsUsageError(t *testing.T) {
	for _, spec := range []string{"clients=2000000", "rate=20000@0-100s"} {
		dump := filepath.Join(t.TempDir(), "trace.ndjson")
		err := serveCmd(io.Discard, []string{"-serve", spec, "-dump-trace", dump}, 1, 1, false)
		var ue usageError
		if err == nil || !errors.As(err, &ue) || !strings.Contains(err.Error(), "1000000") {
			t.Fatalf("serve -serve %s: err = %v, want a usage error naming the ceiling", spec, err)
		}
		wantUsage(t, []string{"-serve", spec}, "1000000")
	}
}

// TestItersCeilingIsUsageError: an -iters above the campaign ceiling is
// a usage error (exit 2) on every campaign-running subcommand, not a Go
// panic when the campaign pre-sizes its report; so is a tune -budget
// whose search would simulate more iterations than that ceiling.
func TestItersCeilingIsUsageError(t *testing.T) {
	const huge = "1125899906842624"
	runs := map[string]func() error{
		"campaign":    func() error { return campaignCmd(io.Discard, []string{"-iters", huge}, 1, 1, false) },
		"serve":       func() error { return serveCmd(io.Discard, []string{"-iters", huge}, 1, 1, false) },
		"tune":        func() error { return tuneCmd(io.Discard, []string{"-budget", "1", "-iters", huge}, 1, 1, false) },
		"replay":      func() error { return replayCmd(io.Discard, []string{"-iters", huge}, false) },
		"tune-budget": func() error { return tuneCmd(io.Discard, []string{"-budget", "1000000000"}, 1, 1, false) },
	}
	for name, run := range runs {
		err := run()
		var ue usageError
		if err == nil || !errors.As(err, &ue) || !strings.Contains(err.Error(), "100000") {
			t.Errorf("%s -iters %s: err = %v, want a usage error naming the ceiling", name, huge, err)
		}
	}
}

// TestErrorPrefixPrintedOnce: an SDK rejection that already carries the
// package prefix prints it once, and a CLI error gets it.
func TestErrorPrefixPrintedOnce(t *testing.T) {
	err := tuneCmd(io.Discard, []string{"-budget", "99", "-iters", "101"}, 10, 1, false)
	if err == nil {
		t.Fatal("a tune search past the iteration ceiling must fail")
	}
	const want = "zeppelin: a tune search may simulate at most 100000 iterations ((budget + 1) × seeds × iters), got 101000"
	if got := errorLine(err); got != want {
		t.Fatalf("error line %q, want %q", got, want)
	}
	if got := errorLine(usageErrorf("-iters must be >= 1")); got != "zeppelin: -iters must be >= 1" {
		t.Fatalf("error line %q", got)
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
