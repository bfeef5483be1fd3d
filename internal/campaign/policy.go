package campaign

import (
	"fmt"
	"math"
)

// PolicyState is what the replanning controller knows when it must
// decide, before simulating an iteration, whether to re-run the
// partitioner or reuse the stale plan.
type PolicyState struct {
	// Iter is the campaign iteration index.
	Iter int
	// SinceReplan counts iterations since the partitioner last ran.
	SinceReplan int
	// StaleImbalance is the projected max/mean per-rank attention load if
	// the incoming batch is routed through the stale plan's skeleton.
	StaleImbalance float64
	// FreshImbalance is the projected imbalance of a fresh plan for the
	// same batch — the best the partitioner could do.
	FreshImbalance float64
}

// Policy decides when a campaign re-runs the partitioner. Deciding is
// free; replanning charges Config.ReplanCost to the iteration.
type Policy interface {
	Name() string
	ShouldReplan(s PolicyState) bool
}

// Always replans every iteration — the paper's implicit per-batch
// regime, paying the full planning cost for the best balance.
type Always struct{}

// Name identifies the policy.
func (Always) Name() string { return "always" }

// ShouldReplan is always true.
func (Always) ShouldReplan(PolicyState) bool { return true }

// Never plans once at iteration 0 and reuses that skeleton forever,
// accumulating imbalance as the workload drifts away from it.
type Never struct{}

// Name identifies the policy.
func (Never) Name() string { return "never" }

// ShouldReplan is always false (the campaign forces the initial plan).
func (Never) ShouldReplan(PolicyState) bool { return false }

// Threshold replans when the stale plan's projected imbalance exceeds
// Ratio (max/mean per-rank load; 1.0 is perfect balance). It is the
// online middle ground: cheap while the workload is stationary,
// responsive when it drifts.
type Threshold struct {
	// Ratio triggers a replan when StaleImbalance exceeds it. Zero
	// selects DefaultThreshold; values below 1 clamp to 1 (maximum
	// sensitivity — 1.0 is perfect balance).
	Ratio float64
}

// DefaultThreshold is the imbalance ratio the CLI and the campaign
// experiment use: tolerate up to 30% above the mean before replanning.
const DefaultThreshold = 1.3

func (t Threshold) ratio() float64 {
	if t.Ratio == 0 {
		return DefaultThreshold
	}
	if t.Ratio < 1 {
		return 1 // maximum sensitivity: replan on any projected imbalance
	}
	return t.Ratio
}

// Name includes the ratio so ablation rows stay distinguishable.
func (t Threshold) Name() string { return fmt.Sprintf("threshold(%.2f)", t.ratio()) }

// ShouldReplan fires when the projected stale imbalance crosses the ratio.
func (t Threshold) ShouldReplan(s PolicyState) bool { return s.StaleImbalance > t.ratio() }

// Periodic replans on a fixed cadence regardless of observed imbalance —
// the classic open-loop baseline a threshold policy should beat.
type Periodic struct {
	Every int // iterations between replans (≥ 1)
}

func (p Periodic) every() int {
	if p.Every < 1 {
		return 10
	}
	return p.Every
}

// Name includes the cadence.
func (p Periodic) Name() string { return fmt.Sprintf("periodic(%d)", p.every()) }

// ShouldReplan fires every Every iterations.
func (p Periodic) ShouldReplan(s PolicyState) bool { return s.SinceReplan >= p.every() }

// PolicyByName builds the named policy: "always", "never", "threshold"
// (at a finite ratio, 0 selecting the default), or "periodic" (at
// cadence).
func PolicyByName(name string, ratio float64, every int) (Policy, error) {
	switch name {
	case "always":
		return Always{}, nil
	case "never":
		return Never{}, nil
	case "threshold":
		if math.IsNaN(ratio) || math.IsInf(ratio, 0) {
			return nil, fmt.Errorf("campaign: threshold ratio must be finite, got %g", ratio)
		}
		return Threshold{Ratio: ratio}, nil
	case "periodic":
		return Periodic{Every: every}, nil
	}
	return nil, fmt.Errorf("campaign: unknown replan policy %q (want always|never|threshold|periodic)", name)
}
