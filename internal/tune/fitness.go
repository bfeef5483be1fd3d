package tune

import (
	"fmt"
	"math"

	"zeppelin/internal/campaign"
)

// Weights are the multi-objective fitness weights. They are normalized
// to sum to 1 before scoring, so only their ratios matter; all-zero
// selects DefaultWeights.
type Weights struct {
	// Goodput weights campaign throughput (tokens/sec, higher better).
	Goodput float64 `json:"goodput,omitempty"`
	// P99 weights tail iteration time (lower better).
	P99 float64 `json:"p99,omitempty"`
	// Migration weights the migration bill: replan coordination charges
	// plus elastic state-migration seconds (lower better).
	Migration float64 `json:"migration,omitempty"`
	// Utilization weights mean per-rank busy fraction (higher better).
	Utilization float64 `json:"utilization,omitempty"`
}

// DefaultWeights favor goodput while keeping the tail, the migration
// bill, and utilization in the objective.
var DefaultWeights = Weights{Goodput: 0.4, P99: 0.2, Migration: 0.2, Utilization: 0.2}

// Validate rejects a weight that is negative or not finite: either
// would make every fitness total meaningless (a NaN total names an
// arbitrary winner).
func (w Weights) Validate() error {
	for _, v := range []float64{w.Goodput, w.P99, w.Migration, w.Utilization} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tune: fitness weights must be finite and >= 0, got %+v", w)
		}
	}
	return nil
}

// normalize scales the weights to sum to 1; all-zero selects
// DefaultWeights, an invalid weight is an error.
func (w Weights) normalize() (Weights, error) {
	if err := w.Validate(); err != nil {
		return w, err
	}
	sum := w.Goodput + w.P99 + w.Migration + w.Utilization
	if sum == 0 {
		return DefaultWeights, nil
	}
	w.Goodput /= sum
	w.P99 /= sum
	w.Migration /= sum
	w.Utilization /= sum
	return w, nil
}

// Metrics are the seed-averaged campaign observables fitness scores.
type Metrics struct {
	TokensPerSec    float64 `json:"tokens_per_sec"`
	P99IterTime     float64 `json:"p99_iter_time"`
	Replans         float64 `json:"replans"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	// MigrationCost is the migration bill in seconds: replans times the
	// resolved replan cost, plus elastic recovery time.
	MigrationCost   float64 `json:"migration_cost"`
	MeanUtilization float64 `json:"mean_utilization"`
	DeferredTokens  float64 `json:"deferred_tokens"`
}

// metricsOf folds one campaign report into the accumulator.
func (m *Metrics) add(rep *campaign.Report, replanCost float64) {
	s := rep.Summary
	m.TokensPerSec += s.TokensPerSec
	m.P99IterTime += s.P99IterTime
	m.Replans += float64(s.Replans)
	m.RecoverySeconds += s.RecoverySeconds
	m.MigrationCost += float64(s.Replans)*replanCost + s.RecoverySeconds
	m.MeanUtilization += s.MeanUtilization
	m.DeferredTokens += float64(s.DeferredTokens)
}

func (m *Metrics) scale(n float64) {
	m.TokensPerSec /= n
	m.P99IterTime /= n
	m.Replans /= n
	m.RecoverySeconds /= n
	m.MigrationCost /= n
	m.MeanUtilization /= n
	m.DeferredTokens /= n
}

// Fitness is a candidate's scored breakdown: each component is the
// candidate-vs-baseline improvement ratio (1 = parity, higher better),
// clamped to [0, componentCap] so a near-zero baseline denominator
// cannot dominate the objective. Total is the weight-normalized sum, so
// the baseline itself scores exactly 1.
type Fitness struct {
	Goodput     float64 `json:"goodput"`
	P99         float64 `json:"p99"`
	Migration   float64 `json:"migration"`
	Utilization float64 `json:"utilization"`
	Total       float64 `json:"total"`
}

const (
	// componentCap bounds each improvement ratio.
	componentCap = 5
	// costEps regularizes the migration ratio when either bill is ~0.
	costEps = 1e-6
)

// clampRatio computes num/den clamped into [0, componentCap]; a zero
// denominator with a zero numerator reads as parity.
func clampRatio(numer, denom float64) float64 {
	if denom <= 0 {
		if numer <= 0 {
			return 1
		}
		return componentCap
	}
	r := numer / denom
	if r > componentCap {
		return componentCap
	}
	if r < 0 {
		return 0
	}
	return r
}

// score rates candidate metrics against the baseline under normalized
// weights. Higher-is-better components divide candidate by baseline;
// lower-is-better components invert.
func score(cand, base Metrics, w Weights) Fitness {
	f := Fitness{
		Goodput:     clampRatio(cand.TokensPerSec, base.TokensPerSec),
		P99:         clampRatio(base.P99IterTime, cand.P99IterTime),
		Migration:   clampRatio(base.MigrationCost+costEps, cand.MigrationCost+costEps),
		Utilization: clampRatio(cand.MeanUtilization, base.MeanUtilization),
	}
	f.Total = w.Goodput*f.Goodput + w.P99*f.P99 + w.Migration*f.Migration + w.Utilization*f.Utilization
	return f
}
