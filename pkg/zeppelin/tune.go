package zeppelin

import (
	"context"
	"fmt"

	"zeppelin/internal/campaign"
	"zeppelin/internal/tune"
)

// Defaults of the tune surface: the evaluation horizon is deliberately
// shorter than a full campaign — the search runs Budget × Seeds whole
// campaigns — and the budget matches the internal search default.
const (
	DefaultTuneIters  = 60
	DefaultTuneBudget = tune.DefaultBudget
)

// MaxTuneIters bounds the campaign iterations one search may simulate,
// (Budget + 1) × Seeds × Iters counting the baseline: the ceiling one
// campaign has (campaign.MaxIters), 22 times the 4,500 of the default
// CLI search (3 seeds). On the default cell and a 2-vCPU x86-64 VM
// (go1.24.0, 2 workers), a search at the ceiling took 42 s wall and
// 80 s CPU; the default CLI search took 1.9 s wall and 3.4 s CPU.
const MaxTuneIters = campaign.MaxIters

// TuneRequest asks for a closed-loop policy search: sweep a declared
// parameter space over full campaign runs of the given scenario and
// return the configuration that maximizes the multi-objective fitness.
// The zero value tunes the default space (the threshold policy's replan
// ratio) on a steady ArXiv stream over the default cell.
type TuneRequest struct {
	// Model names the transformer preset; empty selects "7B".
	Model string `json:"model,omitempty"`
	// Cluster is the simulated cell.
	Cluster ClusterSpec `json:"cluster,omitempty"`
	// Workload is the arrival process of the evaluation scenario.
	Workload WorkloadSpec `json:"workload,omitempty"`
	// Faults names a deterministic fault scenario the evaluations run
	// under; empty or "none" runs healthy. Candidates that enable the
	// autoscaler under a fault schedule are invalid (they score zero).
	Faults string `json:"faults,omitempty"`
	// Method is the scheduling method under test; empty selects
	// "zeppelin".
	Method string `json:"method,omitempty"`
	// Space is the search-space grammar: comma-separated key=value
	// dimensions where a value is `a|b|c` (set), `lo:hi` (interval), or
	// a single literal (pinned). Keys: policy, threshold, every,
	// replan-cost, capacity, autoscale, up-util, down-util, cooldown,
	// step. Empty selects the default space.
	Space string `json:"space,omitempty"`
	// Budget is the candidate-evaluation budget; 0 selects the default.
	Budget int `json:"budget,omitempty"`
	// Iters is the per-evaluation campaign horizon; 0 selects the
	// default (DefaultTuneIters).
	Iters int `json:"iters,omitempty"`
	// Seeds is how many seeds each candidate averages over; 0 selects 1.
	// (Budget + 1) × Seeds × Iters may not exceed MaxTuneIters.
	Seeds int `json:"seeds,omitempty"`
	// Weights are the fitness weights (normalized to sum to 1); nil
	// selects the defaults.
	Weights *TuneWeights `json:"weights,omitempty"`
	// SearchSeed seeds the mutation stream; 0 selects 1.
	SearchSeed int64 `json:"search_seed,omitempty"`
	// Workers bounds the evaluation pool; 0 selects GOMAXPROCS. The
	// report is bit-identical at every worker count.
	Workers int `json:"workers,omitempty"`
}

// TuneWeights are the wire fitness weights; only their ratios matter.
type TuneWeights = tune.Weights

// TuneParams is the wire form of one candidate configuration. Key
// renders its canonical identity, Flags the equivalent `zeppelin
// campaign` flag set.
type TuneParams = tune.Params

// TuneMetrics are one candidate's seed-averaged campaign observables.
type TuneMetrics = tune.Metrics

// TuneFitness is a candidate's scored breakdown: per-component
// candidate-vs-baseline improvement ratios (1 = parity, clamped to
// [0, 5]) and the weight-normalized Total. The baseline scores exactly 1.
type TuneFitness = tune.Fitness

// TuneCandidate is one evaluated configuration with its breakdown.
type TuneCandidate = tune.Candidate

// TuneReport is the wire artifact of one search; WriteText renders it
// for terminals.
type TuneReport = tune.Report

// Validate reports whether the request resolves to a runnable search
// without running it — the up-front check zeppelind uses to return
// structured 400s. Every error it returns is a validation error
// (IsValidationError).
func (r TuneRequest) Validate() error {
	if _, err := tune.ParseSpace(r.Space); err != nil {
		return campaign.NewValidationError(err)
	}
	if r.Budget < 0 {
		return campaign.NewValidationError(fmt.Errorf("zeppelin: tune budget must be >= 0, got %d", r.Budget))
	}
	if r.Seeds < 0 {
		return campaign.NewValidationError(fmt.Errorf("zeppelin: tune seeds must be >= 0, got %d", r.Seeds))
	}
	if r.Weights != nil {
		if err := r.Weights.Validate(); err != nil {
			return campaign.NewValidationError(err)
		}
	}
	scenario := r.scenarioRequest(0)
	if err := scenario.Validate(); err != nil {
		return err
	}
	budget := r.Budget
	if budget == 0 {
		budget = DefaultTuneBudget
	}
	// In float64: a budget near the int ceiling would overflow the product.
	if work := (float64(budget) + 1) * float64(max(r.Seeds, 1)) * float64(scenario.Iters); work > MaxTuneIters {
		return campaign.NewValidationError(fmt.Errorf("zeppelin: a tune search may simulate at most %d iterations ((budget + 1) × seeds × iters), got %.0f", MaxTuneIters, work))
	}
	return nil
}

// scenarioRequest is the campaign request of one evaluation seed. The
// seed schedule matches the experiment grids (base seed plus 37 per
// index), so seed 0 is the exact campaign `zeppelin campaign` runs.
func (r TuneRequest) scenarioRequest(seedIdx int64) CampaignRequest {
	iters := r.Iters
	if iters == 0 {
		iters = DefaultTuneIters
	}
	return CampaignRequest{
		Model:    r.Model,
		Cluster:  r.Cluster,
		Workload: r.Workload,
		Policy:   PolicySpec{},
		Faults:   r.Faults,
		Method:   r.Method,
		Iters:    iters,
		Seed:     DefaultSeed + 37*seedIdx,
	}
}

// RunTune executes the search in-process: grid seeding plus a
// mutation/selection loop, every candidate evaluated by running full
// campaigns of the request's scenario. Evaluations fan across the
// worker pool and the report — winner included — is bit-identical at
// every worker count.
func RunTune(ctx context.Context, req TuneRequest) (*TuneReport, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	sp, err := tune.ParseSpace(req.Space)
	if err != nil {
		return nil, err
	}
	var weights tune.Weights
	if req.Weights != nil {
		weights = *req.Weights
	}
	iters := req.Iters
	if iters == 0 {
		iters = DefaultTuneIters
	}
	rep, err := tune.Search(ctx, tune.Options{
		Base: func(seed int64) campaign.Config {
			// The request validated above and resolution is
			// seed-independent, so per-seed failures cannot happen; a
			// zero Config from an impossible failure is caught by the
			// campaign's own validation.
			cfg, _ := req.scenarioRequest(seed).config()
			return cfg
		},
		Space:      sp,
		Budget:     req.Budget,
		Weights:    weights,
		Seeds:      req.Seeds,
		Iters:      iters,
		Workers:    req.Workers,
		SearchSeed: req.SearchSeed,
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
