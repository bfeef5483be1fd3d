package tune

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"zeppelin/internal/campaign"
	"zeppelin/internal/runner"
)

// Options configure one search.
type Options struct {
	// Base builds the scenario a candidate is evaluated on: a pure
	// factory returning an independent campaign configuration for the
	// given seed (fresh Method instance included — configurations are
	// evaluated concurrently). The candidate's parameters are overlaid
	// on the returned configuration. Required.
	Base func(seed int64) campaign.Config
	// Space declares the dimensions to sweep.
	Space Space
	// Budget is the number of candidate evaluations (the baseline is
	// free); zero selects DefaultBudget.
	Budget int
	// Weights are the fitness weights (normalized; zero selects
	// DefaultWeights).
	Weights Weights
	// Seeds is how many seeds each candidate averages over (default 1).
	Seeds int
	// Iters, when > 0, overrides the scenario's campaign horizon.
	Iters int
	// Workers bounds the evaluation pool (runner.ForEach semantics).
	Workers int
	// SearchSeed seeds the mutation stream; zero selects 1. Mutation is
	// serial between generations, so the same seed gives the same
	// candidate sequence at any worker count.
	SearchSeed int64
}

// DefaultBudget is the candidate-evaluation budget when none is given.
const DefaultBudget = 24

// Candidate is one evaluated point with its scored breakdown.
type Candidate struct {
	// Key is the point's canonical identity; Flags is the equivalent
	// ready-to-paste `zeppelin campaign` flag set.
	Key    string `json:"key"`
	Params Params `json:"params"`
	Flags  string `json:"flags"`
	// Invalid carries the validation error of a point whose overlay the
	// campaign rejected (it scores zero and cannot win); empty for
	// evaluated candidates.
	Invalid string  `json:"invalid,omitempty"`
	Metrics Metrics `json:"metrics"`
	Fitness Fitness `json:"fitness"`
}

// Report is the full search artifact. It and the types it holds are
// also the public wire types (zeppelin.TuneReport, TuneCandidate, ...):
// their tags and field order are pinned by pkg/zeppelin's goldens.
type Report struct {
	// Space echoes the swept grammar; Budget/Iters/Seeds/Weights echo
	// the resolved search parameters.
	Space   string  `json:"space"`
	Budget  int     `json:"budget"`
	Iters   int     `json:"iters"`
	Seeds   int     `json:"seeds"`
	Weights Weights `json:"weights"`
	// Evaluated counts candidate evaluations actually run (dedup can
	// leave it short of Budget).
	Evaluated int `json:"evaluated"`
	// Baseline is the hand-tuned default the fitness normalizes against
	// (its Total is exactly 1); Winner is the best candidate; Improved
	// reports whether the winner strictly beats the baseline.
	Baseline Candidate `json:"baseline"`
	Winner   Candidate `json:"winner"`
	Improved bool      `json:"improved"`
	// Candidates lists every evaluation in deterministic order.
	Candidates []Candidate `json:"candidates"`
}

// WriteText renders the report for terminals: the search header, the
// per-candidate fitness table (baseline first), and the winning
// configuration as a ready-to-paste flag set.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "tune: space %q, budget %d (%d evaluated), %d iters x %d seed(s)\n",
		r.Space, r.Budget, r.Evaluated, r.Iters, r.Seeds)
	fmt.Fprintf(w, "weights: goodput %.2f  p99 %.2f  migration %.2f  utilization %.2f\n\n",
		r.Weights.Goodput, r.Weights.P99, r.Weights.Migration, r.Weights.Utilization)

	rows := append([]Candidate{r.Baseline}, r.Candidates...)
	fmt.Fprintf(w, "  %-44s %8s %8s %8s %8s %8s\n",
		"candidate", "fitness", "goodput", "p99", "migrate", "util")
	for _, c := range rows {
		label := c.Key
		if c.Key == r.Baseline.Key {
			label += " (baseline)"
		}
		if c.Invalid != "" {
			fmt.Fprintf(w, "  %-44s %8s invalid: %s\n", label, "-", c.Invalid)
			continue
		}
		fmt.Fprintf(w, "  %-44s %8.4f %8.3f %8.3f %8.3f %8.3f\n",
			label, c.Fitness.Total, c.Fitness.Goodput, c.Fitness.P99,
			c.Fitness.Migration, c.Fitness.Utilization)
	}
	fmt.Fprintf(w, "\nwinner: %s (fitness %.4f", r.Winner.Key, r.Winner.Fitness.Total)
	if r.Improved {
		fmt.Fprintf(w, ", beats baseline %.4f)\n", r.Baseline.Fitness.Total)
	} else {
		fmt.Fprintf(w, "; baseline %.4f stands)\n", r.Baseline.Fitness.Total)
	}
	fmt.Fprintf(w, "flags:  %s\n", r.Winner.Flags)
}

// Evolutionary-loop shape: eliteCount parents survive each generation
// and childrenPerGen mutations are attempted from them.
const (
	eliteCount     = 4
	childrenPerGen = 8
)

// Search runs the closed loop: evaluate the baseline, seed the grid,
// then alternate mutation/selection generations until the budget is
// spent. Candidate evaluations are pure functions of (Params, seed) and
// generations fan through runner.ForEach with positional results, so
// the report — winner included — is bit-identical at any worker count.
func Search(ctx context.Context, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Base == nil {
		return nil, fmt.Errorf("tune: no base scenario")
	}
	if opts.Budget == 0 {
		opts.Budget = DefaultBudget
	}
	if opts.Budget < 1 {
		return nil, fmt.Errorf("tune: budget must be >= 1, got %d", opts.Budget)
	}
	if opts.Seeds <= 0 {
		opts.Seeds = 1
	}
	if opts.SearchSeed == 0 {
		opts.SearchSeed = 1
	}
	weights, err := opts.Weights.normalize()
	if err != nil {
		return nil, err
	}

	base, err := evalOne(ctx, opts, Params{})
	if err != nil {
		return nil, err
	}
	if base.Invalid != "" {
		return nil, fmt.Errorf("tune: baseline scenario invalid: %s", base.Invalid)
	}
	base.Fitness = score(base.Metrics, base.Metrics, weights)

	seen := map[string]bool{base.Key: true}
	var all []Candidate
	rng := rand.New(rand.NewSource(opts.SearchSeed))
	gen := filterSeen(gridSeeds(opts.Space, opts.Budget), seen)
	remaining := opts.Budget
	for len(gen) > 0 && remaining > 0 {
		if len(gen) > remaining {
			gen = gen[:remaining]
		}
		results := make([]Candidate, len(gen))
		ferr := runner.ForEach(ctx, opts.Workers, len(gen), func(i int) error {
			c, err := evalOne(ctx, opts, gen[i])
			if err != nil {
				return err
			}
			results[i] = c
			return nil
		})
		if ferr != nil {
			return nil, ferr
		}
		for i := range results {
			if results[i].Invalid == "" {
				results[i].Fitness = score(results[i].Metrics, base.Metrics, weights)
			}
		}
		all = append(all, results...)
		remaining -= len(gen)
		if remaining <= 0 {
			break
		}
		gen = nextGeneration(rng, opts.Space, all, seen, remaining)
	}

	rep := &Report{
		Space:      opts.Space.Grammar,
		Budget:     opts.Budget,
		Seeds:      opts.Seeds,
		Iters:      opts.Iters,
		Weights:    weights,
		Evaluated:  len(all),
		Baseline:   base,
		Candidates: all,
	}
	if w, ok := best(all); ok {
		rep.Winner = w
		rep.Improved = w.Fitness.Total > base.Fitness.Total
	} else {
		// Degenerate space: nothing but the baseline to evaluate.
		rep.Winner = base
	}
	return rep, nil
}

// evalOne scores one point: Seeds campaigns averaged into Metrics. An
// overlay the campaign's validation rejects marks the candidate Invalid
// instead of failing the search; evaluation errors propagate.
func evalOne(ctx context.Context, opts Options, p Params) (Candidate, error) {
	p = p.canonical()
	c := Candidate{Key: p.Key(), Params: p, Flags: p.Flags()}
	var m Metrics
	for s := 0; s < opts.Seeds; s++ {
		cfg := opts.Base(int64(s))
		cfg.Decisions = nil
		cfg.Flip = nil
		cfg, err := p.apply(cfg)
		if err != nil {
			c.Invalid = err.Error()
			return c, nil
		}
		if opts.Iters > 0 {
			cfg.Iters = opts.Iters
		}
		resolved := cfg
		if err := resolved.Validate(); err != nil {
			c.Invalid = err.Error()
			return c, nil
		}
		rep, err := campaign.Run(ctx, cfg)
		if err != nil {
			return c, err
		}
		m.add(rep, resolved.ReplanCost)
	}
	m.scale(float64(opts.Seeds))
	c.Metrics = m
	return c, nil
}

// best returns the winning candidate: highest fitness, ties broken by
// the lexically smaller Key. Invalid candidates cannot win.
func best(all []Candidate) (Candidate, bool) {
	var w Candidate
	found := false
	for _, c := range all {
		if c.Invalid != "" {
			continue
		}
		if !found || c.Fitness.Total > w.Fitness.Total ||
			(c.Fitness.Total == w.Fitness.Total && c.Key < w.Key) {
			w = c
			found = true
		}
	}
	return w, found
}

// elites returns the top eliteCount valid candidates, fitness
// descending, ties by Key ascending.
func elites(all []Candidate) []Candidate {
	valid := make([]Candidate, 0, len(all))
	for _, c := range all {
		if c.Invalid == "" {
			valid = append(valid, c)
		}
	}
	sort.Slice(valid, func(i, j int) bool {
		if valid[i].Fitness.Total != valid[j].Fitness.Total {
			return valid[i].Fitness.Total > valid[j].Fitness.Total
		}
		return valid[i].Key < valid[j].Key
	})
	if len(valid) > eliteCount {
		valid = valid[:eliteCount]
	}
	return valid
}

// nextGeneration breeds up to want unseen children by mutating elites.
// It runs serially between ForEach generations, so the one sequential
// rng keeps the candidate sequence deterministic at any worker count.
func nextGeneration(rng *rand.Rand, sp Space, all []Candidate, seen map[string]bool, want int) []Params {
	parents := elites(all)
	if len(parents) == 0 {
		return nil
	}
	if want > childrenPerGen {
		want = childrenPerGen
	}
	muts := mutators(sp)
	if len(muts) == 0 {
		return nil
	}
	var out []Params
	for attempts := 0; len(out) < want && attempts < want*50; attempts++ {
		parent := parents[rng.Intn(len(parents))].Params
		child := muts[rng.Intn(len(muts))](rng, parent).canonical()
		if k := child.Key(); !seen[k] {
			seen[k] = true
			out = append(out, child)
		}
	}
	return out
}

// mutators returns one jitter function per swept dimension.
func mutators(sp Space) []func(*rand.Rand, Params) Params {
	var muts []func(*rand.Rand, Params) Params
	if len(sp.Policies) > 1 {
		muts = append(muts, func(rng *rand.Rand, p Params) Params {
			p.Policy = sp.Policies[rng.Intn(len(sp.Policies))]
			return p
		})
	}
	if !sp.Threshold.empty() {
		muts = append(muts, func(rng *rand.Rand, p Params) Params {
			p.Threshold = jitter(rng, sp.Threshold, p.Threshold)
			return p
		})
	}
	if !sp.Every.empty() {
		muts = append(muts, func(rng *rand.Rand, p Params) Params {
			p.Every = jitterInt(rng, sp.Every, p.Every)
			return p
		})
	}
	if !sp.ReplanCost.empty() {
		muts = append(muts, func(rng *rand.Rand, p Params) Params {
			p.ReplanCost = jitter(rng, sp.ReplanCost, p.ReplanCost)
			return p
		})
	}
	if !sp.Capacity.empty() {
		muts = append(muts, func(rng *rand.Rand, p Params) Params {
			p.Capacity = jitter(rng, sp.Capacity, p.Capacity)
			return p
		})
	}
	if len(sp.Autoscale) > 1 {
		muts = append(muts, func(rng *rand.Rand, p Params) Params {
			p.Autoscale = !p.Autoscale
			return p
		})
	}
	if !sp.UpUtil.empty() {
		muts = append(muts, func(rng *rand.Rand, p Params) Params {
			p.UpUtil = jitter(rng, sp.UpUtil, p.UpUtil)
			return p
		})
	}
	if !sp.DownUtil.empty() {
		muts = append(muts, func(rng *rand.Rand, p Params) Params {
			p.DownUtil = jitter(rng, sp.DownUtil, p.DownUtil)
			return p
		})
	}
	if !sp.Cooldown.empty() {
		muts = append(muts, func(rng *rand.Rand, p Params) Params {
			p.Cooldown = jitterInt(rng, sp.Cooldown, p.Cooldown)
			return p
		})
	}
	if !sp.Step.empty() {
		muts = append(muts, func(rng *rand.Rand, p Params) Params {
			p.Step = jitterInt(rng, sp.Step, p.Step)
			return p
		})
	}
	return muts
}

// jitter perturbs a continuous value inside its dimension: a random Set
// element for discrete dimensions, a ±15% multiplicative nudge clamped
// to the interval otherwise. Mutations round to four decimals so keys
// and flag sets stay readable; the clamp runs last so rounding cannot
// escape the interval.
func jitter(rng *rand.Rand, r Range, v float64) float64 {
	if len(r.Set) > 0 {
		return r.Set[rng.Intn(len(r.Set))]
	}
	if v == 0 {
		v = (r.Lo + r.Hi) / 2
	}
	v *= 0.85 + 0.3*rng.Float64()
	return r.clamp(math.Round(v*1e4) / 1e4)
}

// jitterInt perturbs an integer value: a random Set element, or a ±1
// step clamped to the interval.
func jitterInt(rng *rand.Rand, r IntRange, v int) int {
	if len(r.Set) > 0 {
		return r.Set[rng.Intn(len(r.Set))]
	}
	if v == 0 {
		v = (r.Lo + r.Hi) / 2
	}
	if rng.Intn(2) == 0 {
		return r.clamp(v - 1)
	}
	return r.clamp(v + 1)
}

func filterSeen(in []Params, seen map[string]bool) []Params {
	out := in[:0]
	for _, p := range in {
		if k := p.Key(); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}
