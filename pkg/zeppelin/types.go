package zeppelin

import (
	"fmt"
	"strings"

	"zeppelin/internal/baselines"
	"zeppelin/internal/campaign"
	"zeppelin/internal/cluster"
	"zeppelin/internal/decision"
	"zeppelin/internal/faults"
	"zeppelin/internal/model"
	"zeppelin/internal/partition"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	zep "zeppelin/internal/zeppelin"
)

// DefaultSeed is the trainer seed requests fall back to when Seed is
// zero — the same base seed every figure's seed-0 cell has always used,
// so API plans and campaigns reproduce the paper grids byte for byte.
const DefaultSeed int64 = 1000

// ClusterSpec selects the simulated cluster cell of a request. The zero
// value means two Cluster A nodes (16×A800), TP 1, 4k tokens per GPU —
// the first Fig. 8 panel and the campaign cell of fig13.
type ClusterSpec struct {
	// Preset names the node hardware: "A" (8×A800, 4 NICs), "B"
	// (8×H800, 8 NICs), or "C" (8×H200, 8 NICs). Empty selects "A".
	Preset string `json:"preset,omitempty"`
	// Nodes is the node count; 0 selects 2.
	Nodes int `json:"nodes,omitempty"`
	// TP is the tensor-parallel degree; 0 selects 1.
	TP int `json:"tp,omitempty"`
	// TokensPerGPU is the per-GPU context budget; 0 selects 4096.
	TokensPerGPU int `json:"tokens_per_gpu,omitempty"`
	// Capacity is the admission capacity factor: the per-rank token
	// ceiling is Capacity × TokensPerGPU × TP. 0 selects the default
	// (1.25); a negative value, or one above 100, is a validation error.
	Capacity float64 `json:"capacity,omitempty"`
}

// resolve fills defaults and maps the spec onto the internal topology.
func (c ClusterSpec) resolve() (cluster.Spec, ClusterSpec, error) {
	out := c
	if out.Preset == "" {
		out.Preset = "A"
	}
	spec, err := cluster.ByName(out.Preset)
	if err != nil {
		return cluster.Spec{}, out, err
	}
	if out.Nodes == 0 {
		out.Nodes = 2
	}
	if out.Nodes < 1 {
		return cluster.Spec{}, out, fmt.Errorf("zeppelin: nodes must be >= 1, got %d", out.Nodes)
	}
	if out.TP == 0 {
		out.TP = 1
	}
	if out.TokensPerGPU == 0 {
		out.TokensPerGPU = 4096
	}
	if out.Capacity < 0 {
		return cluster.Spec{}, out, fmt.Errorf("zeppelin: capacity factor must be >= 0, got %g", out.Capacity)
	}
	return spec, out, nil
}

// WorkloadSpec selects what arrives each iteration. The zero value is a
// steady full-budget ArXiv stream.
type WorkloadSpec struct {
	// Dataset names the length distribution for the single-distribution
	// arrivals: "arxiv" (default), "github", "fineweb", "fineweb-edu",
	// "openwebmath", "stackexchange", or "prolong64k".
	Dataset string `json:"dataset,omitempty"`
	// Arrival names the batch arrival process: "steady" (default),
	// "poisson", "bursty", "drift", or "replay".
	Arrival string `json:"arrival,omitempty"`
	// DriftPath lists the dataset waypoints of a "drift" arrival;
	// empty selects arxiv → github → prolong64k.
	DriftPath []string `json:"drift_path,omitempty"`
}

// arrival resolves the spec for a campaign horizon and token budget.
func (w WorkloadSpec) arrival(iters, baseTokens int) (campaign.Arrival, error) {
	name := w.Arrival
	if name == "" {
		name = "steady"
	}
	var base workload.Dataset
	var path []workload.Dataset
	if name == "drift" {
		for _, wp := range w.DriftPath {
			d, err := workload.ByName(strings.TrimSpace(wp))
			if err != nil {
				return nil, err
			}
			path = append(path, d)
		}
	} else {
		var err error
		if base, err = w.dataset(); err != nil {
			return nil, err
		}
	}
	return campaign.ArrivalByName(name, base, path, iters, baseTokens)
}

// dataset resolves the base dataset, defaulting to ArXiv.
func (w WorkloadSpec) dataset() (workload.Dataset, error) {
	if w.Dataset == "" {
		return workload.ArXiv, nil
	}
	return workload.ByName(w.Dataset)
}

// PolicySpec selects the replanning controller of a campaign. The zero
// value is the threshold policy at its default ratio.
type PolicySpec struct {
	// Name is one of "always", "never", "threshold" (default), or
	// "periodic".
	Name string `json:"name,omitempty"`
	// Threshold is the imbalance ratio of the threshold policy; 0
	// selects the default (1.3).
	Threshold float64 `json:"threshold,omitempty"`
	// Every is the cadence of the periodic policy; 0 selects 10.
	Every int `json:"every,omitempty"`
}

// resolve maps the spec onto the internal policy.
func (p PolicySpec) resolve() (campaign.Policy, error) {
	name := p.Name
	if name == "" {
		name = "threshold"
	}
	every := p.Every
	if every == 0 {
		every = 10
	}
	return campaign.PolicyByName(name, p.Threshold, every)
}

// MethodInfo names one scheduling method of the comparison: ID is the
// wire identifier requests use, Display the paper's label.
type MethodInfo struct {
	ID      string `json:"id"`
	Display string `json:"display"`
}

// Methods lists the paper's four compared systems in Fig. 8 order.
func Methods() []MethodInfo {
	return []MethodInfo{
		{ID: "tecp", Display: baselines.TECP{}.Name()},
		{ID: "llamacp", Display: baselines.LLaMACP{}.Name()},
		{ID: "hybriddp", Display: baselines.HybridDP{}.Name()},
		{ID: "zeppelin", Display: zep.Full().Name()},
	}
}

// AllMethods additionally includes the input-balanced packing strategy
// the paper analyzes but does not carry into the end-to-end comparison.
func AllMethods() []MethodInfo {
	return append([]MethodInfo{{ID: "packing", Display: baselines.Packing{}.Name()}}, Methods()...)
}

// methodByID resolves a wire method identifier (case-insensitive,
// separators ignored) to a trainer method. Empty selects Zeppelin.
func methodByID(id string) (trainer.Method, error) {
	norm := strings.ToLower(strings.NewReplacer(" ", "", "-", "", "_", "").Replace(id))
	switch norm {
	case "", "zeppelin":
		return zep.Full(), nil
	case "tecp":
		return baselines.TECP{}, nil
	case "llamacp":
		return baselines.LLaMACP{}, nil
	case "hybriddp":
		return baselines.HybridDP{}, nil
	case "packing":
		return baselines.Packing{}, nil
	}
	return nil, fmt.Errorf("zeppelin: unknown method %q (want zeppelin|tecp|llamacp|hybriddp|packing)", id)
}

// PlanRequest asks for one batch to be sampled, partitioned, and
// simulated. The zero value plans an ArXiv batch for Zeppelin on the
// default cell.
type PlanRequest struct {
	// Model names the transformer preset: "7B" (default), "3B", "13B",
	// "30B", or "8x550M".
	Model string `json:"model,omitempty"`
	// Cluster is the simulated cell.
	Cluster ClusterSpec `json:"cluster,omitempty"`
	// Dataset names the length distribution the batch is sampled from;
	// empty selects "arxiv".
	Dataset string `json:"dataset,omitempty"`
	// Method is the scheduling method: "zeppelin" (default), "tecp",
	// "llamacp", "hybriddp", or "packing".
	Method string `json:"method,omitempty"`
	// Seed seeds the batch sampler; 0 selects DefaultSeed.
	Seed int64 `json:"seed,omitempty"`
}

// resolve maps the request onto a trainer cell, sampler, and method.
func (r PlanRequest) resolve() (trainer.Config, workload.Dataset, trainer.Method, error) {
	name := r.Model
	if name == "" {
		name = "7B"
	}
	mc, err := model.ByName(name)
	if err != nil {
		return trainer.Config{}, workload.Dataset{}, nil, err
	}
	spec, cs, err := r.Cluster.resolve()
	if err != nil {
		return trainer.Config{}, workload.Dataset{}, nil, err
	}
	d, err := WorkloadSpec{Dataset: r.Dataset}.dataset()
	if err != nil {
		return trainer.Config{}, workload.Dataset{}, nil, err
	}
	m, err := methodByID(r.Method)
	if err != nil {
		return trainer.Config{}, workload.Dataset{}, nil, err
	}
	seed := r.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	cfg := trainer.Config{
		Model: mc, Spec: spec, Nodes: cs.Nodes, TP: cs.TP,
		TokensPerGPU: cs.TokensPerGPU, CapacityFactor: cs.Capacity, Seed: seed,
	}
	if err := cfg.Validate(); err != nil {
		return trainer.Config{}, workload.Dataset{}, nil, err
	}
	return cfg, d, m, nil
}

// Validate reports whether the request resolves to a runnable cell.
// Every error it returns is a validation error (IsValidationError).
func (r PlanRequest) Validate() error {
	_, _, _, err := r.resolve()
	return campaign.NewValidationError(err)
}

// PlanResponse is the wire result of one Plan call: the placement the
// partitioner produced and the simulated iteration it leads to.
type PlanResponse struct {
	// Method is the display name of the scheduling method that planned.
	Method string `json:"method"`
	// World is the data-parallel world size the plan addresses.
	World int `json:"world"`
	// Seqs and Tokens describe the sampled batch.
	Seqs   int `json:"seqs"`
	Tokens int `json:"tokens"`
	// TokensPerRank is the planned per-rank attention token layout
	// (present when the method exposes a partition plan — the Zeppelin
	// planners do; even-split baselines have no plan skeleton).
	TokensPerRank []int `json:"tokens_per_rank,omitempty"`
	// Imbalance is the plan's max/mean per-rank token ratio (1.0 is
	// perfect balance); 0 when no plan is exposed.
	Imbalance float64 `json:"imbalance,omitempty"`
	// LocalSeqs and RingSeqs split the plan's sequences into locally
	// placed ones and ring-sharded ones.
	LocalSeqs int `json:"local_seqs,omitempty"`
	RingSeqs  int `json:"ring_seqs,omitempty"`
	// RemapTransfers and RemapInterTokens describe the Eq. 2 remapping
	// solution (Zeppelin with the remap layer only).
	RemapTransfers   int `json:"remap_transfers,omitempty"`
	RemapInterTokens int `json:"remap_inter_tokens,omitempty"`
	// PlanMode reports how an incremental planner produced the plan:
	// "full", "patched", or "cached". Empty for stateless planners.
	PlanMode string `json:"plan_mode,omitempty"`
	// IterTimeSec and TokensPerSec are the simulated end-to-end
	// iteration readout for the planned batch.
	IterTimeSec  float64 `json:"iter_time_sec"`
	TokensPerSec float64 `json:"tokens_per_sec"`
	// HostOverheadSec is the per-iteration host-side planning charge.
	HostOverheadSec float64 `json:"host_overhead_sec"`
}

// CampaignRequest asks for a multi-iteration streaming campaign.
type CampaignRequest struct {
	// Model names the transformer preset; empty selects "7B".
	Model string `json:"model,omitempty"`
	// Cluster is the simulated cell.
	Cluster ClusterSpec `json:"cluster,omitempty"`
	// Workload is the arrival process feeding the campaign.
	Workload WorkloadSpec `json:"workload,omitempty"`
	// Policy is the replanning controller.
	Policy PolicySpec `json:"policy,omitempty"`
	// Faults names a deterministic fault scenario ("straggler", "nic",
	// "failstop", "shrink", optionally parameterized as
	// "name:key=val,..."); empty or "none" runs healthy.
	Faults string `json:"faults,omitempty"`
	// Method is the scheduling method under test; empty selects
	// "zeppelin".
	Method string `json:"method,omitempty"`
	// Iters is the campaign horizon; must be >= 1.
	Iters int `json:"iters"`
	// Seed seeds the campaign's RNG stream; 0 selects DefaultSeed.
	Seed int64 `json:"seed,omitempty"`
	// ReplanCostSec is the per-replan coordination charge in seconds:
	// 0 selects the default (20 ms), a negative value is a validation
	// error (use a small positive value to approximate free replanning).
	ReplanCostSec float64 `json:"replan_cost_sec,omitempty"`
	// Incremental plans Zeppelin through the session-owned incremental
	// planner (exact mode: results are bit-identical to the stateless
	// planner, plans are cached and patched instead of re-solved).
	Incremental bool `json:"incremental,omitempty"`
	// Autoscale, when non-nil, runs the campaign under the closed-loop
	// autoscaler: world size follows observed queue depth and
	// utilization through the elastic-rescale path. Mutually exclusive
	// with Faults (both own the world size).
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
	// Serve, when non-nil, switches the campaign to a serving scenario:
	// a timestamped multi-client request stream with SLO classes, batch
	// formation, and a routing objective. Mutually exclusive with
	// Workload, Policy, Faults, and Autoscale — the serve spec owns the
	// arrival process and there is no replanning controller in serve
	// mode. Iters caps the tick count; the stream ends early when the
	// timeline drains.
	Serve *ServeSpec `json:"serve,omitempty"`
}

// AutoscaleSpec is the wire form of the campaign autoscaler's gains —
// the engine's own type. The zero value of every field selects the
// engine default; MaxNodes may never exceed the cluster's node count.
type AutoscaleSpec = campaign.Autoscaler

// ParseAutoscaleSpec resolves the CLI's -autoscale grammar into a wire
// spec: "" or "on" selects every default, otherwise comma-separated
// key=value options with keys min, max, up-util, down-util, step, and
// cooldown — the exact strings `zeppelin tune` emits in a winner's
// ready-to-paste flag set.
func ParseAutoscaleSpec(s string) (*AutoscaleSpec, error) { return campaign.ParseAutoscaler(s) }

// config resolves the request into an internal campaign configuration.
// Each call builds a fresh method instance, so an incremental planner is
// owned by exactly one campaign.
func (r CampaignRequest) config() (campaign.Config, error) { return r.configWith(nil) }

// configWith is config with an optional shared plan cache tier: the
// campaign's planner (always session-owned) probes it for exact
// full-solve hits and publishes its own, so identical campaign specs
// running in other sessions — or identical one-shot plan requests —
// dedupe the partition work. Exact-mode reuse is bit-identical, so the
// event stream is unchanged by cache state.
func (r CampaignRequest) configWith(pc *PlanCache) (campaign.Config, error) {
	if r.Iters < 1 {
		return campaign.Config{}, fmt.Errorf("zeppelin: campaign iters must be >= 1, got %d", r.Iters)
	}
	name := r.Model
	if name == "" {
		name = "7B"
	}
	mc, err := model.ByName(name)
	if err != nil {
		return campaign.Config{}, err
	}
	spec, cs, err := r.Cluster.resolve()
	if err != nil {
		return campaign.Config{}, err
	}
	m, err := methodByID(r.Method)
	if err != nil {
		return campaign.Config{}, err
	}
	if zm, ok := m.(zep.Method); ok && (r.Incremental || pc != nil) {
		// The incremental wrapper serves two roles: the request-level
		// Incremental fast path, and (for any Zeppelin campaign when a
		// shared tier is wired) the probe/publish front of the
		// process-wide plan cache. Exact mode either way: bit-identical.
		m = zep.NewIncremental(zm, partition.IncrementalConfig{Shared: pc.sharedTier()})
	}
	seed := r.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	tcfg := trainer.Config{
		Model: mc, Spec: spec, Nodes: cs.Nodes, TP: cs.TP,
		TokensPerGPU: cs.TokensPerGPU, CapacityFactor: cs.Capacity, Seed: seed,
	}
	if err := tcfg.Validate(); err != nil {
		return campaign.Config{}, err
	}
	if r.Serve != nil {
		// Serve mode: the serve spec owns the arrival process, and the
		// serving loop has no replanning controller, fault schedule, or
		// autoscaler — reject the conflicting knobs instead of silently
		// ignoring them.
		if r.Workload.Dataset != "" || r.Workload.Arrival != "" || len(r.Workload.DriftPath) > 0 {
			return campaign.Config{}, campaign.NewValidationError(fmt.Errorf("zeppelin: serve and workload are mutually exclusive (the serve spec carries its own dataset and arrival process)"))
		}
		if r.Policy != (PolicySpec{}) {
			return campaign.Config{}, campaign.NewValidationError(fmt.Errorf("zeppelin: serve campaigns have no replanning policy"))
		}
		if faultsSpecOrNone(r.Faults) != "none" || r.Autoscale != nil {
			return campaign.Config{}, campaign.NewValidationError(fmt.Errorf("zeppelin: serve campaigns do not support fault schedules or autoscaling yet"))
		}
		sc, err := r.Serve.resolve()
		if err != nil {
			return campaign.Config{}, campaign.NewValidationError(err)
		}
		cfg := campaign.Config{
			Trainer:    tcfg,
			Method:     m,
			Iters:      r.Iters,
			ReplanCost: r.ReplanCostSec,
			Serve:      sc,
		}
		if err := cfg.Validate(); err != nil {
			return campaign.Config{}, err
		}
		return cfg, nil
	}
	arr, err := r.Workload.arrival(r.Iters, tcfg.TotalTokens())
	if err != nil {
		return campaign.Config{}, err
	}
	pol, err := r.Policy.resolve()
	if err != nil {
		return campaign.Config{}, err
	}
	espec := tcfg.EffectiveSpec()
	sched, err := faults.ByName(faultsSpecOrNone(r.Faults), r.Iters, tcfg.Nodes, espec.GPUsPerNode)
	if err != nil {
		return campaign.Config{}, err
	}
	if err := sched.Validate(tcfg.Nodes, espec.GPUsPerNode, espec.NICsPerNode); err != nil {
		return campaign.Config{}, err
	}
	cfg := campaign.Config{
		Trainer:    tcfg,
		Method:     m,
		Iters:      r.Iters,
		Arrival:    arr,
		Policy:     pol,
		ReplanCost: r.ReplanCostSec,
		Faults:     sched,
	}
	if r.Autoscale != nil {
		// Validation fills the autoscaler's defaults in place: give every
		// configuration its own copy so the caller's spec stays untouched
		// and concurrently run grid cells share nothing.
		as := *r.Autoscale
		cfg.Autoscaler = &as
	}
	if err := cfg.Validate(); err != nil {
		return campaign.Config{}, err
	}
	return cfg, nil
}

// faultsSpecOrNone maps the wire convention (empty = healthy) onto the
// internal scenario parser's explicit "none".
func faultsSpecOrNone(spec string) string {
	if spec == "" {
		return "none"
	}
	return spec
}

// Validate reports whether the request resolves to a runnable campaign.
// Every error it returns is a validation error (IsValidationError).
func (r CampaignRequest) Validate() error {
	_, err := r.config()
	return campaign.NewValidationError(err)
}

// CampaignEvent is the wire form of one campaign iteration — the
// engine's own per-iteration record, so a drained event stream is
// bit-identical to an in-process campaign run.
type CampaignEvent = campaign.IterRecord

// CampaignSummary aggregates one campaign's event stream — the engine's
// own summary.
type CampaignSummary = campaign.Summary

// CampaignReport is the full wire artifact of one drained campaign.
type CampaignReport struct {
	Summary CampaignSummary `json:"summary"`
	// PerRankUtil is each rank's campaign-cumulative busy fraction.
	PerRankUtil []float64 `json:"per_rank_util"`
	// Classes are the per-SLO-class serving metrics, highest priority
	// first (serve campaigns only).
	Classes []ClassMetrics `json:"classes,omitempty"`
	// Events holds every iteration in order.
	Events []CampaignEvent `json:"events"`
}

// DecisionAlternative is one scored option a decision site considered.
type DecisionAlternative = decision.Alternative

// DecisionRecord is the wire form of one recorded campaign decision —
// what was chosen, what else was considered, and the controller state
// that drove the choice. Field order is part of the NDJSON decision-log
// contract: kind and chosen are adjacent, so
// `"kind":"replan","chosen":"replan"` is a stable grep key for replan
// executions.
type DecisionRecord = decision.Record

// DecisionKinds lists every decision kind ("replan", "admission",
// "placement", "scale", "route", "tune") — the fixed vocabulary of
// zeppelind's decisions counter.
func DecisionKinds() []decision.Kind { return decision.Kinds() }

// FlipSpec names one replan decision to invert during a counterfactual
// replay: at iteration Iter, force the verdict to Decision ("replan" or
// "reuse") instead of whatever the policy decided.
type FlipSpec struct {
	Iter     int    `json:"iter"`
	Decision string `json:"decision"`
}

// Validate checks the spec without running anything — the up-front
// check zeppelind's replay endpoint uses to distinguish a malformed
// flip (400) from a replay that failed to run (500).
func (f FlipSpec) Validate() error {
	_, err := f.flip()
	return err
}

// flip resolves the spec onto the internal override.
func (f FlipSpec) flip() (*campaign.Flip, error) {
	if f.Iter < 0 {
		return nil, fmt.Errorf("zeppelin: flip iter must be >= 0, got %d", f.Iter)
	}
	switch f.Decision {
	case "replan":
		return &campaign.Flip{Iter: f.Iter, Replan: true}, nil
	case "reuse":
		return &campaign.Flip{Iter: f.Iter, Replan: false}, nil
	}
	return nil, fmt.Errorf("zeppelin: unknown flip decision %q (want replan|reuse)", f.Decision)
}

// ReplayRequest asks for a recorded campaign to be deterministically
// re-run, optionally with exactly one replan decision flipped. With no
// flip the replay must reproduce the factual stream byte for byte.
type ReplayRequest struct {
	Campaign CampaignRequest `json:"campaign"`
	Flip     *FlipSpec       `json:"flip,omitempty"`
}

// ReplayDelta is the counterfactual-minus-factual outcome difference.
type ReplayDelta struct {
	// TokensPerSecPct is the goodput change in percent.
	TokensPerSecPct float64 `json:"tokens_per_sec_pct"`
	// P99IterTimePct is the tail-latency change in percent.
	P99IterTimePct float64 `json:"p99_iter_time_pct"`
	// WallTimeSec is the absolute campaign wall-time change in seconds.
	WallTimeSec float64 `json:"wall_time_sec"`
	// Replans is the replan-count change.
	Replans int `json:"replans"`
	// RecoverySec is the fault-transition (migration/restart) cost change
	// in seconds.
	RecoverySec float64 `json:"recovery_sec,omitempty"`
}

// ReplayReport is the wire result of one counterfactual replay.
type ReplayReport struct {
	// Flip echoes the requested override, if any.
	Flip *FlipSpec `json:"flip,omitempty"`
	// Flipped reports whether the override actually inverted a verdict —
	// false when it targeted a forced decision or agreed with the factual
	// one (the replay is then bit-identical to the factual run).
	Flipped bool `json:"flipped"`
	// Identical reports that the replayed stream reproduced the factual
	// stream byte for byte (always true for no-flip and no-op replays).
	Identical bool `json:"identical"`
	// Factual and Counterfactual summarize the two runs; Counterfactual
	// is omitted when the replay was identical.
	Factual        CampaignSummary  `json:"factual"`
	Counterfactual *CampaignSummary `json:"counterfactual,omitempty"`
	// Delta is counterfactual minus factual, present with Counterfactual.
	Delta *ReplayDelta `json:"delta,omitempty"`
}

// ErrorBody is the JSON error envelope every /v1 endpoint returns:
// {"error":{"code":"...","message":"..."}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a stable machine-readable code ("bad_request",
// "not_found", "method_not_allowed", "conflict", "rate_limited",
// "internal") and a human-readable message. A "rate_limited" error
// rides a 429 response whose Retry-After header says how many seconds
// to back off.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}
