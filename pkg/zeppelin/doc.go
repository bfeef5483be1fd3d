// Package zeppelin is the public, versioned v1 API of the Zeppelin
// simulator: a curated surface over the internal packages that lets any
// Go program — and, through cmd/zeppelind, any HTTP client — plan a
// batch, stream a long-horizon campaign, or regenerate a paper
// experiment, without importing internal/.
//
// The surface is deliberately small and wire-stable:
//
//   - Planner / PlanRequest / PlanResponse — one-shot partition+remap
//     planning of a sampled batch, with a simulated-iteration readout.
//     NewPlanner takes functional options; WithPlanCache shares a
//     process-wide PlanCache of full partition solves, whose hits are
//     bit-identical to re-solving. Every Zeppelin plan and campaign
//     plans through one exact-mode incremental planner (one per call,
//     one per campaign), so responses never depend on cache state.
//   - Campaign / CampaignRequest / CampaignEvent — iterator-style
//     streaming of a multi-iteration campaign: NewCampaign resolves the
//     request, Start binds a context, and each Next call simulates
//     exactly one iteration and returns its event. Draining a Campaign
//     is bit-identical to the internal all-at-once runner. An optional
//     AutoscaleSpec (parseable from flag syntax via ParseAutoscaleSpec)
//     attaches the autoscaler: the world grows and shrinks with
//     observed queue depth and utilization through the elastic-rescale
//     path, bounded per step, cooled down between moves, and clamped
//     to [1, cluster capacity].
//   - RunTune / TuneRequest / TuneReport — closed-loop policy tuning:
//     a multi-objective fitness function (goodput, p99 iteration time,
//     migration cost, utilization; TuneWeights normalized, fitness 1.0
//     pinned to the hand-tuned baseline) evaluated by running full
//     campaigns, searched over a declared space grammar by grid
//     seeding plus a mutation/selection loop. The report carries the
//     per-candidate fitness breakdown and the winner's ready-to-paste
//     flag set, and is bit-identical at every Workers count.
//   - ServeSpec / ParseServeSpec / CompareServeRoutes — serving
//     scenarios: the -serve flag grammar (multi-client arrivals, rate
//     windows, SLO classes, sessions/prefixes) parsed into the wire
//     object CampaignRequest.Serve carries, where a zero field selects
//     the same default an omitted grammar key does; the
//     balance-vs-affinity routing comparison grid; and trace-replay v2
//     (GenerateServeTimeline, WriteServeTrace/ReadServeTrace round-trip
//     the timestamped NDJSON trace format bit-identically). Serve reports carry per-SLO-class
//     metrics (ClassMetrics); IsValidationError distinguishes client
//     mistakes — bad specs, NaN dataset weights, broken traces — from
//     engine failures, which zeppelind maps to 400 vs 500.
//   - RunExperiment / RenderExperiment — every paper table and figure by
//     name ("fig8", "table3", …), structured or paper-style text;
//     "fig15" is the planner fast-path latency sweep (64 → 8192 ranks).
//   - CompareCampaigns — the CLI's (method × seed) campaign comparison
//     grid, with JSON and text artifact writers.
//   - Version / APIVersion — build and API-revision identification.
//
// Every entry point takes a context.Context and honors cancellation:
// campaigns stop between iterations, experiment grids stop between
// simulation jobs, and the bounded worker pools drain without leaking
// goroutines. All request and response structs marshal to a JSON wire
// schema that is pinned by golden tests (testdata/*.golden.json) and
// served verbatim by the zeppelind daemon under /v1.
//
// The event, summary, decision, class-metrics, autoscale, serve, flip
// and tune types (CampaignEvent, CampaignSummary, DecisionRecord,
// DecisionAlternative, ClassMetrics, AutoscaleSpec, ServeSpec,
// ServeWindow, SLOClass, ServeTraceEvent, FlipSpec, TuneWeights,
// TuneParams, TuneMetrics, TuneFitness, TuneCandidate, TuneReport) are
// aliases of the engine's own json-tagged types under their v1 names,
// so no converter sits between the engine and the wire; the goldens pin
// their bytes like every other wire type.
//
// The JSON error shape every /v1 endpoint returns on failure is
// ErrorBody: {"error":{"code":"...","message":"..."}}.
package zeppelin
