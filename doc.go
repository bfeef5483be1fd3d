// Package zeppelin is a from-scratch Go reproduction of "Zeppelin:
// Balancing Variable-length Workloads in Data Parallel Large Model
// Training" (EUROSYS 2026). The root package only anchors the module's
// benchmark harness (bench_test.go); the public API lives in
// pkg/zeppelin and the implementation under internal/:
//
//   - pkg/zeppelin        — the versioned public v1 API: one-shot plan
//     requests (Planner), iterator-style campaign streaming (Campaign,
//     one simulated iteration per Next call), experiment regeneration
//     by name, build/version identification, and the fleet-hardening
//     layer: per-class token-bucket admission control (Admission,
//     TokenBucket), the process-wide shared plan cache (PlanCache —
//     exact full-solve reuse across plan requests and campaign
//     sessions, bit-identical by construction), the load-generation
//     engine (RunLoad: paced plan RPS plus concurrent campaign streams,
//     latency percentiles, benchfmt artifact, and — when targets expose
//     /metrics — the p99.9 tail, fleet decisions/sec, and admission
//     saturation), and the observability surface: per-campaign decision
//     traces (WithCampaignDecisions, DecisionRecord with scored
//     alternatives) and the counterfactual replay engine (RunReplay:
//     re-run a recorded stream with exactly one replan verdict flipped
//     — FlipSpec — and report the goodput/p99/wall-time delta; a
//     no-flip replay must be bit-identical), and the closed-loop tuning
//     surface (RunTune: multi-objective policy search over full
//     campaigns with a deterministic winner, plus
//     AutoscaleSpec/ParseAutoscaleSpec for the campaign autoscaler),
//     and the serving-scenario surface (ServeSpec/ParseServeSpec: the
//     -serve flag grammar resolved into the serve engine's own spec,
//     which is also the wire object, CompareServeRoutes for the
//     balance-vs-affinity routing grid, GenerateServeTimeline plus
//     Write/ReadServeTrace for NDJSON trace-replay v2, and
//     IsValidationError to tell client mistakes from engine failures).
//     Context-aware throughout (cancellation stops campaigns between
//     iterations and grids between jobs) with the JSON wire schema
//     pinned by golden tests. cmd/zeppelin is its reference client
//     (campaign, serve, replay, tune, fig13…fig16 subcommands);
//     cmd/zeppelind serves it over HTTP (POST /v1/plan, POST
//     /v1/campaigns + NDJSON event streams honoring client disconnect
//     and SIGTERM drain, GET /v1/campaigns/{id}/decisions, POST
//     /v1/campaigns/{id}/replay, GET /v1/experiments/{name}, POST
//     /v1/tune, GET /v1/stats, GET /v1/version — all /v1 routes behind
//     admission control with structured 429s — plus unadmitted GET
//     /healthz and GET /metrics, and an NDJSON decision log via
//     -decision-log); cmd/zeppelin-loadgen drives fleet-shaped traffic
//     at one or more replicas and verifies byte-identical plans on the
//     way.
//
//   - internal/sim        — deterministic discrete-event simulator
//
//   - internal/cluster    — GPU cluster topologies (Clusters A, B, C)
//
//   - internal/model      — transformer configurations (3B…30B, 8×550M MoE)
//
//   - internal/costmodel  — kernel and transfer time models, zone analysis
//
//   - internal/workload   — Table 2 / Fig. 1 length distributions; its
//     serve subpackage generates inference-style request streams:
//     multi-client Poisson/Gamma/Weibull arrivals under per-window rate
//     schedules, SLO classes with deadlines, session/prefix structure
//     for KV-affinity routing, and an NDJSON trace round-trip
//     (trace-replay v2): a spec carrying a recorded trace replays it in
//     place of its synthetic timeline
//
//   - internal/seq        — sequences, rings, placement plans
//
//   - internal/flow       — max-flow / min-cost-flow solvers
//
//   - internal/partition  — hierarchical sequence partitioner (Alg. 1 + 2)
//     plus the incremental re-planner: a keyed plan cache with exact
//     reuse and, under a configured tolerance, delta patching of the
//     previous plan (departures cut, arrivals greedily re-placed) with
//     imbalance-drift self-regulation and full-solve fallback on any
//     health or capacity change; SharedCache is the process-wide tier
//     behind it — the same exact-key LRU under a mutex, holding full
//     solves only (never patched plans), with hit/miss counting
//
//   - internal/attention  — three-queue ring attention engine
//
//   - internal/routing    — three-step multi-NIC communication routing
//
//   - internal/remap      — Eq. 2 remapping layer
//
//   - internal/baselines  — TE CP, LLaMA CP, Hybrid DP
//
//   - internal/zeppelin   — the assembled system (trainer.Method); its
//     Incremental front-end plans through the incremental re-planner
//     (exact mode is bit-identical to the stateless method, the property
//     campaigns rely on)
//
//   - internal/trainer    — end-to-end iteration simulation
//
//   - internal/runner     — ForEach, the bounded worker pool every
//     experiment grid, campaign grid and tune generation fans out
//     through, bit-identical at every worker count; it honors context
//     cancellation without leaking pool workers
//
//   - internal/campaign   — streaming multi-iteration campaigns: arrival
//     processes, online re-planning policies, the queue-depth/utilization
//     autoscaler riding the elastic-rescale path (bounded step, cooldown,
//     capacity-clamped), per-iteration metrics, consumed either all at
//     once (Run) or record by record through the iterator-style Stream
//     that pkg/zeppelin and zeppelind expose; serve campaigns swap the
//     training arrival for a pre-generated request timeline with
//     priority/SJF batch formation, KV-affinity routing (decision-traced
//     route choices), per-class deadline accounting, and per-class
//     goodput/violation metrics in the report
//
//   - internal/decision   — decision tracing for the campaign engine: one
//     record per replan/placement/admission choice with the scored
//     alternatives and controller state, a deterministic NDJSON
//     encoding, and the single-decision flip override the
//     counterfactual replay engine drives
//
//   - internal/tune       — closed-loop policy tuning: a multi-objective
//     fitness function (goodput, p99 iteration time, migration cost,
//     utilization; weights normalized, baseline-relative) evaluated by
//     running full campaigns, a declared-space grammar (policy,
//     threshold, replan cost, capacity, autoscaler gains), and a
//     grid-seeded mutation/selection search fanned through
//     runner.ForEach with a bit-identical winner at every worker count
//
//   - internal/promtext   — hand-rolled Prometheus text exposition
//     (format 0.0.4, no client-library dependency): a builder for
//     counters and gauges, concurrency-safe histograms, and the
//     parser zeppelin-loadgen scrapes replicas with
//
//   - internal/faults     — deterministic fault-and-elasticity schedules:
//     stragglers, NIC degradation, fail-stop node loss with
//     checkpoint-restart, planned elastic shrink/grow with Eq. 2 state
//     migration
//
//   - internal/experiments— regenerators for every paper table and figure,
//     plus the fig13 streaming-campaign and fig14 fault comparisons,
//     the fig15 planner fast-path scaling sweep (64 → 8192 ranks, plan
//     latency and allocations, full vs incremental), and the fig16
//     serving-scenario routing comparison (bursty multi-client stream,
//     balance vs KV-affinity, per-class SLO tables)
//
//   - internal/trace      — Fig. 12-style timeline and campaign rendering
//
//   - internal/benchfmt   — benchmark-artifact JSON schema shared by the
//     CI bench-regression gate (cmd/benchgate) and zeppelin-loadgen's
//     throughput artifact
//
// See README.md for a tour: its "Package tour" section is the system
// inventory, and "Quickstart" lists every experiment the CLI regenerates.
package zeppelin
