// Command zeppelind is the long-running planning service: the public
// pkg/zeppelin API served over HTTP/JSON.
//
// Usage:
//
//	zeppelind [-addr :8080] [-workers N] [-seeds N]
//	          [-rate R] [-burst B] [-plan-rate R] [-campaign-rate R]
//	          [-experiment-rate R] [-plan-cache N] [-decision-log PATH]
//	zeppelind -version
//
// Routes (all under the v1 API revision):
//
//	GET  /healthz                      — liveness: {"status":"ok"} (never rate limited)
//	GET  /metrics                      — Prometheus text exposition: admission
//	                                     counters and bucket saturation, plan-cache
//	                                     hit/eviction counters, request-latency and
//	                                     plan-solve histograms, sessions by state,
//	                                     decisions by kind (never rate limited)
//	GET  /v1/version                   — module version, Go version, API revision
//	GET  /v1/stats                     — fleet counters: per-class admission
//	                                     decisions, plan-cache hit rate, sessions by state
//	POST /v1/plan                      — one-shot partition+remap plan of a
//	                                     sampled batch (PlanRequest → PlanResponse)
//	POST /v1/campaigns                 — create a campaign session (CampaignRequest)
//	GET  /v1/campaigns                 — list sessions in creation order
//	GET  /v1/campaigns/{id}            — session status
//	DELETE /v1/campaigns/{id}          — drop a non-running session (finished
//	                                     sessions beyond a cap are also evicted
//	                                     oldest-first at creation time)
//	GET  /v1/campaigns/{id}/events     — stream the campaign: one NDJSON
//	                                     CampaignEvent per iteration, produced by the
//	                                     session-owned planner; disconnecting cancels
//	                                     the campaign between iterations
//	GET  /v1/campaigns/{id}/decisions  — the session's decision trace: every
//	                                     replan/admission/placement choice with the
//	                                     scored alternatives it was chosen over
//	POST /v1/campaigns/{id}/replay     — counterfactual replay: re-run the session's
//	                                     campaign with at most one replan verdict
//	                                     flipped ({"flip":{"iter":N,"decision":"reuse"}})
//	                                     and report the goodput/p99/replan delta
//	GET  /v1/experiments/{name}        — any paper experiment's structured result
//	POST /v1/tune                      — closed-loop policy search (TuneRequest →
//	                                     TuneReport): sweep a declared space over
//	                                     full campaigns and return the fittest
//	                                     configuration with its ready-to-paste
//	                                     flag set; experiment-class admission,
//	                                     one simulation slot, deterministic at
//	                                     every worker count
//
// -workers bounds both the number of requests simulating concurrently
// and each request's internal worker pool; every response is
// bit-identical at every worker count. Unknown /v1 routes and wrong
// methods return the structured JSON error envelope
// {"error":{"code":"...","message":"..."}}.
//
// -rate/-burst put a token-bucket admission controller in front of
// every /v1 route: each traffic class (plan, campaign, experiment,
// meta) gets an independent bucket admitting -rate requests/sec with
// -burst slack, and over-rate requests are rejected with a structured
// 429 ("rate_limited") carrying a Retry-After header before any
// simulation work happens. -plan-rate/-campaign-rate/-experiment-rate
// override -rate per class (negative means unlimited). The default
// -rate 0 disables admission control. Every rate must be finite.
//
// -plan-cache N (default 256, 0 to disable) shares an N-entry exact
// plan cache across all plan requests and campaign sessions: identical
// partition solves are computed once per process. Reuse is
// bit-identical — responses never depend on cache state.
//
// -decision-log PATH appends the structured decision log: one compact
// JSON line per recorded decision, stamped with its session id, written
// as each campaign stream drains. Decision traces are deterministic per
// (request, seed), so the log is reproducible replay input.
//
// On SIGINT/SIGTERM the daemon drains: in-flight campaign streams are
// cancelled between iterations, their sessions marked cancelled, and
// the listener shuts down gracefully.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"zeppelin/pkg/zeppelin"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation slots; must be >= 1")
	seeds := flag.Int("seeds", 3, "batches/campaigns averaged per experiment cell; must be >= 1")
	rate := flag.Float64("rate", 0, "per-class admission rate in requests/sec; 0 disables admission control")
	burst := flag.Int("burst", 8, "admission token-bucket depth per class")
	planRate := flag.Float64("plan-rate", 0, "admission rate override for /v1/plan (0 inherits -rate, negative is unlimited)")
	campaignRate := flag.Float64("campaign-rate", 0, "admission rate override for /v1/campaigns routes (0 inherits -rate, negative is unlimited)")
	experimentRate := flag.Float64("experiment-rate", 0, "admission rate override for /v1/experiments (0 inherits -rate, negative is unlimited)")
	planCache := flag.Int("plan-cache", zeppelin.DefaultPlanCacheEntries, "shared plan cache entries; 0 disables the cache")
	decisionLog := flag.String("decision-log", "", "append the NDJSON decision log to this file (empty disables)")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Parse()
	if *version {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(zeppelin.Version()) //nolint:errcheck
		return
	}

	cfg := serverConfig{
		workers:          *workers,
		seeds:            *seeds,
		rate:             *rate,
		burst:            *burst,
		planRate:         *planRate,
		campaignRate:     *campaignRate,
		experimentRate:   *experimentRate,
		planCacheEntries: *planCache,
	}
	if err := checkFlags(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "zeppelind:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *decisionLog != "" {
		f, err := os.OpenFile(*decisionLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("zeppelind: -decision-log: %v", err)
		}
		defer f.Close()
		cfg.decisionLog = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newServer(ctx, cfg),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx) //nolint:errcheck
	}()

	v := zeppelin.Version()
	log.Printf("zeppelind %s (api %s, %s) listening on %s, %d worker(s)",
		v.Version, v.APIVersion, v.GoVersion, *addr, *workers)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}

// checkFlags rejects the flag values main exits with usage on. A
// non-finite admission rate is one: a NaN rate turns its bucket's token
// count into NaN on the first refill, and an infinite one the first time
// two requests share a clock reading, after which the class answers 429
// to every request.
func checkFlags(cfg serverConfig) error {
	if cfg.workers < 1 || cfg.seeds < 1 {
		return errors.New("-workers and -seeds must be >= 1")
	}
	if cfg.planCacheEntries < 0 {
		return errors.New("-plan-cache must be >= 0")
	}
	for _, r := range []struct {
		flag string
		rate float64
	}{
		{"-rate", cfg.rate},
		{"-plan-rate", cfg.planRate},
		{"-campaign-rate", cfg.campaignRate},
		{"-experiment-rate", cfg.experimentRate},
	} {
		if math.IsNaN(r.rate) || math.IsInf(r.rate, 0) {
			return fmt.Errorf("%s must be finite, got %v", r.flag, r.rate)
		}
	}
	return nil
}
