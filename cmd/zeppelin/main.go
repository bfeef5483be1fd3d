// Command zeppelin regenerates the paper's evaluation tables and figures
// on the simulated cluster substrate, and runs streaming long-horizon
// campaigns on top of the same cells. It is the reference client of the
// public pkg/zeppelin API: every subcommand drives the same versioned
// surface the zeppelind HTTP daemon serves.
//
// Usage:
//
//	zeppelin [-seeds N] [-workers N] [-json] <experiment>
//	zeppelin [-seeds N] [-workers N] campaign [-iters N] [-arrival P] [-drift D] [-policy P] [-json] [...]
//	zeppelin [-seeds N] [-workers N] serve [-serve SPEC] [-iters N] [-trace FILE] [-dump-trace FILE] [-json] [...]
//	zeppelin [-seeds N] [-workers N] tune [-space S] [-budget N] [-weights W] [-json] [...]
//	zeppelin replay [-iters N] [-seed N] [-flip iter=N:decision=replan|reuse] [-json] [...]
//	zeppelin -version
//
// where <experiment> is one of the experiments the usage message lists
// (zeppelin -h), or all.
//
// -workers bounds the concurrent simulation pool (default GOMAXPROCS);
// results are bit-identical for every worker count. -json emits the
// experiment's structured results as a JSON artifact instead of the
// paper-style text rendering.
//
// The campaign subcommand simulates a multi-iteration training stream:
// an arrival process (steady, poisson, bursty, drifting mixture, or
// deterministic trace replay) feeds batches to every compared method
// while a replanning controller decides when to re-run the partitioner.
// A -faults scenario (straggler, NIC degradation, fail-stop node loss,
// elastic shrink/grow) runs the whole stream under a deterministic
// fault schedule, with fault/recovery markers in the per-iteration
// records and the rendered timeline.
//
// The serve subcommand compares the serving router's objectives (load
// balance vs KV-cache affinity) on one SLO-classed request stream,
// seed-averaged with per-class tables; -dump-trace records the
// scenario's timeline as NDJSON and -trace replays such a file.
//
// The tune subcommand closes the loop: it sweeps a declared parameter
// space — replan policy and threshold, replan cost, admission capacity,
// autoscaler gains — over full campaign runs of one scenario (default:
// the fig13 drifting mixture) and reports the configuration that
// maximizes a weighted fitness of goodput, p99 iteration time,
// migration cost, and utilization, as a ready-to-paste campaign flag
// set. The search is deterministic: grid seeding plus a seeded
// mutation/selection loop, bit-identical at every -workers count.
//
// The replay subcommand is the counterfactual engine: it re-runs one
// campaign deterministically and, with -flip iter=N:decision=replan|reuse,
// inverts exactly one replan verdict, reporting the goodput, p99
// iteration time, and migration-cost delta against the factual run.
// Without -flip the replay is a determinism check — it must reproduce
// the factual event stream bit for bit. The campaign cell is shaped by
// the same flags the campaign subcommand takes, defaulting to the
// drifting arrival so the threshold controller has verdicts worth
// flipping.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"zeppelin/internal/kv"
	"zeppelin/pkg/zeppelin"
)

// usageError marks a flag-validation failure: main prints usage and
// exits 2, the convention every experiment flag already follows.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usageErrorf(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	seeds := flag.Int("seeds", 3, "independently sampled batches (or campaigns) averaged per cell; must be >= 1")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation workers; must be >= 1")
	jsonOut := flag.Bool("json", false, "emit structured results as JSON instead of text")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Usage = usage
	flag.Parse()
	if *version {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(zeppelin.Version()) //nolint:errcheck
		return
	}
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "zeppelin: -seeds must be >= 1, got %d\n", *seeds)
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "zeppelin: -workers must be >= 1, got %d\n", *workers)
		flag.Usage()
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if args[0] == "campaign" {
		if err := campaignCmd(os.Stdout, args[1:], *seeds, *workers, *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "tune" {
		if err := tuneCmd(os.Stdout, args[1:], *seeds, *workers, *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "serve" {
		if err := serveCmd(os.Stdout, args[1:], *seeds, *workers, *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "replay" {
		if err := replayCmd(os.Stdout, args[1:], *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if len(args) != 1 {
		flag.Usage()
		os.Exit(2)
	}
	name := args[0]
	if name != "all" && !zeppelin.IsExperiment(name) {
		fmt.Fprintf(os.Stderr, "zeppelin: unknown experiment %q\n", name)
		flag.Usage()
		os.Exit(2)
	}
	opts := zeppelin.Options{Seeds: *seeds, Workers: *workers}
	if err := experimentCmd(os.Stdout, name, opts, *jsonOut); err != nil {
		fail(err)
	}
}

// fail reports a subcommand or experiment error, exiting 2 with usage
// for flag-validation failures and 1 otherwise.
func fail(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	var ue usageError
	if errors.As(err, &ue) {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(1)
}

// errorLine is the line fail prints: the error under the program's
// prefix, which errors from pkg/zeppelin already carry.
func errorLine(err error) string {
	const prefix = "zeppelin: "
	msg := err.Error()
	if !strings.HasPrefix(msg, prefix) {
		msg = prefix + msg
	}
	return msg
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: zeppelin [-seeds N] [-workers N] [-json] <experiment>
       zeppelin [-seeds N] [-workers N] campaign [flags]
       zeppelin [-seeds N] [-workers N] serve [flags]
       zeppelin [-seeds N] [-workers N] tune [flags]
       zeppelin replay [flags]
       zeppelin -version

experiments: %s
campaign flags: -iters N  -arrival steady|poisson|bursty|drift|replay
                -dataset NAME  -drift a,b,c  -policy always|never|threshold|periodic
                -threshold X  -every N  -replan-cost SECONDS (>= 0)
                -capacity X (admission capacity factor, at most 100; 0 selects 1.25)
                -faults none|straggler|nic|failstop|shrink[:k=v,...]
                -autoscale on|k=v,... (closed-loop world sizing; keys
                min|max|up-util|down-util|step|cooldown)
                -serve SPEC (serving scenario in place of the training cell;
                only -iters and -capacity combine with it)  -json
serve flags:    -serve SPEC (clients=N,arrival=poisson|gamma:cv=X|weibull:shape=X,
                rate=R@from-to;...,slo=name:p99=DUR:prio=N;...,dataset=NAME,
                sessions=N,prefix=F,form=fcfs|priority|sjf,horizon=DUR)
                -iters N  -trace FILE (replay NDJSON requests)
                -dump-trace FILE (record the timeline and exit)  -seed N  -json
tune flags:     -space GRAMMAR (key=value dims; a|b sets, lo:hi intervals;
                keys policy|threshold|every|replan-cost|capacity|autoscale|
                up-util|down-util|cooldown|step)  -budget N  -iters N
                -weights GOODPUT,P99,MIGRATION,UTIL  -search-seed N
                (plus the campaign cell flags: -arrival, -dataset, -drift,
                -faults)  -json
replay flags:   -iters N  -seed N  -flip iter=N:decision=replan|reuse
                (plus the campaign cell flags: -arrival, -dataset, -drift,
                -policy, -threshold, -every, -replan-cost, -faults)  -json
`, strings.Join(append(zeppelin.Experiments(), "all"), " "))
	flag.PrintDefaults()
}

// experimentCmd renders or JSON-emits one experiment, or `all` of them
// in paper order.
func experimentCmd(w io.Writer, name string, opts zeppelin.Options, jsonOut bool) error {
	ctx := context.Background()
	if !jsonOut {
		if name == "all" {
			return zeppelin.RenderAllExperiments(ctx, w, opts)
		}
		return zeppelin.RenderExperiment(ctx, w, name, opts)
	}
	var payload any
	if name == "all" {
		all, err := zeppelin.RunAllExperiments(ctx, opts)
		if err != nil {
			return err
		}
		payload = all
	} else {
		r, err := zeppelin.RunExperiment(ctx, name, opts)
		if err != nil {
			return err
		}
		payload = r
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

// ---------------------------------------------------------------------
// campaign-cell flags
// ---------------------------------------------------------------------

// workloadFlags are the campaign-cell flags campaign, replay and tune
// share: the arrival workload and the fault scenario.
type workloadFlags struct{ arrival, dataset, drift, faults *string }

// addWorkloadFlags registers the workload flags on fs with arrival as
// the -arrival default.
func addWorkloadFlags(fs *flag.FlagSet, arrival string) workloadFlags {
	return workloadFlags{
		arrival: fs.String("arrival", arrival, "arrival process: steady|poisson|bursty|drift|replay"),
		dataset: fs.String("dataset", "arxiv", "base dataset for steady/poisson/bursty/replay arrivals"),
		drift:   fs.String("drift", "arxiv,github,prolong64k", "comma-separated dataset waypoints for -arrival drift"),
		faults: fs.String("faults", "none",
			"fault scenario: none|straggler|nic|failstop|shrink, optionally parameterized as name:key=val,..."),
	}
}

// workload resolves the arrival flags; -drift applies to the drift
// arrival only.
func (c workloadFlags) workload() zeppelin.WorkloadSpec {
	w := zeppelin.WorkloadSpec{Dataset: *c.dataset, Arrival: *c.arrival}
	if *c.arrival == "drift" {
		w.DriftPath = strings.Split(*c.drift, ",")
	}
	return w
}

// cellFlags add the replanning controller campaign and replay share
// (tune searches it instead).
type cellFlags struct {
	workloadFlags
	name                  string
	policy                *string
	threshold, replanCost *float64
	every                 *int
}

// addCellFlags registers the workload and replanning-controller flags
// on fs with arrival as the -arrival default.
func addCellFlags(fs *flag.FlagSet, arrival string) *cellFlags {
	return &cellFlags{
		workloadFlags: addWorkloadFlags(fs, arrival),
		name:          fs.Name(),
		policy:        fs.String("policy", "threshold", "replan policy: always|never|threshold|periodic"),
		threshold:     fs.Float64("threshold", zeppelin.DefaultThreshold, "imbalance ratio for -policy threshold"),
		every:         fs.Int("every", 10, "replan cadence for -policy periodic"),
		replanCost: fs.Float64("replan-cost", zeppelin.DefaultReplanCostSec,
			"seconds charged per replan; must be >= 0 (0 selects the default)"),
	}
}

// check rejects a negative -replan-cost as a usage error.
func (c *cellFlags) check() error {
	if *c.replanCost < 0 {
		return usageErrorf("%s: -replan-cost must be >= 0, got %v", c.name, *c.replanCost)
	}
	return nil
}

// request resolves the cell onto a campaign request over iters
// iterations.
func (c *cellFlags) request(iters int) zeppelin.CampaignRequest {
	return zeppelin.CampaignRequest{
		Workload:      c.workload(),
		Policy:        zeppelin.PolicySpec{Name: *c.policy, Threshold: *c.threshold, Every: *c.every},
		Faults:        *c.faults,
		Iters:         iters,
		ReplanCostSec: *c.replanCost,
	}
}

// ---------------------------------------------------------------------
// replay subcommand
// ---------------------------------------------------------------------

// parseFlip resolves "-flip iter=N:decision=replan|reuse", ':'-separated
// key=value entries under the kv package's rules.
func parseFlip(s string) (*zeppelin.FlipSpec, error) {
	f := &zeppelin.FlipSpec{Iter: -1}
	err := kv.Parse("replay -flip", s, ":", map[string]kv.Field{
		"iter":     kv.Int(&f.Iter),
		"decision": kv.String(&f.Decision),
	})
	if err == nil {
		err = f.Validate()
	}
	if err != nil {
		return nil, usageError{err}
	}
	return f, nil
}

// replayCmd runs the counterfactual engine: one deterministic campaign
// re-run with at most one replan verdict flipped, reporting the
// goodput/p99/migration-cost delta against the factual run (or a
// bit-identity check with no flip).
func replayCmd(w io.Writer, args []string, jsonOut bool) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	iters := fs.Int("iters", 50, "campaign iterations; must be >= 1")
	seed := fs.Int64("seed", 0, "campaign RNG seed")
	cell := addCellFlags(fs, "drift")
	flipSpec := fs.String("flip", "", "decision to invert, as iter=N:decision=replan|reuse (empty checks bit-identity)")
	subJSON := fs.Bool("json", false, "emit the replay report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("replay: unexpected arguments %q", fs.Args())
	}
	if *iters < 1 {
		return usageErrorf("replay: -iters must be >= 1, got %d", *iters)
	}
	if err := cell.check(); err != nil {
		return err
	}
	jsonOut = jsonOut || *subJSON

	req := zeppelin.ReplayRequest{Campaign: cell.request(*iters)}
	req.Campaign.Seed = *seed
	if err := req.Campaign.Validate(); err != nil {
		return usageError{err}
	}
	if *flipSpec != "" {
		f, err := parseFlip(*flipSpec)
		if err != nil {
			return err
		}
		req.Flip = f
	}
	rep, err := zeppelin.RunReplay(context.Background(), req)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	rep.WriteText(w)
	return nil
}

// ---------------------------------------------------------------------
// campaign subcommand
// ---------------------------------------------------------------------

// campaignCmd runs the streaming campaign comparison through the public
// API: the paper's four methods over one arrival/policy/faults cell,
// seed-averaged, rendered as the row table plus Zeppelin's seed-0
// timeline (or the JSON campaign artifact).
func campaignCmd(w io.Writer, args []string, seeds, workers int, jsonOut bool) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	iters := fs.Int("iters", 50, "campaign iterations; must be >= 1")
	cell := addCellFlags(fs, "steady")
	capacity := fs.Float64("capacity", 0,
		"admission capacity factor (per-rank ceiling = capacity × tokens-per-gpu × TP); 0 selects the default (1.25)")
	autoscaleSpec := fs.String("autoscale", "",
		"closed-loop autoscaler: \"on\" or key=val,... (min|max|up-util|down-util|step|cooldown); empty disables")
	serveSpec := fs.String("serve", "",
		"serving scenario (clients=N,arrival=...,rate=...,slo=...); replaces the arrival/policy/faults cell with a request stream")
	subJSON := fs.Bool("json", false, "emit the campaign artifact as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("campaign: unexpected arguments %q", fs.Args())
	}
	if *iters < 1 {
		return usageErrorf("campaign: -iters must be >= 1, got %d", *iters)
	}
	if err := cell.check(); err != nil {
		return err
	}
	jsonOut = jsonOut || *subJSON

	var req zeppelin.CampaignRequest
	if *serveSpec != "" || hasFlag(fs, "serve") {
		// Serve mode: the serve spec owns the request stream and there is
		// no replanning controller. Flag defaults hide what the user
		// typed, so only here can a training-cell flag set alongside
		// -serve be told apart from its default and rejected.
		for _, conflict := range []string{"arrival", "dataset", "drift", "policy", "threshold", "every", "replan-cost", "faults", "autoscale"} {
			if hasFlag(fs, conflict) {
				return usageErrorf("campaign: -%s conflicts with -serve (the serve spec owns the request stream)", conflict)
			}
		}
		spec, err := zeppelin.ParseServeSpec(*serveSpec)
		if err != nil {
			return usageError{err}
		}
		req = zeppelin.CampaignRequest{Iters: *iters, Serve: spec}
	} else {
		req = cell.request(*iters)
		if *autoscaleSpec != "" {
			as, err := zeppelin.ParseAutoscaleSpec(*autoscaleSpec)
			if err != nil {
				return usageError{err}
			}
			req.Autoscale = as
		}
	}
	req.Cluster = zeppelin.ClusterSpec{Capacity: *capacity}
	// Resolution failures — unknown datasets, arrivals, policies, fault
	// scenarios, out-of-range parameters — are flag mistakes: usage.
	if err := req.Validate(); err != nil {
		return usageError{err}
	}
	cmp, err := zeppelin.CompareCampaigns(context.Background(), req, seeds, workers)
	if err != nil {
		return err
	}
	if jsonOut {
		return cmp.WriteJSON(w)
	}
	return cmp.WriteText(w)
}

// hasFlag reports whether a flag was explicitly set on the command line.
func hasFlag(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// ---------------------------------------------------------------------
// serve subcommand
// ---------------------------------------------------------------------

// serveCmd compares the routing objectives (balance vs KV-affinity) on
// one serving scenario through the public API, seed-averaged with
// per-SLO-class tables. -dump-trace records the scenario's deterministic
// timeline as NDJSON (trace-replay v2) and exits; -trace replays such a
// file instead of generating the timeline.
func serveCmd(w io.Writer, args []string, seeds, workers int, jsonOut bool) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	spec := fs.String("serve", "",
		"serving scenario (clients=N,arrival=...,rate=...,slo=...); empty selects every default")
	iters := fs.Int("iters", 10000, "tick horizon; the stream ends early when the timeline drains")
	seed := fs.Int64("seed", 0, "timeline seed for -dump-trace; 0 selects the default")
	tracePath := fs.String("trace", "", "replay a recorded NDJSON request trace instead of generating the timeline")
	dumpPath := fs.String("dump-trace", "", "write the scenario's deterministic timeline as NDJSON and exit")
	capacity := fs.Float64("capacity", 0,
		"admission capacity factor (per-rank ceiling = capacity × tokens-per-gpu × TP); 0 selects the default (1.25)")
	subJSON := fs.Bool("json", false, "emit the serving comparison as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("serve: unexpected arguments %q", fs.Args())
	}
	if *iters < 1 {
		return usageErrorf("serve: -iters must be >= 1, got %d", *iters)
	}
	jsonOut = jsonOut || *subJSON

	wireSpec, err := zeppelin.ParseServeSpec(*spec)
	if err != nil {
		return usageError{err}
	}
	if *dumpPath != "" {
		events, err := zeppelin.GenerateServeTimeline(wireSpec, *seed)
		if err != nil {
			return usageError{err}
		}
		f, err := os.Create(*dumpPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := zeppelin.WriteServeTrace(f, events); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d requests to %s\n", len(events), *dumpPath)
		return f.Close()
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return usageError{err}
		}
		events, err := zeppelin.ReadServeTrace(f)
		f.Close()
		if err != nil {
			return usageError{err}
		}
		wireSpec.Trace = events
		wireSpec.TraceName = *tracePath
	}
	req := zeppelin.CampaignRequest{
		Cluster: zeppelin.ClusterSpec{Capacity: *capacity},
		Iters:   *iters,
		Serve:   wireSpec,
	}
	if err := req.Validate(); err != nil {
		return usageError{err}
	}
	cmp, err := zeppelin.CompareServeRoutes(context.Background(), req, seeds, workers)
	if err != nil {
		return err
	}
	if jsonOut {
		return cmp.WriteJSON(w)
	}
	return cmp.WriteText(w)
}

// ---------------------------------------------------------------------
// tune subcommand
// ---------------------------------------------------------------------

// parseTuneWeights resolves "-weights goodput,p99,migration,util" into
// the wire weights; only the ratios matter.
func parseTuneWeights(s string) (*zeppelin.TuneWeights, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return nil, usageErrorf("tune: -weights wants 4 comma-separated values (goodput,p99,migration,utilization), got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, usageErrorf("tune: bad -weights value %q", p)
		}
		vals[i] = v
	}
	return &zeppelin.TuneWeights{
		Goodput: vals[0], P99: vals[1], Migration: vals[2], Utilization: vals[3],
	}, nil
}

// tuneCmd runs the closed-loop policy search through the public API:
// sweep the declared space over full campaigns of the scenario (default
// the fig13 drifting mixture, where replan policy actually matters) and
// report the fittest configuration as a ready-to-paste flag set. The
// report is bit-identical at every -workers count; -seeds averages each
// candidate over that many campaign seeds.
func tuneCmd(w io.Writer, args []string, seeds, workers int, jsonOut bool) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	space := fs.String("space", "", "search-space grammar: key=value dims, `a|b` sets, `lo:hi` intervals (empty selects the default space)")
	budget := fs.Int("budget", zeppelin.DefaultTuneBudget, "candidate-evaluation budget; must be >= 1")
	iters := fs.Int("iters", zeppelin.DefaultTuneIters, "per-evaluation campaign horizon; must be >= 1")
	weightsSpec := fs.String("weights", "", "fitness weights as goodput,p99,migration,utilization (empty selects 0.4,0.2,0.2,0.2)")
	searchSeed := fs.Int64("search-seed", 0, "mutation-stream seed; 0 selects 1")
	cell := addWorkloadFlags(fs, "drift")
	subJSON := fs.Bool("json", false, "emit the tune report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("tune: unexpected arguments %q", fs.Args())
	}
	if *budget < 1 {
		return usageErrorf("tune: -budget must be >= 1, got %d", *budget)
	}
	if *iters < 1 {
		return usageErrorf("tune: -iters must be >= 1, got %d", *iters)
	}
	jsonOut = jsonOut || *subJSON

	req := zeppelin.TuneRequest{
		Workload:   cell.workload(),
		Faults:     *cell.faults,
		Space:      *space,
		Budget:     *budget,
		Iters:      *iters,
		Seeds:      seeds,
		SearchSeed: *searchSeed,
		Workers:    workers,
	}
	if *weightsSpec != "" {
		tw, err := parseTuneWeights(*weightsSpec)
		if err != nil {
			return err
		}
		req.Weights = tw
	}
	if err := req.Validate(); err != nil {
		return usageError{err}
	}
	rep, err := zeppelin.RunTune(context.Background(), req)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	rep.WriteText(w)
	return nil
}
