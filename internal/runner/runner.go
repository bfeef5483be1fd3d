// Package runner is the concurrent experiment engine behind every paper
// table and figure. A reproduction grid is a set of (cell × method ×
// seed) simulation jobs that are embarrassingly parallel and fully
// deterministic: each job carries its own RNG seed (trainer.Config.Seed)
// and its own simulation environment, so results are bit-identical
// whether the grid runs on one worker or on runtime.GOMAXPROCS workers.
// The engine fans jobs across a bounded worker pool, collects results
// into a keyed store in submission order, memoizes repeated
// configurations by a stable config identity (an Engine may be shared across
// many Run calls — `zeppelin all` reuses cells between figures), and can
// emit the whole result set as a JSON artifact for downstream tooling.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
)

// Sampler builds a batch for a token budget (the experiments package's
// Sampler re-exports this shape): workload.Dataset.Batch,
// workload.SkewedBatch and workload.BalancedBatch all satisfy it.
type Sampler func(totalTokens int, rng *rand.Rand) []seq.Sequence

// Job is one simulation cell: a trainer configuration, the method to
// plan it, and the sampler that draws its batch from Config.Seed.
type Job struct {
	// Key identifies the job within one Run call; it must be non-empty
	// and unique. Grid builders typically use "fig8/7B/64k/arxiv/TE CP/s0".
	Key    string
	Config trainer.Config
	Method trainer.Method
	Sample Sampler
	// SamplerName is the stable identity of Sample used for memoization
	// (function values cannot be hashed). Jobs with an empty SamplerName
	// are never memoized — two anonymous samplers must not collide.
	SamplerName string
}

// identity returns the job's stable memoization key: the full rendered
// configuration, not a digest, so distinct jobs can never collide. The
// method is rendered with its concrete type and field values so that
// e.g. TECP{} and TECP{Routed: true} — which share a display name —
// stay distinct.
func (j *Job) identity() string {
	return fmt.Sprintf("%+v|%T%+v|%s", j.Config, j.Method, j.Method, j.SamplerName)
}

// Options configure an Engine.
type Options struct {
	// Workers bounds the pool; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// NoMemo disables the config-hash result cache.
	NoMemo bool
}

// Engine executes job grids over a bounded worker pool. An Engine is
// safe for concurrent use and may be reused across Run calls; its memo
// cache persists for its lifetime.
type Engine struct {
	workers int
	memoize bool

	mu    sync.Mutex
	cache map[string]*outcome
}

type outcome struct {
	res *trainer.Result
	err error
}

// New builds an engine; see Options for defaults.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: w,
		memoize: !opts.NoMemo,
		cache:   make(map[string]*outcome),
	}
}

// Workers reports the resolved pool size.
func (e *Engine) Workers() int { return e.workers }

// JobResult pairs a job's identity with its simulation outcome.
type JobResult struct {
	Key     string          `json:"key"`
	Method  string          `json:"method"`
	Sampler string          `json:"sampler,omitempty"`
	Seed    int64           `json:"seed"`
	Cached  bool            `json:"cached"`
	Result  *trainer.Result `json:"result"`
}

// ResultSet holds one Run call's results, in submission order.
type ResultSet struct {
	// Workers is the pool size the grid ran on; Executed and CacheHits
	// split the jobs into freshly simulated vs memoized.
	Workers   int
	Executed  int
	CacheHits int

	results []JobResult
	byKey   map[string]*trainer.Result
}

// Results returns all job results in submission order.
func (rs *ResultSet) Results() []JobResult { return rs.results }

// Get returns the result for a job key, or nil if the key is unknown.
func (rs *ResultSet) Get(key string) *trainer.Result { return rs.byKey[key] }

// TokensPerSec returns the headline metric for one job key.
func (rs *ResultSet) TokensPerSec(key string) float64 {
	if r := rs.byKey[key]; r != nil {
		return r.TokensPerSec
	}
	return 0
}

// MeanTokensPerSec averages the headline metric over the given keys —
// the per-cell seed average every figure reports.
func (rs *ResultSet) MeanTokensPerSec(keys ...string) float64 {
	if len(keys) == 0 {
		return 0
	}
	var sum float64
	for _, k := range keys {
		sum += rs.TokensPerSec(k)
	}
	return sum / float64(len(keys))
}

// WriteJSON emits the result set as an indented JSON artifact.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	artifact := struct {
		Workers   int         `json:"workers"`
		Executed  int         `json:"executed"`
		CacheHits int         `json:"cache_hits"`
		Jobs      []JobResult `json:"jobs"`
	}{rs.Workers, rs.Executed, rs.CacheHits, rs.results}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(artifact)
}

// Run executes a grid of jobs and collects every result. All jobs run to
// completion even when some fail, so the outcome — including which error
// is reported — depends only on the grid, never on pool timing: the
// returned error is the failure with the lowest submission index,
// wrapped with its job key.
//
// Cancelling ctx stops the grid promptly: workers finish the job they
// are on, no further jobs start, and Run returns ctx.Err(). A cancelled
// run caches nothing visible — partial outcomes stay in the memo cache
// (they are deterministic and complete) but no ResultSet is returned.
func (e *Engine) Run(ctx context.Context, jobs []Job) (*ResultSet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if j.Key == "" {
			return nil, fmt.Errorf("runner: job %d has an empty key", i)
		}
		if _, dup := seen[j.Key]; dup {
			return nil, fmt.Errorf("runner: duplicate job key %q", j.Key)
		}
		seen[j.Key] = struct{}{}
		if j.Method == nil {
			return nil, fmt.Errorf("runner: job %q has no method", j.Key)
		}
		if j.Sample == nil {
			return nil, fmt.Errorf("runner: job %q has no sampler", j.Key)
		}
	}

	// Split the grid into leaders (first occurrence of a config hash not
	// already cached) and followers that reuse a leader's or the cache's
	// outcome. Jobs without a sampler identity always lead.
	outcomes := make([]*outcome, len(jobs))
	cached := make([]bool, len(jobs))
	var leaders []int
	leaderByIdentity := make(map[string]int)
	for i := range jobs {
		j := &jobs[i]
		if !e.memoize || j.SamplerName == "" {
			leaders = append(leaders, i)
			continue
		}
		id := j.identity()
		if _, ok := leaderByIdentity[id]; ok {
			cached[i] = true
			continue
		}
		e.mu.Lock()
		o, hit := e.cache[id]
		e.mu.Unlock()
		if hit {
			outcomes[i] = o
			cached[i] = true
			continue
		}
		leaderByIdentity[id] = i
		leaders = append(leaders, i)
	}

	// Fan the leaders across the pool. Workers re-check the context
	// between jobs so a cancellation mid-grid drains the queue without
	// starting new simulations.
	var wg sync.WaitGroup
	work := make(chan int)
	workers := min(e.workers, len(leaders))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					continue // drain without executing
				}
				outcomes[i] = e.execute(&jobs[i])
			}
		}()
	}
feed:
	for _, i := range leaders {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Resolve followers from their leader's outcome and assemble the
	// result set in submission order.
	rs := &ResultSet{
		Workers: e.workers,
		results: make([]JobResult, 0, len(jobs)),
		byKey:   make(map[string]*trainer.Result, len(jobs)),
	}
	var firstErr error
	for i := range jobs {
		j := &jobs[i]
		o := outcomes[i]
		if o == nil { // follower of an in-run leader
			o = outcomes[leaderByIdentity[j.identity()]]
			outcomes[i] = o
		}
		if o.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("runner: job %q: %w", j.Key, o.err)
			}
			continue
		}
		if cached[i] {
			rs.CacheHits++
		} else {
			rs.Executed++
		}
		rs.results = append(rs.results, JobResult{
			Key:     j.Key,
			Method:  j.Method.Name(),
			Sampler: j.SamplerName,
			Seed:    j.Config.Seed,
			Cached:  cached[i],
			Result:  o.res,
		})
		rs.byKey[j.Key] = o.res
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return rs, nil
}

// execute simulates one job and memoizes its outcome. Errors are cached
// too: a deterministic job fails the same way every time.
func (e *Engine) execute(j *Job) *outcome {
	batch := j.Config.Batch(j.Sample)
	res, err := trainer.Run(j.Config, j.Method, batch)
	o := &outcome{res: res, err: err}
	if e.memoize && j.SamplerName != "" {
		e.mu.Lock()
		e.cache[j.identity()] = o
		e.mu.Unlock()
	}
	return o
}

// ForEach runs fn(0..n-1) across a bounded pool and returns the failure
// with the lowest index, if any. It is the engine's escape hatch for
// deterministic fan-out that is not a trainer job — trace generation,
// dataset sampling — and like Run it never lets pool timing pick which
// error surfaces.
//
// Cancelling ctx stops the fan-out promptly — in-flight fn calls finish,
// no further indices start — and ForEach returns ctx.Err(); cancellation
// takes priority over any error fn returned, since the index set that
// actually ran is timing-dependent once the context fires.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					continue // drain without running
				}
				errs[i] = fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CacheSize reports how many distinct configurations the engine has
// memoized over its lifetime.
func (e *Engine) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// Keys returns the result set's job keys in submission order.
func (rs *ResultSet) Keys() []string {
	out := make([]string, len(rs.results))
	for i, r := range rs.results {
		out[i] = r.Key
	}
	return out
}
