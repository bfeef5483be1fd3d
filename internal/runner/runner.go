// Package runner fans deterministic work across a bounded worker pool.
// The paper's evaluation grids, the campaign grids, the tuner's
// generations and the Fig. 15 sweep all run through ForEach: each index
// writes only its own result slot and every simulation draws from its
// own seeded RNG (trainer.Config.Seed), so results are bit-identical
// whether a grid runs on one worker or on runtime.GOMAXPROCS workers.
package runner

import (
	"context"
	"runtime"
	"sync"
)

// ForEach runs fn(0..n-1) across a bounded pool and returns the failure
// with the lowest index, if any. Every index runs even when some fail,
// so which error surfaces depends only on the inputs, never on pool
// timing. workers <= 0 selects runtime.GOMAXPROCS(0).
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
