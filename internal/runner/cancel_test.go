package runner

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunStopsMidGridOnCancel: cancelling while the grid is in flight
// stops the remaining jobs — the executed count stays well below the
// grid size — and ForEach reports the context error.
func TestRunStopsMidGridOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	const n = 64
	err := ForEach(ctx, 1, n, func(i int) error {
		if ran.Add(1) == 2 {
			cancel() // fires after the second body; the rest must drain
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEach error = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("cancellation did not stop the fan-out: ran %d of %d", got, n)
	}
}

// TestForEachCancelledBeforeStart returns the context error without
// running any body.
func TestForEachCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEach(ctx, 4, 8, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-cancelled ForEach ran %d bodies", ran.Load())
	}
}

// TestCancelledRunLeaksNoWorkers: after a cancelled grid the pool's
// goroutines must drain back to the pre-run baseline.
func TestCancelledRunLeaksNoWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		_ = ForEach(ctx, 8, 256, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			time.Sleep(100 * time.Microsecond)
			return nil
		})
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancelled runs: before=%d now=%d", before, runtime.NumGoroutine())
}
