package parallel

// The pool itself. Run is RunCtx under context.Background(); the daemon
// (internal/service) runs its sweeps — restoring shards, draining queues,
// forcing snapshots — under per-request deadlines, and a deadline must be
// able to abort the sweep mid-flight: stop handing out new indices, let
// in-flight tasks observe the cancellation through their own ctx, and return
// once every worker has parked. Cancellation never leaks goroutines: the
// workers are joined before the call returns, which the package tests pin
// with a goroutine count.

import (
	"context"
	"sync"
)

// RunCtx is Run with cooperative cancellation: once ctx is done, no new
// indices are handed out and RunCtx returns ctx.Err() after in-flight tasks
// return (each task receives ctx and should abort promptly on its own).
// Error precedence matches Run — a task error at the lowest failing index
// wins over the cancellation error, so deterministic task failures stay
// deterministic under cancellation.
func RunCtx[R any](ctx context.Context, workers, n int, task func(ctx context.Context, i int) (R, error)) ([]R, error) {
	return RunWithStateCtx(ctx, workers, n,
		func(int) struct{} { return struct{}{} },
		func(ctx context.Context, _ struct{}, i int) (R, error) { return task(ctx, i) })
}

// ForEachCtx is RunCtx for tasks with no result value.
func ForEachCtx(ctx context.Context, workers, n int, task func(ctx context.Context, i int) error) error {
	_, err := RunCtx(ctx, workers, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, task(ctx, i)
	})
	return err
}

// RunWithStateCtx is RunCtx with per-worker state: newState(w) is called once
// for each of the workers actually started (w in [0, workers)), and every
// task a worker draws receives that worker's state. On the serial path
// newState(0) is called once and every task shares it — the same aliasing a
// serial loop with hoisted locals has. On cancellation or error the partial
// results are discarded (nil slice).
func RunWithStateCtx[S, R any](ctx context.Context, workers, n int,
	newState func(worker int) S, task func(ctx context.Context, state S, i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		state := newState(0)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := task(ctx, state, i)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	var (
		mu     sync.Mutex
		next   int // next unclaimed index
		errIdx = n // lowest failing index so far
		outErr error
		wg     sync.WaitGroup
	)
	// claim hands out indices in order; after a failure or cancellation it
	// returns -1 so workers drain instead of starting work whose output
	// would be thrown away anyway.
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if outErr != nil || next >= n || ctx.Err() != nil {
			return -1
		}
		i := next
		next++
		return i
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if outErr == nil || i < errIdx {
			errIdx, outErr = i, err
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := newState(w)
			for {
				i := claim()
				if i < 0 {
					return
				}
				r, err := task(ctx, state, i)
				if err != nil {
					fail(i, err)
					continue
				}
				out[i] = r
			}
		}(w)
	}
	wg.Wait()
	if outErr != nil {
		return nil, outErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
