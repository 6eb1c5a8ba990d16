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
// deterministic under cancellation. On cancellation or error the partial
// results are discarded (nil slice).
func RunCtx[R any](ctx context.Context, workers, n int, task func(ctx context.Context, i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := task(ctx, i)
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
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				r, err := task(ctx, i)
				if err != nil {
					fail(i, err)
					continue
				}
				out[i] = r
			}
		}()
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

// ForEachCtx is RunCtx for tasks with no result value.
func ForEachCtx(ctx context.Context, workers, n int, task func(ctx context.Context, i int) error) error {
	_, err := RunCtx(ctx, workers, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, task(ctx, i)
	})
	return err
}
