// Package parallel is the bounded worker pool behind every sweep-style loop
// in the repository: the ccfbench figure experiments, the chaos harness, the
// telemetry and recovery comparisons, and the equivalence suites all iterate
// independent (seed, scheduler, x-point) tasks, and this package runs them
// over N workers while keeping the *output* exactly what the serial loop
// produced.
//
// Determinism contract: results are aggregated by input index, never by
// completion order. Run returns out[i] = task(i) in a slice indexed like the
// input, so a caller that folds the slice front-to-back performs the same
// float additions, the same appends, and emits the same table rows and CSV
// lines as the serial loop — regardless of how the OS scheduler interleaved
// the workers. With workers <= 1 no goroutines are spawned at all: the tasks
// run inline, in index order, on the caller's goroutine, which is the
// byte-identical serial escape hatch (`ccfbench -workers 1`).
//
// Tasks must be independent: anything a task mutates must be task-local.
package parallel

import (
	"context"
	"runtime"
)

// Resolve maps a workers knob to an effective worker count: values <= 0
// select runtime.GOMAXPROCS(0) (one worker per available core).
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run executes task(0..n-1) over at most `workers` concurrent goroutines and
// returns the results indexed by input position. workers <= 0 resolves to
// GOMAXPROCS; workers <= 1 (after resolution the pool is still clamped to n)
// runs serially inline.
//
// Error semantics: the serial path stops at the first failing index, exactly
// like the loop it replaces. The parallel path stops handing out new indices
// once any task fails, lets in-flight tasks finish, and returns the error
// with the *lowest* input index among those that ran — so a failure that is
// deterministic in the input maps to a deterministic error. On error the
// partial results are discarded (nil slice).
func Run[R any](workers, n int, task func(i int) (R, error)) ([]R, error) {
	return RunCtx(context.Background(), workers, n,
		func(_ context.Context, i int) (R, error) { return task(i) })
}

// ForEach is Run for tasks with no result value.
func ForEach(workers, n int, task func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n,
		func(_ context.Context, i int) error { return task(i) })
}
