package parallel_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccf/internal/parallel"
)

// TestRunAggregatesInInputOrder is the determinism pin for every sweep that
// rides the pool: tasks are given adversarial sleeps (later indices finish
// first by construction), and the output must still be indexed by *input*
// position. A pool that appended results in completion order would reverse
// the slice here.
func TestRunAggregatesInInputOrder(t *testing.T) {
	const n = 16
	for _, workers := range []int{1, 2, 3, 7, 16, 32} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var completions []int
			var mu sync.Mutex
			out, err := parallel.Run(workers, n, func(i int) (int, error) {
				// Earlier indices sleep longer, so completion order is
				// (roughly, and with workers>=n exactly) reversed.
				time.Sleep(time.Duration(n-i) * 2 * time.Millisecond)
				mu.Lock()
				completions = append(completions, i)
				mu.Unlock()
				return i * 10, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*10 {
					t.Fatalf("out[%d] = %d, want %d (completion order %v leaked into aggregation)",
						i, v, i*10, completions)
				}
			}
			if workers >= n {
				// Sanity-check the adversarial schedule actually inverted
				// completion order, so the assertion above has teeth.
				if completions[0] != n-1 {
					t.Logf("note: completion order not fully inverted: %v", completions)
				}
			}
		})
	}
}

// TestRunSerialPathRunsInline pins that workers <= 1 spawns no goroutines:
// every task must run on the caller's goroutine, in index order.
func TestRunSerialPathRunsInline(t *testing.T) {
	var order []int
	_, err := parallel.Run(1, 5, func(i int) (struct{}, error) {
		order = append(order, i) // unsynchronized: safe only if inline
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path ran out of order: %v", order)
		}
	}
}

// TestRunBoundsConcurrency checks the pool never runs more than `workers`
// tasks at once.
func TestRunBoundsConcurrency(t *testing.T) {
	const n, workers = 64, 3
	var cur, peak atomic.Int64
	_, err := parallel.Run(workers, n, func(i int) (struct{}, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", p, workers)
	}
}

// TestRunLowestIndexErrorWins pins the deterministic error rule: among the
// tasks that ran and failed, the lowest input index's error is returned.
func TestRunLowestIndexErrorWins(t *testing.T) {
	errs := make([]error, 8)
	for i := range errs {
		errs[i] = fmt.Errorf("task %d failed", i)
	}
	for _, workers := range []int{1, 2, 8} {
		out, err := parallel.Run(workers, 8, func(i int) (int, error) {
			if i >= 2 { // indices 2..7 all fail; 2 must win
				// Invert completion order so a completion-order pool would
				// report a high index.
				time.Sleep(time.Duration(8-i) * 2 * time.Millisecond)
				return 0, errs[i]
			}
			return i, nil
		})
		if out != nil {
			t.Fatalf("workers=%d: partial results not discarded on error", workers)
		}
		if !errors.Is(err, errs[2]) {
			t.Fatalf("workers=%d: got error %v, want %v", workers, err, errs[2])
		}
	}
}

// TestRunStopsClaimingAfterError checks a failure stops new work: with one
// worker-equivalent serial semantics that is "stop at first error", and the
// parallel pool must not start every remaining task either.
func TestRunStopsClaimingAfterError(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := parallel.Run(2, 1000, func(i int) (struct{}, error) {
		started.Add(1)
		if i == 0 {
			return struct{}{}, boom
		}
		time.Sleep(time.Millisecond)
		return struct{}{}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if s := started.Load(); s > 100 {
		t.Fatalf("%d tasks started after the first failed; pool did not stop claiming", s)
	}
}

func TestResolve(t *testing.T) {
	if got := parallel.Resolve(3); got != 3 {
		t.Fatalf("Resolve(3) = %d", got)
	}
	if got := parallel.Resolve(0); got < 1 {
		t.Fatalf("Resolve(0) = %d, want >= 1", got)
	}
	if got := parallel.Resolve(-5); got != parallel.Resolve(0) {
		t.Fatalf("Resolve(-5) = %d, want GOMAXPROCS", got)
	}
}
