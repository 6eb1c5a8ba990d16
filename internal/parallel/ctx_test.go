package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCtxCompletesWithoutCancellation(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		out, err := RunCtx(context.Background(), workers, 20, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunCtxCancellationReturnsPromptly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		done := make(chan error, 1)
		go func() {
			_, err := RunCtx(ctx, workers, 1000, func(ctx context.Context, i int) (int, error) {
				started.Add(1)
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(10 * time.Second):
					return i, nil
				}
			})
			done <- err
		}()
		for started.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: RunCtx did not return after cancellation", workers)
		}
		if n := started.Load(); int(n) > workers+1 {
			t.Errorf("workers=%d: %d tasks started after cancel, want <= %d in flight", workers, n, workers+1)
		}
	}
}

func TestRunCtxLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Millisecond)
			cancel()
		}()
		_, _ = RunCtx(ctx, 8, 500, func(ctx context.Context, i int) (int, error) {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(100 * time.Microsecond):
				return i, nil
			}
		})
		cancel()
	}
	// The workers are joined before RunCtx returns, so the count must settle
	// back to the baseline (allow slack for runtime background goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunCtxTaskErrorBeatsCancellation(t *testing.T) {
	boom := fmt.Errorf("boom at 3")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunCtx(ctx, 2, 10, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			cancel() // cancellation and failure race; the task error must win
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want task error %v", err, boom)
	}
}

func TestForEachCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := ForEachCtx(ctx, 4, 100, func(ctx context.Context, i int) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
			return nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("ForEachCtx took %v after a 20ms deadline", elapsed)
	}
}
