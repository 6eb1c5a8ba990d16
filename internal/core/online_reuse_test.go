package core

// Buffer ownership on the decide path. The daemon builds every job's workload
// in one shard-owned workload.Generator and the engine builds the skew plan,
// the placer's initial loads and the flow volumes in storage it keeps from job
// to job. That is only sound if (a) the engine reads nothing of a job's
// workload after Submit returns, (b) nothing a job left in the engine's
// buffers reaches the next decision, and (c) what a decision hands out —
// Placement.Dest and Backlog, which the HTTP goroutine encodes after the shard
// has moved on — is never one of those buffers.

import (
	"fmt"
	"reflect"
	"testing"

	"ccf/internal/workload"
)

func scribble(bufs ...[]int64) {
	for _, b := range bufs {
		for i := range b {
			b[i] = -1
		}
	}
}

func TestEngineKeepsNothingOfAJob(t *testing.T) {
	const n, jobs = 8, 48
	cfgAt := func(i int) workload.Config {
		cfg := workload.Config{
			Nodes: n, Partitions: n * (1 + i%3), // the matrix, and with it every reused buffer, changes size
			CustomerTuples: 2_000, OrderTuples: 20_000, PayloadBytes: 1000,
			Zipf: 0.8, Seed: uint64(100 + i), JitterFrac: 0.05,
		}
		if i%4 != 1 { // every fourth job has no hot key and skips the plan
			cfg.Skew = 0.3
		}
		return cfg
	}
	jobAt := func(i int, w *workload.Workload) OnlineJob {
		// ≈ 22 MB per job at 128 MB/s per port, 10 ms apart: a standing backlog.
		return OnlineJob{Name: fmt.Sprintf("job%d", i), Arrival: 0.01 * float64(i), Workload: w, HandleSkew: i%5 != 2}
	}

	fresh, err := NewOnlineEngine(n, OnlineOptions{CoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	reused, err := NewOnlineEngine(n, OnlineOptions{CoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	var gen workload.Generator
	var want, got []*OnlineDecision
	backlogged := 0
	for i := 0; i < jobs; i++ {
		w, err := workload.Generate(cfgAt(i))
		if err != nil {
			t.Fatal(err)
		}
		d, err := fresh.Submit(jobAt(i, w))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
		if fresh.ResidentCoflows() > 2 {
			backlogged++
		}

		if w, err = gen.Generate(cfgAt(i)); err != nil {
			t.Fatal(err)
		}
		if d, err = reused.Submit(jobAt(i, w)); err != nil {
			t.Fatal(err)
		}
		got = append(got, d)
		// The job's matrix and everything the engine built from it: nothing
		// below may be read again.
		scribble(w.Chunks.H, w.SkewBytesPerNode,
			reused.egB, reused.inB, reused.initial.Egress, reused.initial.Ingress, reused.vol,
			reused.plan.BroadcastVolumes)
		if reused.plan.Adjusted != nil {
			scribble(reused.plan.Adjusted.H, reused.plan.Initial.Egress, reused.plan.Initial.Ingress)
		}
		if a, b := fresh.StateDigest(), reused.StateDigest(); a != b {
			t.Fatalf("after job %d: digest %016x with reused buffers, %016x with fresh ones", i, b, a)
		}
	}
	if backlogged < jobs/2 {
		t.Fatalf("only %d of %d jobs saw a backlog; the stream is too sparse to test anything", backlogged, jobs)
	}
	// Compared at the end, not as they were made: a Dest or Backlog aliasing an
	// engine buffer would have been scribbled over or rewritten by now.
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("job %d: decision %+v with reused buffers, %+v with fresh ones", i, got[i], want[i])
		}
	}
	a, err := fresh.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b, err := reused.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reports differ: %+v with reused buffers, %+v with fresh ones", b, a)
	}
}
