package service

// The decide path on a shard: materialize (generate the matrix) plus
// Batch.Submit (skew plan, backlog probe, CCF placement, flow volumes, coflow,
// admit). The 480 KB matrix, its skew-adjusted copy and the n×n volumes live
// in storage the shard and the engine reuse from job to job; what a decision
// hands out is its own. Two tests: the allocation budget that reuse buys, and
// concurrent clients reading their decisions while the shard decides on.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ccf/internal/core"
	"ccf/internal/workload"
)

// TestDecidePathAllocationBudget is a regression gate built from counts that
// repeat exactly, so it cannot flake the way a timing can. In steady state
// what is left per job is what a decision must own: the placement, the
// backlog it saw, the coflow and its flows, and CCF's working arrays.
func TestDecidePathAllocationBudget(t *testing.T) {
	const (
		nodes, partitions = 64, 960 // the serve_backlog shape
		warmup, window    = 40, 40
		maxObjects        = 64
		maxBytes          = 160 << 10
	)
	eng, err := core.NewOnlineEngine(nodes, core.OnlineOptions{CoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	var jobs jobStore
	specs := make([]JobSpec, warmup+3*window)
	for i := range specs {
		// ≈ 220 MB per job, 0.1 s apart, on 128 MB/s ports: a standing backlog
		// of about a dozen coflows, as in the benchmark.
		arrival := 0.1 * float64(i)
		specs[i] = JobSpec{
			Name: fmt.Sprintf("job-%03d", i), Arrival: &arrival, HandleSkew: true,
			Gen: &workload.Config{
				Nodes: nodes, Partitions: partitions, CustomerTuples: 20_000, OrderTuples: 200_000, PayloadBytes: 1000,
				Zipf: workload.DefaultZipf, Skew: workload.DefaultSkew, Seed: uint64(i), JitterFrac: 0.05,
			},
		}
	}
	decide := func(spec *JobSpec) {
		job, err := materialize(spec, nodes, &jobs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		decide(&specs[i])
	}
	if live := eng.ResidentCoflows(); live < 4 {
		t.Fatalf("%d coflows resident after warm-up: no standing backlog", live)
	}

	// Counts can only be inflated by something else allocating in the process
	// (the runtime, a goroutine an earlier test left behind), never deflated:
	// the smallest of three windows is the path's own.
	objects, bytes := math.Inf(1), math.Inf(1)
	var before, after runtime.MemStats
	for w := 0; w < 3; w++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < window; i++ {
			decide(&specs[warmup+w*window+i])
		}
		runtime.ReadMemStats(&after)
		objects = min(objects, float64(after.Mallocs-before.Mallocs)/window)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/window)
	}
	t.Logf("per job: %.1f objects, %.1f KB", objects, bytes/1024)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("one decision allocates %.1f objects and %.1f KB, budget is %d objects and %d KB",
			objects, bytes/1024, maxObjects, maxBytes>>10)
	}
}

// TestConcurrentClientsOwnTheirDecisions: four clients submit skewed jobs to
// one shard and keep every decision until the end, while the shard goes on
// generating into its one matrix and deciding in the engine's reused buffers.
// Replayed one at a time, in journal order, through a fresh pool, the stream
// must give the placements and backlogs the clients hold — and under -race a
// decision that aliased shard-owned storage is a reported race, not a silent
// overwrite.
func TestConcurrentClientsOwnTheirDecisions(t *testing.T) {
	const nodes, clients, perClient = 8, 4, 24
	cfg := Config{Shards: 1, Nodes: nodes, QueueDepth: 64, BatchMax: 8, DegradeAfter: -1,
		Engine: EngineConfig{CoOptimize: true, NetworkScheduler: "varys"}}
	spec := func(c, j int) JobSpec {
		return JobSpec{
			Name: fmt.Sprintf("c%d-j%02d", c, j), Key: "k", HandleSkew: true,
			Gen: &workload.Config{
				Nodes: nodes, Partitions: nodes * (1 + j%3), CustomerTuples: 2_000, OrderTuples: 20_000, PayloadBytes: 1000,
				Zipf: 0.8, Skew: 0.3 * float64(j%2), Seed: uint64(100*c + j), JitterFrac: 0.05,
			},
		}
	}
	type held struct {
		spec JobSpec
		dec  *Decision
	}
	live := startPool(t, cfg)
	got := make([][]held, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				s := spec(c, j)
				dec, err := live.Submit(context.Background(), s) // arrival "now": lifted to the shard clock
				if err != nil {
					t.Errorf("client %d job %d: %v", c, j, err)
					return
				}
				got[c] = append(got[c], held{s, dec})
			}
		}(c)
	}
	wg.Wait()
	if err := live.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	all := slices.Concat(got...)
	slices.SortFunc(all, func(a, b held) int { return int(a.dec.Seq) - int(b.dec.Seq) })
	replay := startPool(t, cfg)
	backlogged := 0
	for _, h := range all {
		h.spec.Arrival = &h.dec.Arrival
		want, err := replay.Submit(context.Background(), h.spec)
		if err != nil {
			t.Fatal(err)
		}
		if want.Seq != h.dec.Seq || !slices.Equal(want.Placement, h.dec.Placement) ||
			!slices.Equal(want.BacklogEgress, h.dec.BacklogEgress) || !slices.Equal(want.BacklogIngress, h.dec.BacklogIngress) ||
			want.Completed != h.dec.Completed {
			t.Fatalf("%s (seq %d): the client holds %+v, a sequential replay decides %+v", h.spec.Name, h.dec.Seq, h.dec, want)
		}
		if len(h.dec.BacklogEgress) > 0 {
			backlogged++
		}
	}
	if backlogged < len(all)/2 {
		t.Errorf("only %d of %d decisions saw a backlog", backlogged, len(all))
	}
	if err := replay.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
