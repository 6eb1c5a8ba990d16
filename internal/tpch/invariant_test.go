package tpch

import (
	"reflect"
	"runtime"
	"testing"

	"ccf/internal/placement"
	"ccf/internal/query"
)

// TestExecuteIsWorkerCountInvariant: the operators and the exchange run their
// per-node phases on GOMAXPROCS workers, and what they return does not depend
// on how many — fragment for fragment and row for row (the frozen digests
// hash sorted rows, so they would miss a slip inside a fragment), every stage
// report with its flow volumes. The recording is made on the pool's serial
// path; `go test -cpu 1,2,8` adds the counts the run was started with.
func TestExecuteIsWorkerCountInvariant(t *testing.T) {
	tables, err := Generate(Config{Nodes: 6, Customers: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plans := []query.Node{RevenuePerCustomer(), RevenuePerNation(), OrdersPerCustomer(), DistinctNations()}
	run := func() (out []*query.Result) {
		for _, s := range []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}} {
			ex, err := tables.NewExecutor(query.Config{Nodes: 6, Scheduler: s})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range plans {
				res, err := ex.Execute(p)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
		}
		return out
	}
	started := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(started)
	want := run()
	for _, workers := range []int{2, 8, started} {
		runtime.GOMAXPROCS(workers)
		for i, got := range run() {
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%d workers: result %d (placer %d, plan %d) differs from the serial run's", workers, i, i/len(plans), i%len(plans))
			}
		}
	}
}
