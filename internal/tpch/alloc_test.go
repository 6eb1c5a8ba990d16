package tpch

import (
	"testing"

	"ccf/internal/placement"
	"ccf/internal/query"
)

// TestExecuteAllocationBudget bounds the bytes one RevenuePerCustomer
// execution allocates at the query_join benchmark's shape (12 nodes, 4 000
// customers, CCF). The count repeats run to run, so unlike a timing it
// cannot flake. A tagged copy of the join's inputs, or a combiner that sorts
// and clones its groups, puts the figure above 27 MB.
func TestExecuteAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const maxBytes = 22e6
	tables, err := Generate(Config{Nodes: 12, Customers: 4000, PayloadBytes: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := tables.NewExecutor(query.Config{Nodes: 12, Scheduler: placement.CCF{}})
	if err != nil {
		t.Fatal(err)
	}
	plan := RevenuePerCustomer()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Execute(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > maxBytes {
		t.Errorf("RevenuePerCustomer allocates %.1f MB per Execute, budget %.1f MB", float64(got)/1e6, float64(maxBytes)/1e6)
	} else {
		t.Logf("RevenuePerCustomer allocates %.1f MB per Execute (budget %.1f MB)", float64(got)/1e6, float64(maxBytes)/1e6)
	}
}
