package join_test

import (
	"reflect"
	"runtime"
	"testing"

	"ccf/internal/join"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/trackjoin"
)

// TestExecuteIsWorkerCountInvariant: Execute splits the hot keys off, builds
// the matrix, routes and joins node by node on GOMAXPROCS workers, and its
// Result — cardinality, traffic, times, hot keys, placement — is the one the
// pool's serial path gives, for the plain hash join, partial duplication and
// per-key track join. `go test -cpu 1,2,8` adds the counts the run was
// started with.
func TestExecuteIsWorkerCountInvariant(t *testing.T) {
	const n = 6
	cust, ords := join.GenerateRelations(join.GenConfig{Customers: 300, OrdersPerCust: 10, PayloadBytes: 100, Seed: 5})
	hotCust, hotOrds := join.GenerateRelations(join.GenConfig{Customers: 300, OrdersPerCust: 10, PayloadBytes: 100, Seed: 5, SkewFrac: 0.2})
	load := func(l, r *join.Relation) *join.Cluster {
		cl := join.NewCluster(n, partition.ModPartitioner{NumPartitions: 15 * n})
		cl.LoadByPlacement(true, l, join.ZipfPlacer(n, 0.8, 6))
		cl.LoadByPlacement(false, r, join.ZipfPlacer(n, 0.8, 7))
		return cl
	}
	perKey, _, err := trackjoin.BuildCluster(n, cust, ords, join.ZipfPlacer(n, 0.8, 6))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		cluster   *join.Cluster
		threshold float64
	}{{"uniform", load(cust, ords), 0}, {"skewed", load(hotCust, hotOrds), 0.05}, {"per-key", perKey, 0}}
	placers := []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}}
	run := func() (out []*join.Result) {
		for _, c := range cases {
			for _, s := range placers {
				res, err := join.Execute(c.cluster, join.Options{Scheduler: s, SkewThreshold: c.threshold})
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
	if len(want[3].SkewedKeys) == 0 {
		t.Error("the skewed case found no hot key")
	}
	for _, workers := range []int{2, 8, started} {
		runtime.GOMAXPROCS(workers)
		for i, got := range run() {
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%d workers, %s under %s: result %+v, the serial run's %+v",
					workers, cases[i/len(placers)].name, placers[i%len(placers)].Name(), got, want[i])
			}
		}
	}
}
