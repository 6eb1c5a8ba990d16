package tpch

// Frozen digests of the four plans under Hash, Mini and CCF on four table
// sets: the sorted output rows and every stage report, flow volumes included.
// testdata/frozen_plans.json was recorded at the parent of PR 20, when
// query's shuffle placed, evaluated and simulated on its own, and is not
// meant to be re-recorded: a different digest means a row, a byte count or a
// time moved in some bit.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"ccf/internal/placement"
	"ccf/internal/query"
)

func digestQuery(r *query.Result) string {
	h := fnv.New64a()
	word := func(v int64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, row := range r.Output.Gather() {
		word(row.Key)
		word(row.Value)
	}
	for _, st := range r.Stages {
		h.Write([]byte(st.Operator))
		word(st.TrafficBytes)
		word(st.BottleneckBytes)
		word(int64(math.Float64bits(st.TimeSec)))
		word(st.RowsIn)
		word(st.RowsOut)
		for _, v := range st.FlowVolumes {
			word(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestFrozenPlans(t *testing.T) {
	plans := []struct {
		name string
		plan query.Node
	}{
		{"revenue_per_customer", RevenuePerCustomer()},
		{"revenue_per_nation", RevenuePerNation()},
		{"orders_per_customer", OrdersPerCustomer()},
		{"distinct_nations", DistinctNations()},
	}
	got := map[string]string{}
	// Odd seeds: Generate seeds with Seed|1, so 2k and 2k+1 draw one table set.
	for _, seed := range []uint64{1, 3, 5, 7} {
		tables, err := Generate(Config{Nodes: 6, Customers: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}} {
			ex, err := tables.NewExecutor(query.Config{Nodes: 6, Scheduler: s})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range plans {
				res, err := ex.Execute(p.plan)
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("seed%d/%s/%s", seed, p.name, s.Name())] = digestQuery(res)
			}
		}
	}

	const path = "testdata/frozen_plans.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, %d recorded", len(got), len(want))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, recorded %s", name, d, want[name])
		}
	}
}
