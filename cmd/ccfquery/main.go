// ccfquery executes an analytical plan — written in the textual plan
// language of internal/query — over a synthetic distributed cluster, once
// per placement scheduler, and reports per-stage network metrics. It is the
// multi-operator face of the framework (paper Figure 3): every keyed
// operator's shuffle is one co-optimized coflow.
//
// Tables L and R are generated with uniform keys and zipf-biased node
// locality; |R| = 3 × |L|.
//
// Usage:
//
//	ccfquery -plan 'aggregate(join(L, R), partial)' -nodes 16
//	ccfquery -plan 'distinct(aggregate(rekeydiv(join(L, R), 20), partial))' -rows 50000
//	ccfquery -plan 'rekeymod(L, 7)' -placers hash,ccf
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"

	"ccf/internal/placement"
	"ccf/internal/query"
)

func main() {
	var (
		planSrc = flag.String("plan", "aggregate(join(L, R), partial)", "plan in the textual plan language")
		nodes   = flag.Int("nodes", 16, "cluster width")
		rows    = flag.Int("rows", 20_000, "rows in table L (R gets 3x)")
		keys    = flag.Int("keys", 1000, "distinct key space")
		placers = flag.String("placers", "hash,mini,ccf", "comma-separated placement schedulers: "+placement.Names())
		seed    = flag.Int64("seed", 1, "data seed")
		verify  = flag.Bool("verify", true, "check the distributed result against a single-node reference")
	)
	flag.Parse()
	plan, scheds, err := parseFlags(*planSrc, *nodes, *rows, *keys, *placers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccfquery:", err)
		os.Exit(2)
	}
	if err := run(plan, *nodes, *rows, *keys, scheds, *seed, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "ccfquery:", err)
		os.Exit(1)
	}
}

// parseFlags rejects the flag values the table builder cannot take, parses
// the plan and checks that it reads only tables L and R, and resolves the
// placer list through the placer table.
func parseFlags(planSrc string, nodes, rows, keys int, placers string) (query.Node, []placement.Scheduler, error) {
	switch {
	case nodes < 1:
		return nil, nil, fmt.Errorf("-nodes must be positive, got %d", nodes)
	case rows < 0:
		return nil, nil, fmt.Errorf("-rows must be non-negative, got %d", rows)
	case keys < 1:
		return nil, nil, fmt.Errorf("-keys must be positive, got %d", keys)
	}
	plan, err := query.ParsePlan(planSrc)
	if err != nil {
		return nil, nil, err
	}
	// The reference evaluation over empty tables fails exactly where the
	// plan names a table other than L and R.
	if _, err := query.Reference(plan, map[string][]query.Row{"L": nil, "R": nil}); err != nil {
		return nil, nil, err
	}
	var scheds []placement.Scheduler
	for _, name := range strings.Split(placers, ",") {
		p, err := placement.ByName(strings.TrimSpace(strings.ToLower(name)))
		if err != nil {
			return nil, nil, err
		}
		scheds = append(scheds, p.Scheduler)
	}
	return plan, scheds, nil
}

func buildTables(n, rows, keySpace int, seed int64) (*query.Table, *query.Table) {
	rng := rand.New(rand.NewSource(seed))
	biased := func() int {
		node := 0
		for rng.Float64() > 0.45 && node < n-1 {
			node++
		}
		return node
	}
	l := query.NewTable("L", n, 1000)
	r := query.NewTable("R", n, 1000)
	for i := 0; i < rows; i++ {
		node := biased()
		l.Frags[node] = append(l.Frags[node],
			query.Row{Key: int64(rng.Intn(keySpace) + 1), Value: int64(rng.Intn(100))})
	}
	for i := 0; i < 3*rows; i++ {
		node := biased()
		r.Frags[node] = append(r.Frags[node],
			query.Row{Key: int64(rng.Intn(keySpace) + 1), Value: int64(rng.Intn(100))})
	}
	return l, r
}

func run(plan query.Node, nodes, rows, keySpace int, scheds []placement.Scheduler, seed int64, verify bool) error {
	fmt.Printf("plan: %s\n", query.FormatPlan(plan))
	fmt.Printf("cluster: %d nodes; L has %d rows, R has %d, keys 1..%d\n\n", nodes, rows, 3*rows, keySpace)

	var reference []query.Row
	var mismatched []string
	for _, s := range scheds {
		l, r := buildTables(nodes, rows, keySpace, seed)
		if verify && reference == nil {
			want, err := query.Reference(plan, map[string][]query.Row{"L": l.Gather(), "R": r.Gather()})
			if err != nil {
				return err
			}
			reference = query.SortRows(want)
		}
		exec, err := query.NewExecutor(query.Config{Nodes: nodes, Scheduler: s}, l, r)
		if err != nil {
			return err
		}
		res, err := exec.Execute(plan)
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n", s.Name())
		for _, st := range res.Stages {
			fmt.Printf("  %-20s rows %8d -> %8d   traffic %8.1f MB   bottleneck %8.1f MB   %8.3f s\n",
				st.Operator, st.RowsIn, st.RowsOut,
				float64(st.TrafficBytes)/1e6, float64(st.BottleneckBytes)/1e6, st.TimeSec)
		}
		line := fmt.Sprintf("  total network time %.3f s, traffic %.1f MB, output %d rows",
			res.TotalTimeSec, float64(res.TotalTrafficBytes)/1e6, res.Output.Rows())
		if verify {
			if reflect.DeepEqual(res.Output.Gather(), reference) {
				line += " — verified"
			} else {
				line += " — RESULT MISMATCH"
				mismatched = append(mismatched, s.Name())
			}
		}
		fmt.Println(line)
		fmt.Println()
	}
	if mismatched != nil {
		return fmt.Errorf("result mismatch under %s", strings.Join(mismatched, ", "))
	}
	return nil
}
