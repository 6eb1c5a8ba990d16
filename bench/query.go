package main

// query_join: the tuple-level stack on 12 nodes. Per round, for each of
// several table seeds: the four TPC-H plans under Hash, Mini and CCF through
// query.Executor.Execute, and the CUSTOMER ⋈ ORDERS join uniform, skewed
// (partial duplication on) and per-key (track join) under the same three
// placers. Every output is checked against the single-node reference.

import (
	"fmt"
	"slices"
	"time"

	"ccf/internal/join"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/query"
	"ccf/internal/tpch"
	"ccf/internal/trackjoin"
)

// queryConfig sizes the workload: tableSeeds × 21 ops per round.
type queryConfig struct {
	nodes      int
	tableSeeds int
	customers  int64 // per generated table set and per join relation pair
	// loads is how many times a round loads every table set; setup_s is
	// their sum, because one load is under a tenth of a second.
	loads int
}

func queryJoin() queryConfig {
	return queryConfig{nodes: 12, tableSeeds: 6, customers: 4000, loads: 8}
}

var (
	queryPlacers = []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}}
	queryPlans   = []struct {
		name string
		plan query.Node
	}{
		{"revenue_per_customer", tpch.RevenuePerCustomer()},
		{"revenue_per_nation", tpch.RevenuePerNation()},
		{"orders_per_customer", tpch.OrdersPerCustomer()},
		{"distinct_nations", tpch.DistinctNations()},
	}
	joinKinds = []string{"uniform", "skewed", "trackjoin"}
)

// skewThreshold turns partial duplication on for the skewed join: the hot
// key holds a fifth of ORDERS.
const skewThreshold = 0.05

type queryWorkload struct {
	cfg  queryConfig
	seed uint64
	// References per table seed, computed once on a single node.
	wantRows [][][]query.Row // [seed][plan] sorted
	wantJoin [][]int64       // [seed][uniform, skewed] cardinality
}

func newQuery(cfg queryConfig) *queryWorkload { return &queryWorkload{cfg: cfg} }

func (w *queryWorkload) tracks() []string { return []string{"query"} }

func (w *queryWorkload) tableSeed(j int) uint64 { return w.seed*1000 + uint64(j) + 1 }

// tpchConfig is table set j of the fixed instance family: the plans that
// group by nation aggregate 4000 customers into 25 keys, and their simulated
// times move by 2 % from one draw of the tables to the next, which would be
// the resolution of sim_avg_cct_s. The run's seed draws the join relations
// and every placement of tuples on nodes instead.
func (w *queryWorkload) tpchConfig(j int) tpch.Config {
	return tpch.Config{Nodes: w.cfg.nodes, Customers: w.cfg.customers, PayloadBytes: 500, Seed: uint64(j) + 1}
}

func (w *queryWorkload) joinConfig(j int, skewed bool) join.GenConfig {
	c := join.GenConfig{Customers: w.cfg.customers, OrdersPerCust: 10, PayloadBytes: 1000, Seed: w.tableSeed(j)}
	if skewed {
		c.SkewFrac = 0.2
	}
	return c
}

// prepare computes the single-node references the rounds are checked against.
func (w *queryWorkload) prepare(seed uint64) error {
	w.seed = seed
	for j := 0; j < w.cfg.tableSeeds; j++ {
		tables, err := tpch.Generate(w.tpchConfig(j))
		if err != nil {
			return err
		}
		var rows [][]query.Row
		for _, q := range queryPlans {
			want, err := tables.Reference(q.plan)
			if err != nil {
				return err
			}
			rows = append(rows, query.SortRows(want))
		}
		w.wantRows = append(w.wantRows, rows)
		cu, ou := join.GenerateRelations(w.joinConfig(j, false))
		cs, ords := join.GenerateRelations(w.joinConfig(j, true))
		w.wantJoin = append(w.wantJoin, []int64{join.Reference(cu, ou), join.Reference(cs, ords)})
	}
	return nil
}

// tableSet is everything set-up loads for one table seed.
type tableSet struct {
	execs    []*query.Executor // one per placer
	rows     int64             // base-table rows, for rows/s
	uniform  *join.Cluster
	skewed   *join.Cluster
	customer *join.Relation // the uniform pair, which track join re-loads per key
	orders   *join.Relation
}

// load is the set-up: generate the tables and relations, load the clusters,
// build the executors.
func (w *queryWorkload) load(tk *track) ([]*tableSet, error) {
	span := func(name string, j int, t0 time.Time) {
		if tk != nil {
			tk.span(name, "setup", fmt.Sprintf("tables-%d", j), t0, time.Since(t0))
		}
	}
	n := w.cfg.nodes
	var sets []*tableSet
	for j := 0; j < w.cfg.tableSeeds; j++ {
		ts := &tableSet{}
		t0 := time.Now()
		tables, err := tpch.Generate(w.tpchConfig(j))
		if err != nil {
			return nil, err
		}
		span("tpch.generate", j, t0)
		ts.rows = tables.Customer.Rows() + tables.Orders.Rows() + tables.Lineitem.Rows()
		for _, s := range queryPlacers {
			ex, err := tables.NewExecutor(query.Config{Nodes: n, Scheduler: s})
			if err != nil {
				return nil, err
			}
			ts.execs = append(ts.execs, ex)
		}
		t0 = time.Now()
		ts.customer, ts.orders = join.GenerateRelations(w.joinConfig(j, false))
		cs, ords := join.GenerateRelations(w.joinConfig(j, true))
		span("join.generate", j, t0)
		t0 = time.Now()
		ts.uniform = w.cluster(j, ts.customer, ts.orders)
		ts.skewed = w.cluster(j, cs, ords)
		span("join.load", j, t0)
		sets = append(sets, ts)
	}
	return sets, nil
}

// cluster loads a relation pair with Zipf(0.8) locality over node ranks, the
// tuple-level form of the chunk generator's rank alignment.
func (w *queryWorkload) cluster(j int, left, right *join.Relation) *join.Cluster {
	n := w.cfg.nodes
	cl := join.NewCluster(n, partition.ModPartitioner{NumPartitions: 15 * n})
	cl.LoadByPlacement(true, left, join.ZipfPlacer(n, 0.8, w.tableSeed(j)))
	cl.LoadByPlacement(false, right, join.ZipfPlacer(n, 0.8, w.tableSeed(j)+1))
	return cl
}

// opOutput is what one op produced, kept until the clock stops.
type opOutput struct {
	query *query.Result
	join  *join.Result
}

func (w *queryWorkload) round(tr *tracer) (*roundResult, error) {
	var tk *track
	if tr != nil {
		tk = tr.tracks[0]
	}
	res := &roundResult{extra: map[string]float64{}}
	var sets []*tableSet
	for i := 0; i < w.cfg.loads; i++ {
		t0 := time.Now()
		var err error
		if sets, err = w.load(tk); err != nil {
			return nil, err
		}
		res.setupS += time.Since(t0).Seconds()
		if tk != nil {
			tk.span("setup", "", "round", t0, time.Since(t0))
		}
	}

	var (
		lat      []float64
		outs     []opOutput
		queryLat []float64
		joinLat  []float64
		buildLat []float64
		rowsIn   int64
		tuples   int64
	)
	// timed runs one op; only the time inside f counts.
	timed := func(name, job string, f func() (opOutput, error)) error {
		t0 := time.Now()
		out, err := f()
		el := time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s %s: %w", name, job, err)
		}
		lat = append(lat, el.Seconds())
		outs = append(outs, out)
		if out.query != nil {
			queryLat = append(queryLat, el.Seconds())
		} else {
			joinLat = append(joinLat, el.Seconds())
		}
		if tk != nil {
			tk.span(name, "", job, t0, el)
		}
		return nil
	}
	for j, ts := range sets {
		for qi, q := range queryPlans {
			for pi, ex := range ts.execs {
				job := fmt.Sprintf("t%d-%s-%s", j, q.name, queryPlacers[pi].Name())
				if err := timed("query.execute", job, func() (opOutput, error) {
					r, err := ex.Execute(queryPlans[qi].plan)
					return opOutput{query: r}, err
				}); err != nil {
					return nil, err
				}
				rowsIn += ts.rows
			}
		}
		for _, kind := range joinKinds {
			for _, s := range queryPlacers {
				job := fmt.Sprintf("t%d-%s-%s", j, kind, s.Name())
				if err := timed("join.execute", job, func() (opOutput, error) {
					cl, opts := ts.uniform, join.Options{Scheduler: s}
					switch kind {
					case "skewed":
						cl, opts.SkewThreshold = ts.skewed, skewThreshold
					case "trackjoin":
						b0 := time.Now()
						var err error
						cl, _, err = trackjoin.BuildCluster(w.cfg.nodes, ts.customer, ts.orders,
							join.ZipfPlacer(w.cfg.nodes, 0.8, w.tableSeed(j)))
						if err != nil {
							return opOutput{}, err
						}
						bd := time.Since(b0)
						buildLat = append(buildLat, bd.Seconds())
						if tk != nil {
							tk.span("trackjoin.build", "join.execute", job, b0, bd)
						}
					}
					r, err := join.Execute(cl, opts)
					return opOutput{join: r}, err
				}); err != nil {
					return nil, err
				}
				tuples += int64(len(ts.customer.Tuples) + len(ts.orders.Tuples))
			}
		}
	}
	sum := func(v []float64) (s float64) {
		for _, x := range v {
			s += x
		}
		return s
	}
	res.clients = [][]float64{lat}
	res.wallS = sum(lat)
	res.extra["query_ms_p50"], _, _ = latencyMs(queryLat)
	res.extra["join_ms_p50"], _, _ = latencyMs(joinLat)
	res.extra["build_ms_p50"], _, _ = latencyMs(buildLat)
	res.extra["rows_per_s"] = float64(rowsIn) / sum(queryLat)
	res.extra["tuples_per_s"] = float64(tuples) / sum(joinLat)
	return res, w.verify(outs, res)
}

// verify checks every output against its reference, asserts that CCF's worst
// bottlenecks sum to no more than Hash's, and folds the outputs into the digest.
func (w *queryWorkload) verify(outs []opOutput, res *roundResult) error {
	dg := newResultDigest()
	var cctSum float64
	var coflows int
	var ccfBottleneck, hashBottleneck int64
	np := len(queryPlacers)
	perSeed := np * (len(queryPlans) + len(joinKinds))
	for i, out := range outs {
		j, k := i/perSeed, i%perSeed
		group, placer := k/np, queryPlacers[k%np].Name()
		var worst int64
		ok := true
		if out.query != nil {
			rows := out.query.Output.Gather()
			ok = slices.Equal(rows, w.wantRows[j][group])
			for _, r := range rows {
				dg.i64(r.Key)
				dg.i64(r.Value)
			}
			for _, st := range out.query.Stages {
				dg.i64(st.TrafficBytes)
				dg.i64(st.BottleneckBytes)
				dg.f64(st.TimeSec)
				cctSum += st.TimeSec
				coflows++
				worst = max(worst, st.BottleneckBytes)
			}
		} else {
			r := out.join
			want := w.wantJoin[j][0]
			if joinKinds[group-len(queryPlans)] == "skewed" {
				want = w.wantJoin[j][1]
			}
			ok = r.OutputTuples == want
			dg.i64(r.OutputTuples)
			dg.i64(r.TrafficBytes)
			dg.i64(r.BottleneckBytes)
			dg.f64(r.CommTime)
			cctSum += r.CommTime
			coflows++
			worst = r.BottleneckBytes
		}
		if !ok {
			res.failed++
		}
		switch placer {
		case "Hash":
			hashBottleneck += worst
		case "CCF":
			ccfBottleneck += worst
		}
	}
	// Per op the greedy placer may lose to Hash by a hair (a later stage's
	// input depends on the earlier placements); over the round it must not.
	if ccfBottleneck > hashBottleneck {
		return fmt.Errorf("CCF's summed worst bottleneck %d exceeds Hash's %d", ccfBottleneck, hashBottleneck)
	}
	res.extra["ccf_vs_hash_bottleneck"] = float64(ccfBottleneck) / float64(hashBottleneck)
	res.simCCT = cctSum / float64(coflows)
	res.digest = dg.sum()
	return nil
}
