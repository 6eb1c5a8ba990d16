package query

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ccf/internal/partition"
	"ccf/internal/placement"
)

// buildTable distributes rows over n nodes with a zipf-like bias so the
// shuffle has interesting locality.
func buildTable(name string, n int, payload int64, rows []Row, seed int64) *Table {
	t := NewTable(name, n, payload)
	rng := rand.New(rand.NewSource(seed))
	for _, row := range rows {
		// Biased placement: lower nodes get more rows.
		node := rng.Intn(n)
		if rng.Intn(2) == 0 {
			node = node * rng.Intn(n) / n
		}
		t.Frags[node] = append(t.Frags[node], row)
	}
	return t
}

func randomRows(rng *rand.Rand, count, keySpace int) []Row {
	rows := make([]Row, count)
	for i := range rows {
		rows[i] = Row{Key: int64(rng.Intn(keySpace) + 1), Value: int64(rng.Intn(100))}
	}
	return rows
}

func gatherTables(ts ...*Table) map[string][]Row {
	out := map[string][]Row{}
	for _, t := range ts {
		out[t.Name] = t.Gather()
	}
	return out
}

func TestNewExecutorValidation(t *testing.T) {
	tbl := NewTable("t", 4, 10)
	if _, err := NewExecutor(Config{Nodes: 0, Scheduler: placement.CCF{}}, tbl); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := NewExecutor(Config{Nodes: 4}, tbl); err == nil {
		t.Error("accepted nil scheduler")
	}
	if _, err := NewExecutor(Config{Nodes: 5, Scheduler: placement.CCF{}}, tbl); err == nil {
		t.Error("accepted table with wrong node count")
	}
	if _, err := NewExecutor(Config{Nodes: 4, Scheduler: placement.CCF{}}, tbl, NewTable("t", 4, 10)); err == nil {
		t.Error("accepted duplicate table names")
	}
	e, err := NewExecutor(Config{Nodes: 4, Scheduler: placement.CCF{}}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if e.part.P() != 60 {
		t.Errorf("partitions = %d, want 15×4", e.part.P())
	}
}

func TestScanUnknownTable(t *testing.T) {
	e, _ := NewExecutor(Config{Nodes: 2, Scheduler: placement.Hash{}})
	if _, err := e.Execute(&Scan{Table: "nope"}); err == nil {
		t.Error("executed a scan of an unknown table")
	}
}

func TestJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := buildTable("L", 5, 100, randomRows(rng, 300, 40), 2)
	r := buildTable("R", 5, 100, randomRows(rng, 500, 40), 3)
	e, err := NewExecutor(Config{Nodes: 5, Scheduler: placement.CCF{}}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	plan := &JoinOp{Left: &Scan{Table: "L"}, Right: &Scan{Table: "R"}}
	res, err := e.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(plan, gatherTables(l, r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output.Gather(), SortRows(want)) {
		t.Errorf("distributed join output differs from reference (%d vs %d rows)",
			res.Output.Rows(), len(want))
	}
	if len(res.Stages) != 1 || res.Stages[0].Operator != "join" {
		t.Errorf("stages = %+v, want one join stage", res.Stages)
	}
	if res.Stages[0].TimeSec <= 0 {
		t.Error("join stage reported zero network time")
	}
}

func TestAggregateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tbl := buildTable("T", 4, 50, randomRows(rng, 400, 25), 5)
	for _, partial := range []bool{false, true} {
		e, err := NewExecutor(Config{Nodes: 4, Scheduler: placement.CCF{}}, tbl)
		if err != nil {
			t.Fatal(err)
		}
		plan := &AggOp{Input: &Scan{Table: "T"}, Partial: partial}
		res, err := e.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference(plan, gatherTables(tbl))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Output.Gather(), SortRows(want)) {
			t.Errorf("partial=%v: aggregate output differs from reference", partial)
		}
	}
}

func TestPartialAggregationReducesTraffic(t *testing.T) {
	// Many duplicate keys per node ⇒ the combiner must cut shuffle bytes.
	rng := rand.New(rand.NewSource(6))
	tbl := buildTable("T", 6, 100, randomRows(rng, 3000, 20), 7)
	run := func(partial bool) int64 {
		e, err := NewExecutor(Config{Nodes: 6, Scheduler: placement.CCF{}}, tbl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(&AggOp{Input: &Scan{Table: "T"}, Partial: partial})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTrafficBytes
	}
	naive, combined := run(false), run(true)
	if combined >= naive/2 {
		t.Errorf("combiner traffic %d not ≪ naive %d", combined, naive)
	}
}

func TestDistinctMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Heavy duplication: small key and value spaces.
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{Key: int64(rng.Intn(10)), Value: int64(rng.Intn(5))}
	}
	tbl := buildTable("T", 4, 80, rows, 9)
	e, err := NewExecutor(Config{Nodes: 4, Scheduler: placement.Mini{}}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	plan := &DistinctOp{Input: &Scan{Table: "T"}}
	res, err := e.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(plan, gatherTables(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output.Gather(), SortRows(want)) {
		t.Error("distinct output differs from reference")
	}
	if res.Output.Rows() > 50 {
		t.Errorf("distinct kept %d rows from a ≤50-combination space", res.Output.Rows())
	}
}

func TestComposedPlanMatchesReference(t *testing.T) {
	// The paper's analytical-job shape: join → aggregate → distinct,
	// three sequential operators, three shuffles.
	rng := rand.New(rand.NewSource(10))
	l := buildTable("L", 5, 100, randomRows(rng, 200, 30), 11)
	r := buildTable("R", 5, 100, randomRows(rng, 400, 30), 12)
	plan := &DistinctOp{Input: &AggOp{
		Input:   &JoinOp{Left: &Scan{Table: "L"}, Right: &Scan{Table: "R"}},
		Partial: true,
	}}
	e, err := NewExecutor(Config{Nodes: 5, Scheduler: placement.CCF{}}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(plan, gatherTables(l, r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output.Gather(), SortRows(want)) {
		t.Error("composed plan output differs from reference")
	}
	if len(res.Stages) != 3 {
		t.Fatalf("stages = %d, want 3 (join, aggregate, distinct)", len(res.Stages))
	}
	var sum float64
	for _, s := range res.Stages {
		sum += s.TimeSec
	}
	if res.TotalTimeSec != sum {
		t.Errorf("TotalTimeSec = %g, want sum of stages %g", res.TotalTimeSec, sum)
	}
}

func TestAllSchedulersAgreeOnResults(t *testing.T) {
	// Placement changes the network metrics, never the answer.
	rng := rand.New(rand.NewSource(13))
	l := buildTable("L", 4, 100, randomRows(rng, 150, 20), 14)
	r := buildTable("R", 4, 100, randomRows(rng, 250, 20), 15)
	plan := &AggOp{Input: &JoinOp{Left: &Scan{Table: "L"}, Right: &Scan{Table: "R"}}, Partial: true}
	var outputs [][]Row
	for _, s := range []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}, placement.LPT{}} {
		e, err := NewExecutor(Config{Nodes: 4, Scheduler: s}, l, r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(plan)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		outputs = append(outputs, res.Output.Gather())
	}
	for i := 1; i < len(outputs); i++ {
		if !reflect.DeepEqual(outputs[0], outputs[i]) {
			t.Fatalf("scheduler %d produced different results", i)
		}
	}
}

func TestCCFStagesNoSlowerThanHashOnZipfData(t *testing.T) {
	// On zipf-aligned data every stage's bottleneck under CCF must be at
	// most Hash's (the figure-level claim, at query granularity).
	rng := rand.New(rand.NewSource(16))
	rows := randomRows(rng, 2000, 50)
	mk := func() *Table {
		tbl := NewTable("T", 8, 100)
		zrng := rand.New(rand.NewSource(17))
		for _, row := range rows {
			// Zipf-ish: node ∝ 1/(r+1).
			node := 0
			for zrng.Float64() > 0.5 && node < 7 {
				node++
			}
			tbl.Frags[node] = append(tbl.Frags[node], row)
		}
		return tbl
	}
	run := func(s placement.Scheduler) float64 {
		e, err := NewExecutor(Config{Nodes: 8, Scheduler: s}, mk())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(&AggOp{Input: &Scan{Table: "T"}})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTimeSec
	}
	ccf, hash := run(placement.CCF{}), run(placement.Hash{})
	if ccf > hash*1.001 {
		t.Errorf("CCF query time %g > Hash %g on zipf data", ccf, hash)
	}
}

func TestQueryPropertyRandomPlans(t *testing.T) {
	scheds := []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}}
	f := func(seed int64, schedIdx, shape uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		l := buildTable("L", n, 10, randomRows(rng, 50+rng.Intn(100), 15), seed+1)
		r := buildTable("R", n, 10, randomRows(rng, 50+rng.Intn(100), 15), seed+2)
		var plan Node
		switch shape % 4 {
		case 0:
			plan = &JoinOp{Left: &Scan{Table: "L"}, Right: &Scan{Table: "R"}}
		case 1:
			plan = &AggOp{Input: &Scan{Table: "L"}, Partial: shape%2 == 0}
		case 2:
			plan = &DistinctOp{Input: &JoinOp{Left: &Scan{Table: "L"}, Right: &Scan{Table: "R"}}}
		default:
			plan = &AggOp{Input: &JoinOp{Left: &Scan{Table: "L"}, Right: &Scan{Table: "R"}}, Partial: true}
		}
		e, err := NewExecutor(Config{Nodes: n, Scheduler: scheds[int(schedIdx)%len(scheds)]}, l, r)
		if err != nil {
			return false
		}
		res, err := e.Execute(plan)
		if err != nil {
			return false
		}
		want, err := Reference(plan, gatherTables(l, r))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(res.Output.Gather(), SortRows(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestTableHelpers(t *testing.T) {
	tbl := NewTable("x", 2, 0)
	if tbl.PayloadBytes != 100 {
		t.Errorf("zero payload promoted to %d, want 100", tbl.PayloadBytes)
	}
	tbl.Frags[0] = []Row{{2, 1}, {1, 5}}
	tbl.Frags[1] = []Row{{1, 3}}
	if tbl.Rows() != 3 {
		t.Errorf("Rows = %d, want 3", tbl.Rows())
	}
	g := tbl.Gather()
	if g[0] != (Row{1, 3}) || g[1] != (Row{1, 5}) || g[2] != (Row{2, 1}) {
		t.Errorf("Gather not sorted: %v", g)
	}
}

func TestMapOpRekeysAndForcesShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	tbl := buildTable("T", 4, 100, randomRows(rng, 500, 100), 21)
	rekey := func(r Row) Row { return Row{Key: r.Key % 7, Value: r.Value} }
	plan := &AggOp{Input: &MapOp{Input: &Scan{Table: "T"}, F: rekey}}
	e, err := NewExecutor(Config{Nodes: 4, Scheduler: placement.CCF{}}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(plan, gatherTables(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output.Gather(), SortRows(want)) {
		t.Error("map+aggregate output differs from reference")
	}
	if res.Output.Rows() > 7 {
		t.Errorf("aggregation over key%%7 kept %d groups", res.Output.Rows())
	}
}

func TestMapOpNilFunction(t *testing.T) {
	tbl := NewTable("T", 2, 10)
	e, err := NewExecutor(Config{Nodes: 2, Scheduler: placement.Hash{}}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(&MapOp{Input: &Scan{Table: "T"}}); err == nil {
		t.Error("executed a map with nil function")
	}
	// The plan is rejected before any of it runs: no stage under the map
	// shuffles first.
	counting := &countingScheduler{Scheduler: placement.Hash{}}
	if e, err = NewExecutor(Config{Nodes: 2, Scheduler: counting}, tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(&MapOp{Input: &AggOp{Input: &Scan{Table: "T"}}}); err == nil {
		t.Error("executed a map with nil function over an aggregate")
	}
	if counting.places != 0 {
		t.Errorf("%d stages were placed before the nil map was rejected", counting.places)
	}
	if _, err := Reference(&MapOp{Input: &Scan{Table: "T"}}, map[string][]Row{"T": nil}); err == nil {
		t.Error("reference evaluated a map with nil function")
	}
}

// countingScheduler counts the stages an executor places.
type countingScheduler struct {
	placement.Scheduler
	places int
}

func (c *countingScheduler) Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error) {
	c.places++
	return c.Scheduler.Place(m, initial)
}
