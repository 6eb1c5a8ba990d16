package query

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ccf/internal/placement"
)

func TestParseScan(t *testing.T) {
	for _, src := range []string{"L", " L ", "scan(L)", "scan( L )"} {
		n, err := ParsePlan(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		s, ok := n.(*Scan)
		if !ok || s.Table != "L" {
			t.Errorf("%q parsed to %#v, want scan of L", src, n)
		}
	}
}

func TestParseNested(t *testing.T) {
	n, err := ParsePlan("distinct(aggregate(rekeydiv(join(L, scan(R)), 20), partial))")
	if err != nil {
		t.Fatal(err)
	}
	d, ok := n.(*DistinctOp)
	if !ok {
		t.Fatalf("root is %T, want distinct", n)
	}
	a, ok := d.Input.(*AggOp)
	if !ok || !a.Partial {
		t.Fatalf("distinct input is %T (partial=%v), want partial aggregate", d.Input, a != nil && a.Partial)
	}
	m, ok := a.Input.(*MapOp)
	if !ok {
		t.Fatalf("aggregate input is %T, want map", a.Input)
	}
	j, ok := m.Input.(*JoinOp)
	if !ok {
		t.Fatalf("map input is %T, want join", m.Input)
	}
	if l, ok := j.Left.(*Scan); !ok || l.Table != "L" {
		t.Errorf("join left = %#v", j.Left)
	}
	if r, ok := j.Right.(*Scan); !ok || r.Table != "R" {
		t.Errorf("join right = %#v", j.Right)
	}
	// The rekey function must be Key/20.
	if got := m.F(Row{Key: 45, Value: 7}); got != (Row{Key: 2, Value: 7}) {
		t.Errorf("rekeydiv(45) = %v, want key 2", got)
	}
}

func TestParseRekeyMod(t *testing.T) {
	n, err := ParsePlan("rekeymod(T, 7)")
	if err != nil {
		t.Fatal(err)
	}
	m := n.(*MapOp)
	if got := m.F(Row{Key: 16}); got.Key != 2 {
		t.Errorf("rekeymod(16) key = %d, want 2", got.Key)
	}
	if got := m.F(Row{Key: -3}); got.Key < 0 || got.Key >= 7 {
		t.Errorf("rekeymod(-3) key = %d, want in [0,7)", got.Key)
	}
}

func TestParseAggregateAlias(t *testing.T) {
	n, err := ParsePlan("agg(T)")
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := n.(*AggOp); !ok || a.Partial {
		t.Errorf("agg(T) = %#v, want non-partial aggregate", n)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"join(L)",
		"join(L,)",
		"join(L, R",
		"aggregate(T, bogus)",
		"rekeydiv(T)",
		"rekeydiv(T, 0)",
		"rekeydiv(T, -5)",
		"unknownop(T)",
		"L extra",
		"scan()",
		"distinct(T))",
	}
	for _, src := range cases {
		if _, err := ParsePlan(src); err == nil {
			t.Errorf("ParsePlan(%q) succeeded, want error", src)
		}
	}
	// An integer past int64 names its offset, as every other parse error does.
	const src = "rekeymod(L, 99999999999999999999)"
	want := `query: integer at offset 12: strconv.ParseInt: parsing "99999999999999999999": value out of range`
	if _, err := ParsePlan(src); err == nil || err.Error() != want {
		t.Errorf("ParsePlan(%q): error %v, want %q", src, err, want)
	}
}

func TestFormatPlanRoundTrip(t *testing.T) {
	srcs := []string{
		"L",
		"join(L, R)",
		"aggregate(join(L, R), partial)",
		"distinct(aggregate(L))",
	}
	for _, src := range srcs {
		n, err := ParsePlan(src)
		if err != nil {
			t.Fatal(err)
		}
		formatted := FormatPlan(n)
		n2, err := ParsePlan(formatted)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", formatted, src, err)
		}
		if FormatPlan(n2) != formatted {
			t.Errorf("format not stable: %q -> %q", formatted, FormatPlan(n2))
		}
	}
	// MapOps format opaquely.
	if got := FormatPlan(&MapOp{Input: &Scan{Table: "T"}}); got != "map(T)" {
		t.Errorf("FormatPlan(map) = %q", got)
	}
}

func TestParsedPlanExecutesCorrectly(t *testing.T) {
	// End to end: parse a plan, run it distributed, compare with the
	// reference over the same parsed tree.
	rng := rand.New(rand.NewSource(31))
	l := buildTable("L", 4, 100, randomRows(rng, 200, 30), 32)
	r := buildTable("R", 4, 100, randomRows(rng, 300, 30), 33)
	plan, err := ParsePlan("aggregate(rekeymod(join(L, R), 5), partial)")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(Config{Nodes: 4, Scheduler: placement.CCF{}}, l, r)
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
		t.Error("parsed plan output differs from reference")
	}
	if res.Output.Rows() > 5 {
		t.Errorf("mod-5 grouping produced %d rows", res.Output.Rows())
	}
}

func TestParseWhitespaceRobust(t *testing.T) {
	a, err := ParsePlan("join(L,R)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParsePlan("  join ( L ,\n\tR )  ")
	if err != nil {
		t.Fatal(err)
	}
	if FormatPlan(a) != FormatPlan(b) {
		t.Error("whitespace changed parse result")
	}
}

func TestParseDeepNesting(t *testing.T) {
	// A deep chain must parse without issue.
	src := "L"
	for i := 0; i < 50; i++ {
		src = "distinct(" + src + ")"
	}
	n, err := ParsePlan(src)
	if err != nil {
		t.Fatal(err)
	}
	depth := 0
	for {
		d, ok := n.(*DistinctOp)
		if !ok {
			break
		}
		n = d.Input
		depth++
	}
	if depth != 50 {
		t.Errorf("parsed depth %d, want 50", depth)
	}
	if !strings.HasPrefix(FormatPlan(n), "L") {
		t.Error("innermost node lost")
	}
}
