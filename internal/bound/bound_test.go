package bound

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ccf/internal/milp"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/workload"
)

func randomMatrix(rng *rand.Rand, n, p, maxChunk int) *partition.ChunkMatrix {
	m := partition.MustChunkMatrix(n, p)
	for i := range m.H {
		m.H[i] = int64(rng.Intn(maxChunk))
	}
	return m
}

func TestLowerBoundAdmissibleAgainstExact(t *testing.T) {
	// The bound must never exceed the certified optimum.
	f := func(seed int64, withInitial bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 2+rng.Intn(3), 1+rng.Intn(7)
		m := randomMatrix(rng, n, p, 40)
		var init *partition.Loads
		if withInitial {
			init = &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
			for i := 0; i < n; i++ {
				init.Egress[i] = int64(rng.Intn(30))
				init.Ingress[i] = int64(rng.Intn(30))
			}
		}
		lb, err := LowerBound(m, init)
		if err != nil {
			return false
		}
		exact, err := milp.Solve(m, init, milp.Options{})
		if err != nil || !exact.Optimal {
			return false
		}
		return lb <= exact.T
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLowerBoundNontrivial(t *testing.T) {
	// On the motivating instance the optimum is 3; the bound should be
	// positive and ≤ 3.
	m := partition.MustChunkMatrix(3, 4)
	m.Set(0, 0, 3)
	m.Set(2, 0, 1)
	m.Set(0, 1, 3)
	m.Set(1, 1, 6)
	m.Set(0, 2, 1)
	m.Set(1, 2, 2)
	m.Set(1, 3, 1)
	m.Set(2, 3, 2)
	lb, err := LowerBound(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 || lb > 3 {
		t.Errorf("motivating lower bound = %d, want in (0, 3]", lb)
	}
}

func TestLowerBoundZeroMatrix(t *testing.T) {
	m := partition.MustChunkMatrix(3, 4)
	lb, err := LowerBound(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 0 {
		t.Errorf("zero matrix bound = %d, want 0", lb)
	}
}

func TestLowerBoundSingleNode(t *testing.T) {
	m := partition.MustChunkMatrix(1, 3)
	m.Set(0, 0, 10)
	m.Set(0, 2, 5)
	lb, err := LowerBound(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 0 {
		t.Errorf("single node bound = %d, want 0 (all local)", lb)
	}
}

func TestLowerBoundRejectsBadInputs(t *testing.T) {
	m := partition.MustChunkMatrix(2, 2)
	m.Set(0, 0, -1)
	if _, err := LowerBound(m, nil); err == nil {
		t.Error("accepted a negative chunk")
	}
	m2 := partition.MustChunkMatrix(2, 2)
	if _, err := LowerBound(m2, &partition.Loads{Egress: []int64{1}, Ingress: []int64{1, 2}}); err == nil {
		t.Error("accepted mis-sized initial loads")
	}
}

func TestLowerBoundRespectsInitialLoads(t *testing.T) {
	// A pre-existing ingress of 100 on one port floors the bound at 100.
	m := partition.MustChunkMatrix(3, 2)
	m.Set(0, 0, 10)
	m.Set(1, 1, 10)
	init := &partition.Loads{Egress: make([]int64, 3), Ingress: []int64{100, 0, 0}}
	lb, err := LowerBound(m, init)
	if err != nil {
		t.Fatal(err)
	}
	if lb < 100 {
		t.Errorf("bound = %d, want >= 100 (initial ingress floor)", lb)
	}
}

func TestGapBracketsHeuristicAtPaperShape(t *testing.T) {
	// The headline use: bound the heuristic's optimality gap on a
	// paper-shaped instance too large for branch & bound.
	w, err := workload.Generate(workload.Config{
		Nodes: 50, CustomerTuples: 90_000, OrderTuples: 900_000,
		PayloadBytes: 100, Zipf: 0.8, Skew: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := placement.Evaluate(placement.CCF{}, w.Chunks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb, ratio, err := Gap(w.Chunks, nil, ev.BottleneckBytes)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 {
		t.Fatal("zero lower bound on a non-trivial instance")
	}
	if ratio < 1 {
		t.Fatalf("ratio %g < 1: bound exceeded a feasible value", ratio)
	}
	if ratio > 1.5 {
		t.Errorf("heuristic certified only within %.2fx of optimal; expected well under 1.5x", ratio)
	}
	t.Logf("n=50 paper-shaped instance: heuristic T=%d, lower bound=%d, gap ≤ %.4fx",
		ev.BottleneckBytes, lb, ratio)
}

func TestGapErrorsOnInfeasibleClaim(t *testing.T) {
	m := partition.MustChunkMatrix(2, 1)
	m.Set(0, 0, 100)
	m.Set(1, 0, 1)
	lb, err := LowerBound(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lb == 0 {
		t.Skip("degenerate instance, bound is zero")
	}
	if _, _, err := Gap(m, nil, lb-1); err == nil {
		t.Error("Gap accepted a 'feasible' value below the lower bound")
	}
}

func TestGapZeroCases(t *testing.T) {
	m := partition.MustChunkMatrix(2, 1) // empty: optimum 0
	lb, ratio, err := Gap(m, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 0 || ratio != 1 {
		t.Errorf("empty instance gap = (%d, %g), want (0, 1)", lb, ratio)
	}
}

func TestLowerBoundMonotoneInData(t *testing.T) {
	// Scaling all chunks by c scales the bound by ~c (bisection on a
	// linear model). Check 2x within rounding.
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 4, 12, 100)
	lb1, err := LowerBound(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	double := m.Clone()
	for i := range double.H {
		double.H[i] *= 2
	}
	lb2, err := LowerBound(double, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lb2 < 2*lb1-4 || lb2 > 2*lb1+4 {
		t.Errorf("bound not ≈ linear: lb(m)=%d, lb(2m)=%d", lb1, lb2)
	}
}

func TestIndivisibilityFloor(t *testing.T) {
	// One giant partition spread evenly over 4 nodes: any destination must
	// ingest 3/4 of it, which the fractional relaxation alone would split
	// away. The bound must include the indivisibility floor.
	m := partition.MustChunkMatrix(4, 1)
	for i := 0; i < 4; i++ {
		m.Set(i, 0, 100)
	}
	lb, err := LowerBound(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 300 {
		t.Errorf("lower bound = %d, want 300 (whole-partition ingress)", lb)
	}
	// And it is achieved: assign anywhere.
	pl := &partition.Placement{Dest: []int{0}}
	l, err := partition.ComputeLoads(m, pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Max() != 300 {
		t.Fatalf("feasible T = %d, want 300", l.Max())
	}
}

func TestBoundTightWithoutSkewHandling(t *testing.T) {
	// A skewed workload placed WITHOUT partial duplication is dominated by
	// the hot partition; the indivisibility floor makes the bound tight
	// enough to certify the heuristic within a few percent.
	w, err := workload.Generate(workload.Config{
		Nodes: 40, CustomerTuples: 90_000, OrderTuples: 900_000,
		PayloadBytes: 100, Zipf: 0.8, Skew: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := placement.Evaluate(placement.CCF{}, w.Chunks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ratio, err := Gap(w.Chunks, nil, ev.BottleneckBytes)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1.05 {
		t.Errorf("gap ratio %.4f on skew-dominated instance; indivisibility floor should certify ≤ 1.05", ratio)
	}
}
