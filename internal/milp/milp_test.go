package milp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ccf/internal/partition"
	"ccf/internal/placement"
)

// bruteForce enumerates all n^p assignments and returns the minimum T.
func bruteForce(m *partition.ChunkMatrix, initial *partition.Loads) int64 {
	n, p := m.N, m.P
	dest := make([]int, p)
	best := int64(1<<62 - 1)
	var rec func(k int)
	rec = func(k int) {
		if k == p {
			pl := &partition.Placement{Dest: append([]int(nil), dest...)}
			l, err := partition.ComputeLoads(m, pl, initial)
			if err != nil {
				panic(err)
			}
			if t := l.Max(); t < best {
				best = t
			}
			return
		}
		for d := 0; d < n; d++ {
			dest[k] = d
			rec(k + 1)
		}
	}
	rec(0)
	return best
}

func randomInstance(rng *rand.Rand, n, p, maxChunk int) *partition.ChunkMatrix {
	m := partition.MustChunkMatrix(n, p)
	for i := range m.H {
		m.H[i] = int64(rng.Intn(maxChunk))
	}
	return m
}

func TestSolveMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2) // 2-3 nodes
		p := 1 + rng.Intn(6) // 1-6 partitions: ≤ 3^6 = 729 assignments
		m := randomInstance(rng, n, p, 30)
		res, err := Solve(m, nil, Options{})
		if err != nil || !res.Optimal {
			return false
		}
		return res.T == bruteForce(m, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSolveMatchesBruteForceWithInitialLoads(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 3, 1+rng.Intn(5)
		m := randomInstance(rng, n, p, 25)
		init := &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
		for i := 0; i < n; i++ {
			init.Egress[i] = int64(rng.Intn(40))
			init.Ingress[i] = int64(rng.Intn(40))
		}
		res, err := Solve(m, init, Options{})
		if err != nil || !res.Optimal {
			return false
		}
		return res.T == bruteForce(m, init)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSolvePlacementConsistentWithReportedT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		m := randomInstance(rng, 2+rng.Intn(4), 2+rng.Intn(8), 50)
		res, err := Solve(m, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		l, err := partition.ComputeLoads(m, res.Placement, nil)
		if err != nil {
			t.Fatal(err)
		}
		if l.Max() != res.T {
			t.Fatalf("reported T=%d but placement has T=%d", res.T, l.Max())
		}
	}
}

func TestHeuristicNearOptimal(t *testing.T) {
	// The CCF heuristic should stay close to the certified optimum on
	// small instances — the paper's justification for replacing Gurobi.
	rng := rand.New(rand.NewSource(77))
	var worst float64 = 1
	for trial := 0; trial < 60; trial++ {
		n, p := 3+rng.Intn(3), 4+rng.Intn(6)
		m := randomInstance(rng, n, p, 100)
		ev, err := placement.Evaluate(placement.CCF{}, m, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(m, nil, Options{UpperBound: ev.BottleneckBytes})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: solver did not certify n=%d p=%d", trial, n, p)
		}
		if res.T > ev.BottleneckBytes {
			t.Fatalf("exact T=%d worse than heuristic %d", res.T, ev.BottleneckBytes)
		}
		if res.T > 0 {
			if r := float64(ev.BottleneckBytes) / float64(res.T); r > worst {
				worst = r
			}
		}
	}
	if worst > 1.5 {
		t.Errorf("heuristic/optimal ratio reached %.3f; want ≤ 1.5 on random small instances", worst)
	}
	t.Logf("worst heuristic/optimal ratio over 60 instances: %.4f", worst)
}

func TestUpperBoundSeedAccelerates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomInstance(rng, 4, 9, 60)
	ev, err := placement.Evaluate(placement.CCF{}, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	unseeded, err := Solve(m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := Solve(m, nil, Options{UpperBound: ev.BottleneckBytes})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.T != unseeded.T {
		t.Fatalf("seeded optimum %d != unseeded optimum %d", seeded.T, unseeded.T)
	}
	if seeded.Explored > unseeded.Explored {
		t.Errorf("seeding with the heuristic bound explored more nodes (%d > %d)", seeded.Explored, unseeded.Explored)
	}
}

func TestExplorationCapReturnsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomInstance(rng, 6, 14, 80)
	res, err := Solve(m, nil, Options{MaxExplored: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Error("10-node budget cannot certify a 6×14 instance")
	}
	if err := res.Placement.Validate(6, 14); err != nil {
		t.Errorf("capped solve returned invalid placement: %v", err)
	}
	l, err := partition.ComputeLoads(m, res.Placement, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Max() != res.T {
		t.Errorf("capped solve reports T=%d, placement has %d", res.T, l.Max())
	}
}

func TestSolveSingleNode(t *testing.T) {
	m := partition.MustChunkMatrix(1, 3)
	m.Set(0, 0, 5)
	m.Set(0, 1, 7)
	res, err := Solve(m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 {
		t.Errorf("single node: T = %d, want 0 (everything local)", res.T)
	}
	if !res.Optimal {
		t.Error("single-node instance not certified")
	}
}

func TestSolveZeroMatrix(t *testing.T) {
	m := partition.MustChunkMatrix(3, 4)
	res, err := Solve(m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 || !res.Optimal {
		t.Errorf("zero matrix: T=%d optimal=%v, want 0/true", res.T, res.Optimal)
	}
}

func TestSolveRejectsBadInputs(t *testing.T) {
	m := partition.MustChunkMatrix(2, 2)
	m.Set(0, 0, -1)
	if _, err := Solve(m, nil, Options{}); err == nil {
		t.Error("Solve accepted a negative chunk")
	}
	m2 := partition.MustChunkMatrix(2, 2)
	bad := &partition.Loads{Egress: []int64{1}, Ingress: []int64{1, 2}}
	if _, err := Solve(m2, bad, Options{}); err == nil {
		t.Error("Solve accepted mis-sized initial loads")
	}
}

func TestMotivatingInstanceOptimum(t *testing.T) {
	// The 3-node example of the paper's Figure 1: optimal T must be 3
	// (SP1's bottleneck), strictly better than the traffic-optimal SP2's 4.
	m := partition.MustChunkMatrix(3, 4)
	m.Set(0, 0, 3)
	m.Set(2, 0, 1)
	m.Set(0, 1, 3)
	m.Set(1, 1, 6)
	m.Set(0, 2, 1)
	m.Set(1, 2, 2)
	m.Set(1, 3, 1)
	m.Set(2, 3, 2)
	res, err := Solve(m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.T != 3 {
		t.Errorf("motivating instance: T=%d optimal=%v, want 3/true", res.T, res.Optimal)
	}
}
