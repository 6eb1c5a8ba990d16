package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ccf/internal/partition"
)

func TestRefineNeverWorsens(t *testing.T) {
	f := func(seed int64, withInitial bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 2+rng.Intn(6), 2+rng.Intn(15)
		m := randomMatrix(rng, n, p, 100)
		var init *partition.Loads
		if withInitial {
			init = &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
			for i := 0; i < n; i++ {
				init.Egress[i] = int64(rng.Intn(50))
				init.Ingress[i] = int64(rng.Intn(50))
			}
		}
		start := partition.NewPlacement(p)
		for k := range start.Dest {
			start.Dest[k] = rng.Intn(n)
		}
		startT, err := partition.ComputeLoads(m, start, init)
		if err != nil {
			return false
		}
		res, err := Refine(m, start, init, RefineOptions{})
		if err != nil {
			return false
		}
		if res.Placement.Validate(n, p) != nil {
			return false
		}
		endT, err := partition.ComputeLoads(m, res.Placement, init)
		if err != nil {
			return false
		}
		// Reported values must match recomputation and never worsen.
		return res.InitialT == startT.Max() && res.FinalT == endT.Max() && res.FinalT <= res.InitialT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestRefineDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 4, 10, 50)
	start, err := Hash{}.Place(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]int(nil), start.Dest...)
	if _, err := Refine(m, start, nil, RefineOptions{}); err != nil {
		t.Fatal(err)
	}
	for k := range orig {
		if start.Dest[k] != orig[k] {
			t.Fatal("Refine mutated its input placement")
		}
	}
}

func TestRefineFixesBadPlacement(t *testing.T) {
	// Everything piled on node 0 (Mini's failure mode on aligned data):
	// refinement must spread it out substantially.
	rng := rand.New(rand.NewSource(3))
	n, p := 8, 64
	m := randomMatrix(rng, n, p, 100)
	start := partition.NewPlacement(p)
	for k := range start.Dest {
		start.Dest[k] = 0
	}
	res, err := Refine(m, start, nil, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalT >= res.InitialT/2 {
		t.Errorf("refine only improved T from %d to %d on a pile-up", res.InitialT, res.FinalT)
	}
	if res.Moves == 0 {
		t.Error("no moves recorded")
	}
}

func TestRefineRespectsBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 6, 30, 50)
	start := partition.NewPlacement(30)
	for k := range start.Dest {
		start.Dest[k] = 0
	}
	res, err := Refine(m, start, nil, RefineOptions{MaxMoves: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves > 3 {
		t.Errorf("moves = %d exceeds budget 3", res.Moves)
	}
	res, err = Refine(m, start, nil, RefineOptions{MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes > 1 {
		t.Errorf("passes = %d exceeds budget 1", res.Passes)
	}
}

func TestRefineRejectsBadInputs(t *testing.T) {
	m := partition.MustChunkMatrix(3, 2)
	if _, err := Refine(m, partition.NewPlacement(2), nil, RefineOptions{}); err == nil {
		t.Error("accepted an unassigned placement")
	}
	good := &partition.Placement{Dest: []int{0, 1}}
	bad := &partition.Loads{Egress: []int64{1}, Ingress: []int64{1, 2, 3}}
	if _, err := Refine(m, good, bad, RefineOptions{}); err == nil {
		t.Error("accepted mis-sized initial loads")
	}
}

func TestCCFRefinedAtLeastAsGoodAsCCF(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 3+rng.Intn(5), 5+rng.Intn(20)
		m := randomMatrix(rng, n, p, 80)
		base, err := Evaluate(CCF{}, m, nil, nil)
		if err != nil {
			return false
		}
		refined, err := Evaluate(CCFRefined{}, m, nil, nil)
		if err != nil {
			return false
		}
		return refined.BottleneckBytes <= base.BottleneckBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCCFRefinedName(t *testing.T) {
	if (CCFRefined{}).Name() != "CCF-refined" {
		t.Error("wrong name")
	}
}

func TestRefineIsIdempotentAtLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(rng, 5, 25, 50)
	first, err := CCFRefined{}.Place(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Refine(m, first, nil, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 {
		t.Errorf("refining a local optimum made %d moves", res.Moves)
	}
	if res.FinalT != res.InitialT {
		t.Errorf("T changed at a local optimum: %d -> %d", res.InitialT, res.FinalT)
	}
}
