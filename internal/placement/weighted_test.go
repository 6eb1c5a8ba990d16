package placement_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/topology"
)

// The capacity-aware placer over per-port capacities (the paper's footnote 4)
// is topology.RackAwareCCF on a one-rack topology.NewNonBlocking; these tests
// check it from the placement side. They live in placement_test because
// topology imports placement.

func uniformCaps(n int, c float64) []float64 {
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = c
	}
	return caps
}

func randomChunks(rng *rand.Rand, n, p, maxChunk int) *partition.ChunkMatrix {
	m := partition.MustChunkMatrix(n, p)
	for i := range m.H {
		m.H[i] = int64(rng.Intn(maxChunk))
	}
	return m
}

// fixed places partition k on node fixed[k].
type fixed []int

func (f fixed) Name() string { return "fixed" }

func (f fixed) Place(m *partition.ChunkMatrix, _ *partition.Loads) (*partition.Placement, error) {
	pl := partition.NewPlacement(m.P)
	copy(pl.Dest, f)
	return pl, nil
}

func TestWeightedCCFReducesToCCFOnUniformCaps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 2+rng.Intn(5), 1+rng.Intn(12)
		m := randomChunks(rng, n, p, 80)
		topo, err := topology.NewNonBlocking(uniformCaps(n, 7), uniformCaps(n, 7))
		if err != nil {
			return false
		}
		w, err := topology.RackAwareCCF{Topo: topo}.Place(m, nil)
		if err != nil {
			return false
		}
		u, err := placement.CCF{}.Place(m, nil)
		if err != nil {
			return false
		}
		return slices.Equal(w.Dest, u.Dest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWeightedCCFValidation(t *testing.T) {
	if _, err := topology.NewNonBlocking(uniformCaps(2, 1), uniformCaps(3, 1)); err == nil {
		t.Error("accepted mis-sized capacities")
	}
	eg := uniformCaps(3, 1)
	eg[1] = 0
	if _, err := topology.NewNonBlocking(eg, uniformCaps(3, 1)); err == nil {
		t.Error("accepted zero capacity")
	}
	topo, err := topology.NewNonBlocking(uniformCaps(3, 1), uniformCaps(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := partition.MustChunkMatrix(3, 2)
	bad := &partition.Loads{Egress: []int64{1}, Ingress: []int64{1, 2, 3}}
	if _, err := (topology.RackAwareCCF{Topo: topo}).Place(m, bad); err == nil {
		t.Error("accepted mis-sized initial loads")
	}
}

func TestWeightedBottleneck(t *testing.T) {
	// Partition 0 (40 bytes on node 0) goes to node 1; partition 1 (60 on
	// node 0, 10 on node 1) goes to node 2. Egress 100/10/0, ingress
	// 0/40/70. Every port runs at 10 B/s except node 1's ingress at 2 B/s:
	// egress 0 needs 10 s, but ingress 1 binds at 20 s.
	m := partition.MustChunkMatrix(3, 2)
	m.Set(0, 0, 40)
	m.Set(0, 1, 60)
	m.Set(1, 1, 10)
	topo, err := topology.NewNonBlocking([]float64{10, 10, 10}, []float64{10, 2, 10})
	if err != nil {
		t.Fatal(err)
	}
	tv, err := topo.PlacementCCT(fixed{1, 2}, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tv != 20 {
		t.Errorf("per-port bottleneck = %g s, want 20", tv)
	}
	two, err := topology.NewNonBlocking(uniformCaps(2, 1), uniformCaps(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := two.PlacementCCT(fixed{1, 0}, m, nil, nil); err == nil {
		t.Error("accepted capacities sized for another fabric")
	}
}
