package topology

// testdata/frozen_capacity_aware.json pins the capacity-aware Algorithm 1: an
// FNV-1a digest over every placement's Dest, per family of seeded instances.
// The one-rack families (per-port capacities, one slow port or random ones)
// were recorded from placement.WeightedCCF, the per-port placer that
// RackAwareCCF on NewNonBlocking replaced; the leaf-spine families from
// RackAwareCCF itself, at the same commit. The file is not meant to be
// re-recorded: a different digest means a placement moved.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"

	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/skew"
	"ccf/internal/workload"
)

// frozenPortBw is a port's bandwidth in the workload-generated families.
const frozenPortBw = 128e6

// capacityAware is the placer under test for per-port capacities.
func capacityAware(eg, in []float64) (placement.Scheduler, error) {
	topo, err := NewNonBlocking(eg, in)
	if err != nil {
		return nil, err
	}
	return RackAwareCCF{Topo: topo}, nil
}

// digestPlace places m on top of initial and folds Dest into h.
func digestPlace(t *testing.T, h hash.Hash64, s placement.Scheduler, m *partition.ChunkMatrix, initial *partition.Loads) {
	t.Helper()
	pl, err := s.Place(m, initial)
	if err != nil {
		t.Fatal(err)
	}
	var word [8]byte
	for _, d := range pl.Dest {
		binary.LittleEndian.PutUint64(word[:], uint64(d))
		h.Write(word[:])
	}
}

// frozenPlan is a skew-adjusted serve-style job: n nodes, 15 partitions per
// node, Zipf 0.8, 20 % skew.
func frozenPlan(t *testing.T, n int, seed uint64) *skew.Plan {
	t.Helper()
	customers := int64(5000 * seed)
	w, err := workload.Generate(workload.Config{
		Nodes: n, CustomerTuples: customers, OrderTuples: 10 * customers, PayloadBytes: 1000,
		Zipf: workload.DefaultZipf, Skew: workload.DefaultSkew, Seed: seed, JitterFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return skew.PartialDuplication(w)
}

// randomInstance draws a small chunk matrix (about a fifth of its chunks
// zero) and, for odd draws, random initial loads.
func randomInstance(rng *rand.Rand, n, p int) (*partition.ChunkMatrix, *partition.Loads) {
	m := partition.MustChunkMatrix(n, p)
	for i := range m.H {
		if rng.Intn(5) > 0 {
			m.H[i] = int64(rng.Intn(1000))
		}
	}
	if rng.Intn(2) == 0 {
		return m, nil
	}
	initial := &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
	for i := 0; i < n; i++ {
		initial.Egress[i] = int64(rng.Intn(3000))
		initial.Ingress[i] = int64(rng.Intn(3000))
	}
	return m, initial
}

func frozenCapacityAware(t *testing.T) map[string]string {
	got := map[string]string{}
	sum := func(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }

	// One rack, n = 8 … 64 (p = 120 … 960), one port at 1/8 (ingress, odd
	// seeds) or 1/10 (egress, even seeds) of the others, idle and with the
	// skew broadcast as initial loads.
	h := fnv.New64a()
	for seed := uint64(1); seed <= 8; seed++ {
		n := 8 * int(seed)
		plan := frozenPlan(t, n, seed)
		eg, in := uniformCaps(n, frozenPortBw), uniformCaps(n, frozenPortBw)
		if slow := int(7*seed) % n; seed%2 == 1 {
			in[slow] = frozenPortBw / 8
		} else {
			eg[slow] = frozenPortBw / 10
		}
		s, err := capacityAware(eg, in)
		if err != nil {
			t.Fatal(err)
		}
		digestPlace(t, h, s, plan.Adjusted, nil)
		digestPlace(t, h, s, plan.Adjusted, plan.Initial)
	}
	got["one-rack/slow-port"] = sum(h)

	// One rack, random capacities in [1, 10), n 2–13, p 1–40.
	h = fnv.New64a()
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 400; i++ {
		n, p := 2+rng.Intn(12), 1+rng.Intn(40)
		eg, in := make([]float64, n), make([]float64, n)
		for j := range eg {
			eg[j], in[j] = 1+9*rng.Float64(), 1+9*rng.Float64()
		}
		m, initial := randomInstance(rng, n, p)
		s, err := capacityAware(eg, in)
		if err != nil {
			t.Fatal(err)
		}
		digestPlace(t, h, s, m, initial)
	}
	got["one-rack/random"] = sum(h)

	// Leaf-spine fabrics from non-blocking to 4× oversubscribed, idle and
	// with the skew broadcast.
	for _, c := range []struct{ racks, perRack, uplinkPorts int }{
		{2, 4, 4}, {4, 4, 1}, {4, 8, 2}, {8, 16, 4},
	} {
		topo, err := NewLeafSpine(c.racks, c.perRack, frozenPortBw, float64(c.uplinkPorts)*frozenPortBw)
		if err != nil {
			t.Fatal(err)
		}
		h = fnv.New64a()
		for seed := uint64(1); seed <= 4; seed++ {
			plan := frozenPlan(t, topo.N, seed)
			digestPlace(t, h, RackAwareCCF{Topo: topo}, plan.Adjusted, nil)
			digestPlace(t, h, RackAwareCCF{Topo: topo}, plan.Adjusted, plan.Initial)
		}
		got[fmt.Sprintf("leaf-spine/%dx%d/uplink%d", c.racks, c.perRack, c.uplinkPorts)] = sum(h)
	}

	// Leaf-spine, random shape and bandwidths.
	h = fnv.New64a()
	rng = rand.New(rand.NewSource(30))
	for i := 0; i < 400; i++ {
		topo, err := NewLeafSpine(1+rng.Intn(4), 1+rng.Intn(5), 1+9*rng.Float64(), 1+19*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		m, initial := randomInstance(rng, topo.N, 1+rng.Intn(40))
		digestPlace(t, h, RackAwareCCF{Topo: topo}, m, initial)
	}
	got["leaf-spine/random"] = sum(h)
	return got
}

func TestFrozenCapacityAware(t *testing.T) {
	got := frozenCapacityAware(t)
	raw, err := os.ReadFile("testdata/frozen_capacity_aware.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d families, %d recorded", len(got), len(want))
	}
	for name, dg := range got {
		if want[name] != dg {
			t.Errorf("%s: digest %s, recorded %s", name, dg, want[name])
		}
	}
	if t.Failed() {
		js, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("this build computes:\n%s", js)
	}
}
