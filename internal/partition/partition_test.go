package partition

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustMatrix(t *testing.T, n, p int, vals ...int64) *ChunkMatrix {
	t.Helper()
	m := MustChunkMatrix(n, p)
	if len(vals) != n*p {
		t.Fatalf("test bug: %d values for %dx%d matrix", len(vals), n, p)
	}
	copy(m.H, vals)
	return m
}

func TestNewChunkMatrixBadDims(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{0, 1}, {1, 0}, {-1, 5}, {5, -1}} {
		if m, err := NewChunkMatrix(tc.n, tc.p); err == nil {
			t.Errorf("NewChunkMatrix(%d,%d) = %v, want error", tc.n, tc.p, m)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustChunkMatrix(%d,%d) did not panic", tc.n, tc.p)
				}
			}()
			MustChunkMatrix(tc.n, tc.p)
		}()
	}
	if m, err := NewChunkMatrix(2, 3); err != nil || m.N != 2 || m.P != 3 || len(m.H) != 6 {
		t.Errorf("NewChunkMatrix(2,3) = %v, %v", m, err)
	}
}

func TestChunkMatrixAccessors(t *testing.T) {
	m := MustChunkMatrix(2, 3)
	m.Set(0, 1, 10)
	m.Add(0, 1, 5)
	m.Set(1, 2, 7)
	if got := m.At(0, 1); got != 15 {
		t.Errorf("At(0,1) = %d, want 15", got)
	}
	if got := m.At(1, 2); got != 7 {
		t.Errorf("At(1,2) = %d, want 7", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("At(1,0) = %d, want 0", got)
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Errorf("Row(1) = %v, want [0 0 7]", row)
	}
	// Row aliases storage.
	row[0] = 99
	if m.At(1, 0) != 99 {
		t.Error("Row must alias the matrix storage")
	}
}

func TestPartitionAndNodeTotals(t *testing.T) {
	m := mustMatrix(t, 2, 3,
		1, 2, 3,
		4, 5, 6)
	pt := m.PartitionTotals()
	if pt[0] != 5 || pt[1] != 7 || pt[2] != 9 {
		t.Errorf("PartitionTotals = %v, want [5 7 9]", pt)
	}
	nt := m.NodeTotals()
	if nt[0] != 6 || nt[1] != 15 {
		t.Errorf("NodeTotals = %v, want [6 15]", nt)
	}
	if m.TotalBytes() != 21 {
		t.Errorf("TotalBytes = %d, want 21", m.TotalBytes())
	}
}

func TestMaxChunkTiesToLowestNode(t *testing.T) {
	m := mustMatrix(t, 3, 2,
		5, 0,
		5, 9,
		4, 9)
	size, node := m.MaxChunk()
	if size[0] != 5 || node[0] != 0 {
		t.Errorf("partition 0: max = (%d, node %d), want (5, node 0) on tie", size[0], node[0])
	}
	if size[1] != 9 || node[1] != 1 {
		t.Errorf("partition 1: max = (%d, node %d), want (9, node 1) on tie", size[1], node[1])
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := mustMatrix(t, 1, 2, 1, 2)
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with the original")
	}
}

func TestValidateCatchesNegativeChunk(t *testing.T) {
	m := mustMatrix(t, 2, 2, 0, 1, -3, 2)
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted a negative chunk")
	}
	m.Set(1, 0, 3)
	if err := m.Validate(); err != nil {
		t.Errorf("Validate rejected a valid matrix: %v", err)
	}
}

func TestValidateCatchesBadStorage(t *testing.T) {
	m := MustChunkMatrix(2, 2)
	m.H = m.H[:3]
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted truncated storage")
	}
}

func TestPlacementValidate(t *testing.T) {
	pl := NewPlacement(3)
	if err := pl.Validate(2, 3); !errors.Is(err, ErrUnassigned) {
		t.Errorf("unassigned placement: err = %v, want ErrUnassigned", err)
	}
	pl.Dest = []int{0, 1, 2}
	if err := pl.Validate(2, 3); err == nil {
		t.Error("Validate accepted destination outside node range")
	}
	pl.Dest = []int{0, 1, 1}
	if err := pl.Validate(2, 3); err != nil {
		t.Errorf("Validate rejected valid placement: %v", err)
	}
	if err := pl.Validate(2, 4); err == nil {
		t.Error("Validate accepted wrong partition count")
	}
}

func TestComputeLoadsLocalMovesAreFree(t *testing.T) {
	m := mustMatrix(t, 2, 2,
		10, 3,
		0, 7)
	pl := &Placement{Dest: []int{0, 1}}
	l, err := ComputeLoads(m, pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Partition 0 → node 0: node 0's 10 bytes stay local. Partition 1 →
	// node 1: node 0 sends 3, node 1's 7 stay.
	if l.Egress[0] != 3 || l.Egress[1] != 0 {
		t.Errorf("Egress = %v, want [3 0]", l.Egress)
	}
	if l.Ingress[0] != 0 || l.Ingress[1] != 3 {
		t.Errorf("Ingress = %v, want [0 3]", l.Ingress)
	}
	if l.Traffic() != 3 {
		t.Errorf("Traffic = %d, want 3", l.Traffic())
	}
	if l.Max() != 3 {
		t.Errorf("Max = %d, want 3", l.Max())
	}
}

func TestComputeLoadsWithInitial(t *testing.T) {
	m := mustMatrix(t, 2, 1, 4, 0)
	pl := &Placement{Dest: []int{1}}
	init := &Loads{Egress: []int64{1, 0}, Ingress: []int64{0, 2}}
	l, err := ComputeLoads(m, pl, init)
	if err != nil {
		t.Fatal(err)
	}
	if l.Egress[0] != 5 || l.Ingress[1] != 6 {
		t.Errorf("loads with initial = eg %v in %v, want eg[0]=5 in[1]=6", l.Egress, l.Ingress)
	}
	// Initial must not be mutated.
	if init.Egress[0] != 1 || init.Ingress[1] != 2 {
		t.Error("ComputeLoads mutated the initial loads")
	}
}

func TestComputeLoadsRejectsBadInitial(t *testing.T) {
	m := mustMatrix(t, 2, 1, 4, 0)
	pl := &Placement{Dest: []int{1}}
	_, err := ComputeLoads(m, pl, &Loads{Egress: []int64{1}, Ingress: []int64{0, 2}})
	if err == nil {
		t.Error("ComputeLoads accepted mis-sized initial loads")
	}
}

func TestFlowVolumes(t *testing.T) {
	m := mustMatrix(t, 3, 2,
		5, 1,
		0, 2,
		3, 0)
	pl := &Placement{Dest: []int{0, 1}}
	vol, err := FlowVolumes(m, pl)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{
		0, 1, 0, // node 0 sends its partition-1 chunk to node 1
		0, 0, 0, // node 1 keeps partition 1 locally
		3, 0, 0, // node 2 sends partition 0 to node 0
	}
	for i := range want {
		if vol[i] != want[i] {
			t.Fatalf("FlowVolumes = %v, want %v", vol, want)
		}
	}
}

// TestFlowVolumesIntoReusesStorage: one buffer carried across matrices of
// different sizes gives the textbook v_ij each time — nothing of the previous
// job, or of what the caller left in the buffer, shows through — and a buffer
// that is large enough is not reallocated.
func TestFlowVolumesIntoReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var vol []int64
	for _, n := range []int{6, 3, 6, 1} {
		p := n + rng.Intn(10)
		m := MustChunkMatrix(n, p)
		for i := range m.H {
			m.H[i] = int64(rng.Intn(100)) - 10 // a few negative and zero cells too
		}
		pl := NewPlacement(p)
		for k := range pl.Dest {
			pl.Dest[k] = rng.Intn(n)
		}
		want := make([]int64, n*n)
		for i := 0; i < n; i++ {
			for k := 0; k < p; k++ {
				if d := pl.Dest[k]; d != i {
					want[i*n+d] += m.At(i, k)
				}
			}
		}
		for i := range vol[:cap(vol)] {
			vol[:cap(vol)][i] = -1
		}
		before := cap(vol)
		got, err := FlowVolumesInto(vol, m, pl)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: FlowVolumesInto = %v, want %v", n, got, want)
		}
		if before >= n*n && &got[0] != &vol[:1][0] {
			t.Errorf("n=%d: buffer of %d entries was reallocated", n, before)
		}
		vol = got
	}
	if _, err := FlowVolumesInto(vol, MustChunkMatrix(2, 2), NewPlacement(2)); err == nil {
		t.Error("FlowVolumesInto accepted an unassigned placement")
	}
}

func TestTrafficEqualsFlowVolumeSum(t *testing.T) {
	// Property: ComputeLoads traffic == Σ FlowVolumes for any placement.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		p := 1 + rng.Intn(10)
		m := MustChunkMatrix(n, p)
		for i := range m.H {
			m.H[i] = int64(rng.Intn(100))
		}
		pl := NewPlacement(p)
		for k := range pl.Dest {
			pl.Dest[k] = rng.Intn(n)
		}
		l, err := ComputeLoads(m, pl, nil)
		if err != nil {
			return false
		}
		vol, err := FlowVolumes(m, pl)
		if err != nil {
			return false
		}
		var sum int64
		for _, v := range vol {
			sum += v
		}
		var inSum int64
		for _, v := range l.Ingress {
			inSum += v
		}
		return l.Traffic() == sum && inSum == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEgressIngressConservation(t *testing.T) {
	// Property: Σ egress == Σ ingress == total bytes − locally kept bytes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		p := 1 + rng.Intn(12)
		m := MustChunkMatrix(n, p)
		for i := range m.H {
			m.H[i] = int64(rng.Intn(50))
		}
		pl := NewPlacement(p)
		var kept int64
		for k := range pl.Dest {
			d := rng.Intn(n)
			pl.Dest[k] = d
			kept += m.At(d, k)
		}
		l, err := ComputeLoads(m, pl, nil)
		if err != nil {
			return false
		}
		var eg, in int64
		for i := 0; i < n; i++ {
			eg += l.Egress[i]
			in += l.Ingress[i]
		}
		return eg == in && eg == m.TotalBytes()-kept
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModPartitioner(t *testing.T) {
	p := ModPartitioner{NumPartitions: 7}
	if p.P() != 7 {
		t.Errorf("P() = %d, want 7", p.P())
	}
	if got := p.Partition(15); got != 1 {
		t.Errorf("Partition(15) = %d, want 1", got)
	}
	if got := p.Partition(-3); got < 0 || got >= 7 {
		t.Errorf("Partition(-3) = %d, must be in [0,7)", got)
	}
	if got := p.Partition(0); got != 0 {
		t.Errorf("Partition(0) = %d, want 0", got)
	}
}

func TestLoadsMaxEmpty(t *testing.T) {
	l := &Loads{}
	if l.Max() != 0 || l.Traffic() != 0 {
		t.Error("empty Loads should have zero max and traffic")
	}
}
