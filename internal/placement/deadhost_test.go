package placement

import (
	"math/rand"
	"slices"
	"testing"

	"ccf/internal/partition"
)

// A host whose links have capacity 0 is a dead host: Algorithm 1 never places
// on it, and it must hold nothing. The oracle is compaction: copy the live
// rows into a smaller matrix, run CCF{} on it and map the destinations back.

// compacted places m by CCF{} over the rows of the hosts with alive[i] set,
// destinations mapped back to m's host indices.
func compacted(m *partition.ChunkMatrix, initial *partition.Loads, alive []bool) (*partition.Placement, error) {
	var live []int
	for i, ok := range alive {
		if ok {
			live = append(live, i)
		}
	}
	sub, err := partition.NewChunkMatrix(len(live), m.P)
	if err != nil {
		return nil, err
	}
	var subInit *partition.Loads
	if initial != nil {
		subInit = &partition.Loads{Egress: make([]int64, len(live)), Ingress: make([]int64, len(live))}
	}
	for s, i := range live {
		copy(sub.Row(s), m.Row(i))
		if initial != nil {
			subInit.Egress[s], subInit.Ingress[s] = initial.Egress[i], initial.Ingress[i]
		}
	}
	pl, err := CCF{}.Place(sub, subInit)
	if err != nil {
		return nil, err
	}
	for k, s := range pl.Dest {
		pl.Dest[k] = live[s]
	}
	return pl, nil
}

// deadHosts is the link table of unit-capacity live hosts and zero-capacity
// dead ones, as core.RunWithNodeLoss builds it.
func deadHosts(alive []bool) *Links {
	c := make([]float64, len(alive))
	for i, ok := range alive {
		if ok {
			c[i] = 1
		}
	}
	return &Links{Egress: c, Ingress: c}
}

// checkDeadHosts places m through PlaceOnLinks with the hosts not alive dead.
// A dead host that holds a chunk or an initial load, or no live host at all,
// must be refused; anything else must be the compacted placement.
func checkDeadHosts(t *testing.T, m *partition.ChunkMatrix, initial *partition.Loads, alive []bool) {
	t.Helper()
	got, err := PlaceOnLinks(m, initial, deadHosts(alive))
	refuse := !slices.Contains(alive, true)
	for i, ok := range alive {
		if !ok {
			refuse = refuse || slices.ContainsFunc(m.Row(i), func(h int64) bool { return h != 0 }) ||
				initial != nil && (initial.Egress[i] != 0 || initial.Ingress[i] != 0)
		}
	}
	if refuse {
		if err == nil {
			t.Fatalf("alive %v, h = %v, initial = %+v: placed %v, want a refusal", alive, m.H, initial, got.Dest)
		}
		return
	}
	if err != nil {
		t.Fatalf("alive %v: %v", alive, err)
	}
	want, err := compacted(m, initial, alive)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Dest, want.Dest) {
		t.Fatalf("alive %v, %d×%d: PlaceOnLinks = %v, compacted CCF = %v\nh = %v\ninitial = %+v",
			alive, m.N, m.P, got.Dest, want.Dest, m.H, initial)
	}
}

// TestPlaceOnLinksDeadHostsMatchCompaction kills random hosts in the hard
// regimes of TestCCFMatchesReferenceOnHardRegimes, their rows and loads
// cleared. Negative chunks are left out: a dead row of zeros then counts
// towards a partition's largest chunk, which compaction drops, so the visit
// orders differ. Chunks are byte counts; only a replayed journal holds any
// below zero, and it is placed on the switch.
func TestPlaceOnLinksDeadHostsMatchCompaction(t *testing.T) {
	instances := 0
	for _, fam := range hardRegimes() {
		if fam.name == "negative chunks" {
			continue
		}
		for seed := int64(0); seed < 1300; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, init := fam.gen(rng)
			alive := make([]bool, m.N)
			for i := range alive {
				alive[i] = rng.Intn(3) > 0
				if !alive[i] {
					clear(m.Row(i))
					if init != nil {
						init.Egress[i], init.Ingress[i] = 0, 0
					}
				}
			}
			checkDeadHosts(t, m, init, alive)
			instances++
		}
	}
	if instances < 10_000 {
		t.Errorf("%d instances, want at least 10 000", instances)
	}
}

// FuzzPlaceOnLinksDeadHosts draws a matrix of 1–13 hosts and 1–32 partitions
// with the hosts whose bit is set in dead killed. chunks and loads fill the
// matrix row-major and the (egress, ingress) initial loads host by host, each
// repeated to length; no loads means no initial loads. Unless keepDead is
// set, the dead hosts' rows and loads are cleared.
func FuzzPlaceOnLinksDeadHosts(f *testing.F) {
	// All hosts but host 2 of 5 dead.
	f.Add(uint8(4), uint8(5), uint16(0b11011), []byte{1, 2, 3, 4, 5, 6, 7}, []byte{10, 20}, false)
	// Host 0 of 3 dead, partition 1 empty: every candidate ties on it, and
	// the dead host is the lowest index.
	f.Add(uint8(2), uint8(1), uint16(0b001), []byte{0, 0, 5, 0, 3, 0}, []byte(nil), false)
	// One chunk size and one load everywhere.
	f.Add(uint8(3), uint8(3), uint16(0b0010), []byte{7}, []byte{3}, false)
	// Initial loads on the survivors.
	f.Add(uint8(5), uint8(8), uint16(0b100100), []byte{9, 0, 4, 200, 13, 1, 77}, []byte{50, 0, 120, 3, 9}, false)
	// Refused: dead host 1 holds chunks.
	f.Add(uint8(2), uint8(1), uint16(0b010), []byte{1, 2, 3, 4, 5, 6}, []byte(nil), true)
	// Refused: no host can receive.
	f.Add(uint8(2), uint8(1), uint16(0b111), []byte(nil), []byte(nil), false)
	f.Fuzz(func(t *testing.T, n, p uint8, dead uint16, chunks, loads []byte, keepDead bool) {
		hosts, parts := 1+int(n)%13, 1+int(p)%32
		m := partition.MustChunkMatrix(hosts, parts)
		if len(chunks) > 0 {
			for j := range m.H {
				m.H[j] = int64(chunks[j%len(chunks)])
			}
		}
		var initial *partition.Loads
		if len(loads) > 0 {
			initial = &partition.Loads{Egress: make([]int64, hosts), Ingress: make([]int64, hosts)}
			for i := range hosts {
				initial.Egress[i] = int64(loads[2*i%len(loads)])
				initial.Ingress[i] = int64(loads[(2*i+1)%len(loads)])
			}
		}
		alive := make([]bool, hosts)
		for i := range alive {
			alive[i] = dead>>i&1 == 0
			if !alive[i] && !keepDead {
				clear(m.Row(i))
				if initial != nil {
					initial.Egress[i], initial.Ingress[i] = 0, 0
				}
			}
		}
		checkDeadHosts(t, m, initial, alive)
	})
}

// TestPlaceOnLinksSkipsDeadHosts: nothing lands on a host that cannot
// receive, and a host that can receive but not send (it holds nothing) is a
// destination like any other.
func TestPlaceOnLinksSkipsDeadHosts(t *testing.T) {
	m := partition.MustChunkMatrix(4, 6)
	for k := 0; k < 6; k++ {
		m.Set(k%2, k, int64(100*(k+1)))
		m.Set(3, k, 40)
	}
	pl, err := PlaceOnLinks(m, nil, deadHosts([]bool{true, true, false, true}))
	if err != nil {
		t.Fatal(err)
	}
	for k, d := range pl.Dest {
		if d == 2 {
			t.Errorf("partition %d placed on dead host 2", k)
		}
	}
	// Host 2 cannot send and holds nothing; with the other receivers
	// backlogged, the partition goes to it.
	r := partition.MustChunkMatrix(3, 1)
	r.Set(0, 0, 50)
	r.Set(1, 0, 50)
	initial := &partition.Loads{Egress: make([]int64, 3), Ingress: []int64{1000, 1000, 0}}
	pl, err = PlaceOnLinks(r, initial, &Links{Egress: []float64{1, 1, 0}, Ingress: []float64{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Dest[0] != 2 {
		t.Errorf("partition went to host %d, want receive-only host 2", pl.Dest[0])
	}
}

// TestPlaceOnLinksDeadHostBacklog: the survivors' initial loads count. Host 1
// holds the larger chunk and would receive the partition on an idle fabric;
// its ingress backlog sends it to host 2.
func TestPlaceOnLinksDeadHostBacklog(t *testing.T) {
	m := partition.MustChunkMatrix(3, 1)
	m.Set(1, 0, 60)
	m.Set(2, 0, 50)
	alive := []bool{false, true, true}
	for _, c := range []struct {
		backlog int64
		want    int
	}{{0, 1}, {1_000_000, 2}} {
		initial := &partition.Loads{Egress: make([]int64, 3), Ingress: []int64{0, c.backlog, 0}}
		pl, err := PlaceOnLinks(m, initial, deadHosts(alive))
		if err != nil {
			t.Fatal(err)
		}
		if pl.Dest[0] != c.want {
			t.Errorf("backlog %d on host 1: partition went to host %d, want %d", c.backlog, pl.Dest[0], c.want)
		}
	}
}

// TestPlaceOnLinksDeadHostValidation: a liveness mask that does not cover the
// matrix's hosts, a cluster with no survivor, and a dead host that still
// holds a chunk are refused.
func TestPlaceOnLinksDeadHostValidation(t *testing.T) {
	m := partition.MustChunkMatrix(2, 2)
	if _, err := PlaceOnLinks(m, nil, deadHosts([]bool{true})); err == nil {
		t.Error("mask length mismatch accepted")
	}
	if _, err := PlaceOnLinks(m, nil, deadHosts([]bool{false, false})); err == nil {
		t.Error("empty survivor set accepted")
	}
	m.Set(1, 0, 5)
	if _, err := PlaceOnLinks(m, nil, deadHosts([]bool{true, false})); err == nil {
		t.Error("dead host holding a chunk accepted")
	}
}
