package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ccf/internal/partition"
	"ccf/internal/placement"
)

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewNonBlocking(0, 1); err == nil {
		t.Error("NewNonBlocking accepted 0 hosts")
	}
	if _, err := NewNonBlocking(2, 0); err == nil {
		t.Error("NewNonBlocking accepted 0 bandwidth")
	}
	if _, err := NewLeafSpine(0, 4, 1, 1); err == nil {
		t.Error("NewLeafSpine accepted 0 racks")
	}
	if _, err := NewLeafSpine(2, 0, 1, 1); err == nil {
		t.Error("NewLeafSpine accepted 0 hosts per rack")
	}
	if _, err := NewLeafSpine(2, 2, -1, 1); err == nil {
		t.Error("NewLeafSpine accepted negative host bandwidth")
	}
}

func TestPathsAndRacks(t *testing.T) {
	topo, err := NewLeafSpine(2, 3, 10, 15)
	if err != nil {
		t.Fatal(err)
	}
	if topo.N != 6 || topo.Racks() != 2 {
		t.Fatalf("topology = %d hosts / %d racks, want 6/2", topo.N, topo.Racks())
	}
	if topo.RackOf(0) != 0 || topo.RackOf(2) != 0 || topo.RackOf(3) != 1 {
		t.Error("rack assignment wrong")
	}
	// Intra-rack: 2 links; cross-rack: 4 links.
	if got := len(topo.Path(0, 2)); got != 2 {
		t.Errorf("intra-rack path has %d links, want 2", got)
	}
	if got := len(topo.Path(0, 4)); got != 4 {
		t.Errorf("cross-rack path has %d links, want 4", got)
	}
	// Oversubscription: 3 hosts × 10 / 15 = 2.
	if got := topo.Oversubscription(); got != 2 {
		t.Errorf("oversubscription = %g, want 2", got)
	}
}

func TestNonBlockingMatchesBaseModel(t *testing.T) {
	// On a single-rack fabric the closed-form CCT equals the base model's
	// max-port-load / bandwidth for any volume matrix.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		topo, err := NewNonBlocking(n, 5)
		if err != nil {
			return false
		}
		vol := make([]int64, n*n)
		eg := make([]int64, n)
		in := make([]int64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				v := int64(rng.Intn(100))
				vol[i*n+j] = v
				eg[i] += v
				in[j] += v
			}
		}
		got, err := topo.SingleCoflowCCT(vol)
		if err != nil {
			return false
		}
		var maxLoad int64
		for i := 0; i < n; i++ {
			if eg[i] > maxLoad {
				maxLoad = eg[i]
			}
			if in[i] > maxLoad {
				maxLoad = in[i]
			}
		}
		want := float64(maxLoad) / 5
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOversubscribedUplinkDominates(t *testing.T) {
	// 2 racks × 2 hosts, host links 10 B/s, uplinks 5 B/s. One cross-rack
	// flow of 10 bytes: bound by the 5 B/s uplink ⇒ CCT 2, not 1.
	topo, err := NewLeafSpine(2, 2, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	vol := make([]int64, 16)
	vol[0*4+2] = 10
	cct, err := topo.SingleCoflowCCT(vol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cct-2) > 1e-9 {
		t.Errorf("cross-rack CCT = %g, want 2 (uplink-bound)", cct)
	}
	// The same flow within a rack is host-bound: CCT 1.
	vol = make([]int64, 16)
	vol[0*4+1] = 10
	cct, err = topo.SingleCoflowCCT(vol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cct-1) > 1e-9 {
		t.Errorf("intra-rack CCT = %g, want 1 (host-bound)", cct)
	}
}

func TestLinkLoadsValidation(t *testing.T) {
	topo, _ := NewNonBlocking(3, 1)
	if _, err := topo.LinkLoads(make([]int64, 5)); err == nil {
		t.Error("LinkLoads accepted a mis-sized matrix")
	}
}

func zipfMatrix(rng *rand.Rand, n, p int) *partition.ChunkMatrix {
	m := partition.MustChunkMatrix(n, p)
	for k := 0; k < p; k++ {
		base := 10_000 + rng.Intn(500)
		for i := 0; i < n; i++ {
			m.Set(i, k, int64(base/(i+1)))
		}
	}
	return m
}

func TestRackAwareReducesToCCFWithoutOversubscription(t *testing.T) {
	// With an effectively infinite core (NewNonBlocking) the rack terms
	// never bind, so RackAwareCCF and plain CCF achieve the same T.
	rng := rand.New(rand.NewSource(9))
	m := zipfMatrix(rng, 8, 40)
	topo, err := NewNonBlocking(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	rackT, err := topo.PlacementCCT(RackAwareCCF{Topo: topo}, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	plainT, err := topo.PlacementCCT(placement.CCF{}, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rackT-plainT) > 1e-9 {
		t.Errorf("non-blocking core: rack-aware T = %g, plain T = %g; want equal", rackT, plainT)
	}
}

func TestRackAwareBeatsPlainOnOversubscribedCore(t *testing.T) {
	// 4 racks × 4 hosts with 4× oversubscription. Plain CCF balances host
	// ports but happily crosses racks; the rack-aware variant must achieve
	// a lower link-level CCT.
	rng := rand.New(rand.NewSource(10))
	topo, err := NewLeafSpine(4, 4, 100, 100) // 4x oversubscription
	if err != nil {
		t.Fatal(err)
	}
	m := zipfMatrix(rng, topo.N, 80)
	rackT, err := topo.PlacementCCT(RackAwareCCF{Topo: topo}, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	plainT, err := topo.PlacementCCT(placement.CCF{}, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rackT > plainT {
		t.Errorf("oversubscribed core: rack-aware T = %g worse than plain %g", rackT, plainT)
	}
	if rackT == plainT {
		t.Logf("note: rack-aware tied plain CCF (T = %g); acceptable but unexpected on this instance", rackT)
	}
}

func TestRackAwareValidation(t *testing.T) {
	m := partition.MustChunkMatrix(4, 2)
	if _, err := (RackAwareCCF{}).Place(m, nil); err == nil {
		t.Error("accepted nil topology")
	}
	topo, _ := NewLeafSpine(2, 3, 1, 1) // 6 hosts != 4 nodes
	if _, err := (RackAwareCCF{Topo: topo}).Place(m, nil); err == nil {
		t.Error("accepted mismatched host count")
	}
	topo4, _ := NewLeafSpine(2, 2, 1, 1)
	bad := &partition.Loads{Egress: []int64{1}, Ingress: []int64{1, 2, 3, 4}}
	if _, err := (RackAwareCCF{Topo: topo4}).Place(m, bad); err == nil {
		t.Error("accepted mis-sized initial loads")
	}
}

func TestRackAwarePlacementIsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		racks := 1 + rng.Intn(3)
		perRack := 1 + rng.Intn(4)
		topo, err := NewLeafSpine(racks, perRack, 10, 5)
		if err != nil {
			return false
		}
		p := 1 + rng.Intn(15)
		m := partition.MustChunkMatrix(topo.N, p)
		for i := range m.H {
			m.H[i] = int64(rng.Intn(50))
		}
		pl, err := RackAwareCCF{Topo: topo}.Place(m, nil)
		if err != nil {
			return false
		}
		return pl.Validate(topo.N, p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
