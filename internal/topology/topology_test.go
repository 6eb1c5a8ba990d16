package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ccf/internal/partition"
	"ccf/internal/placement"
)

// uniformCaps returns n copies of c: the per-host capacities of the paper's
// non-blocking switch.
func uniformCaps(n int, c float64) []float64 {
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = c
	}
	return caps
}

func TestConstructorsValidate(t *testing.T) {
	// NewNonBlocking refuses what netsim.NewHeterogeneousFabric refuses.
	for _, c := range []struct {
		name    string
		eg, in  []float64
		wantErr bool
	}{
		{"no hosts", nil, nil, true},
		{"mismatched sizes", []float64{1}, []float64{1, 2}, true},
		{"zero egress", []float64{1, 0}, []float64{1, 1}, true},
		{"negative ingress", []float64{1, 1}, []float64{1, -1}, true},
		{"NaN egress", []float64{math.NaN(), 1}, []float64{1, 1}, true},
		{"infinite ingress", []float64{1, 1}, []float64{1, math.Inf(1)}, true},
		{"per-port capacities", []float64{1, 8}, []float64{3, 1}, false},
	} {
		topo, err := NewNonBlocking(c.eg, c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("NewNonBlocking %s: err = %v, want error %v", c.name, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if topo.N != len(c.eg) || topo.Racks() != 1 {
			t.Errorf("NewNonBlocking %s: %d hosts / %d racks, want %d/1", c.name, topo.N, topo.Racks(), len(c.eg))
		}
		for i := range c.eg {
			up, down := topo.Path(i, (i+1)%topo.N)[0], topo.Path((i+1)%topo.N, i)[1]
			if topo.Links[up].Cap != c.eg[i] || topo.Links[down].Cap != c.in[i] {
				t.Errorf("NewNonBlocking %s: host %d links %g/%g, want %g/%g",
					c.name, i, topo.Links[up].Cap, topo.Links[down].Cap, c.eg[i], c.in[i])
			}
		}
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
	if _, err := NewLeafSpine(2, 2, 1, math.NaN()); err == nil {
		t.Error("NewLeafSpine accepted a NaN uplink bandwidth")
	}
	if _, err := NewLeafSpine(2, 2, math.Inf(1), 1); err == nil {
		t.Error("NewLeafSpine accepted an infinite host bandwidth")
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
		topo, err := NewNonBlocking(uniformCaps(n, 5), uniformCaps(n, 5))
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

func TestSingleCoflowCCTPerPortCapacities(t *testing.T) {
	// Two hosts at 2 B/s: 0→1 carries 14 bytes, 1→0 4, so the busiest port
	// moves 14 bytes and the CCT is 7 s.
	two, err := NewNonBlocking(uniformCaps(2, 2), uniformCaps(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := two.SingleCoflowCCT([]int64{0, 14, 4, 0}); err != nil || got != 7 {
		t.Errorf("uniform CCT = %g (err %v), want 7", got, err)
	}
	// Three hosts, host 1's ingress at 2 B/s and every other port at 10 B/s.
	// Egress 0 carries the most bytes (100 → 10 s), but ingress 1's 40 bytes
	// take 20 s.
	three, err := NewNonBlocking([]float64{10, 10, 10}, []float64{10, 2, 10})
	if err != nil {
		t.Fatal(err)
	}
	vol := []int64{
		0, 40, 60,
		0, 0, 10,
		0, 0, 0,
	}
	if got, err := three.SingleCoflowCCT(vol); err != nil || got != 20 {
		t.Errorf("per-port CCT = %g (err %v), want 20", got, err)
	}
	if got, err := three.SingleCoflowCCT(make([]int64, 9)); err != nil || got != 0 {
		t.Errorf("empty coflow CCT = %g (err %v), want 0", got, err)
	}
}

func TestLinkLoadsValidation(t *testing.T) {
	topo, _ := NewNonBlocking(uniformCaps(3, 1), uniformCaps(3, 1))
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

// linkReference is the naive O(p·n²·|path|) greedy over the link table:
// partitions by descending largest chunk (ties by index), each to the
// destination minimising the largest load ÷ capacity over every link once
// its flows are routed along Path, lowest index among equals. Initial loads
// start on the host links.
func linkReference(topo *Topology, m *partition.ChunkMatrix, initial *partition.Loads) *partition.Placement {
	n, p := m.N, m.P
	load := make([]int64, len(topo.Links))
	if initial != nil {
		for i := 0; i < n; i++ {
			load[topo.hostUp[i]] += initial.Egress[i]
			load[topo.hostDown[i]] += initial.Ingress[i]
		}
	}
	order := make([]int, p)
	for k := range order {
		order[k] = k
	}
	maxChunk, _ := m.MaxChunk()
	sort.SliceStable(order, func(a, b int) bool { return maxChunk[order[a]] > maxChunk[order[b]] })
	route := func(l []int64, k, d int) {
		for i := 0; i < n; i++ {
			if i == d {
				continue
			}
			for _, id := range topo.Path(i, d) {
				l[id] += m.At(i, k)
			}
		}
	}
	pl := partition.NewPlacement(p)
	trial := make([]int64, len(load))
	for _, k := range order {
		bestD, bestT := -1, 0.0
		for d := 0; d < n; d++ {
			copy(trial, load)
			route(trial, k, d)
			var T float64
			for id, v := range trial {
				if x := float64(v) / topo.Links[id].Cap; x > T {
					T = x
				}
			}
			if bestD == -1 || T < bestT {
				bestD, bestT = d, T
			}
		}
		pl.Dest[k] = bestD
		route(load, k, bestD)
	}
	return pl
}

func TestRackAwareMatchesReference(t *testing.T) {
	// Seeded leaf-spine shapes (one rack included) with random host and
	// uplink bandwidths, and one-rack fabrics with random per-port
	// capacities; about half the instances carry initial loads.
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 600; i++ {
		var topo *Topology
		var err error
		if i%2 == 0 {
			topo, err = NewLeafSpine(1+rng.Intn(4), 1+rng.Intn(4), 1+9*rng.Float64(), 1+19*rng.Float64())
		} else {
			n := 2 + rng.Intn(8)
			eg, in := make([]float64, n), make([]float64, n)
			for j := range eg {
				eg[j], in[j] = 1+9*rng.Float64(), 1+9*rng.Float64()
			}
			topo, err = NewNonBlocking(eg, in)
		}
		if err != nil {
			t.Fatal(err)
		}
		m, initial := randomInstance(rng, topo.N, 1+rng.Intn(25))
		got, err := RackAwareCCF{Topo: topo}.Place(m, initial)
		if err != nil {
			t.Fatal(err)
		}
		want := linkReference(topo, m, initial)
		if !slices.Equal(got.Dest, want.Dest) {
			t.Fatalf("instance %d (%d hosts, %d racks, initial %v): Dest %v, reference %v",
				i, topo.N, topo.Racks(), initial != nil, got.Dest, want.Dest)
		}
	}
}

// TestRackAwareMatchesReferenceOnHardRegimes is the property above on the
// instance families where the shared placer's shortcuts do their work, as
// placement's TestCCFMatchesReferenceOnHardRegimes checks them on the switch:
// the candidate scan's early exit (host loads far above what a job adds), the
// ingress top-2 carried across partitions (rescanned when a negative chunk
// shrinks a port), tied maxima, and the egress, ingress and uplink argmaxes
// before, at and after the index where the scan first stops. Even seeds draw
// a one-rack table with per-port capacities, odd ones a leaf-spine fabric of
// up to 5 × 5 hosts.
func TestRackAwareMatchesReferenceOnHardRegimes(t *testing.T) {
	loads := func(n int, f func(i int) (eg, in int64)) *partition.Loads {
		l := &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
		for i := 0; i < n; i++ {
			l.Egress[i], l.Ingress[i] = f(i)
		}
		return l
	}
	chunks := func(rng *rand.Rand, n, p, below int) *partition.ChunkMatrix {
		m := partition.MustChunkMatrix(n, p)
		for i := range m.H {
			m.H[i] = int64(rng.Intn(below))
		}
		return m
	}
	for _, fam := range []struct {
		name  string
		equal bool // one capacity for every link
		gen   func(rng *rand.Rand, topo *Topology) (*partition.ChunkMatrix, *partition.Loads)
	}{
		{"standing backlog", false, func(rng *rand.Rand, topo *Topology) (*partition.ChunkMatrix, *partition.Loads) {
			return chunks(rng, topo.N, 1+rng.Intn(64), 100), loads(topo.N, func(int) (int64, int64) {
				return 1e6 + int64(rng.Intn(30)), 1e6 + int64(rng.Intn(30))
			})
		}},
		{"ties everywhere", true, func(rng *rand.Rand, topo *Topology) (*partition.ChunkMatrix, *partition.Loads) {
			// One chunk size and one load on equal capacities: e1 = e2,
			// in1 = in2, equal rack terms, and equal T on every candidate.
			m := partition.MustChunkMatrix(topo.N, 1+rng.Intn(64))
			chunk, load := int64(rng.Intn(3)), int64(rng.Intn(2)*1000)
			for i := range m.H {
				m.H[i] = chunk
			}
			return m, loads(topo.N, func(int) (int64, int64) { return load, load })
		}},
		{"stop index against the special links", false, func(rng *rand.Rand, topo *Topology) (*partition.ChunkMatrix, *partition.Loads) {
			// Host a holds the egress maximum and host b the ingress maximum;
			// hosts before s sit just under it, so the scan first stops at s.
			// The hosts of rack q hold ten times the chunks, so on a
			// leaf-spine its uplink leads the rack terms; a, b and q fall
			// before, at and after s and s's rack.
			n := topo.N
			a, b, stop, q := rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Intn(topo.Racks())
			m := chunks(rng, n, 1+rng.Intn(40), 100)
			for i := 0; i < n; i++ {
				if topo.RackOf(i) == q {
					for k := range m.Row(i) {
						m.Row(i)[k] *= 10
					}
				}
			}
			top := int64(1e4 + 50*(rng.Intn(3)-1))
			return m, loads(n, func(i int) (eg, in int64) {
				eg, in = int64(rng.Intn(30)), int64(rng.Intn(30))
				if i == a {
					eg = 1e4 + int64(rng.Intn(5))
				}
				if i == b {
					in = top
				} else if i < stop {
					in = top - int64(rng.Intn(40))
				}
				return eg, in
			})
		}},
		{"negative chunks", false, func(rng *rand.Rand, topo *Topology) (*partition.ChunkMatrix, *partition.Loads) {
			// Ingress ports shrink (the carried top-2 is rescanned) and every
			// load can sit below the −1 sentinel.
			m := chunks(rng, topo.N, 1+rng.Intn(64), 100)
			shift := int64(rng.Intn(120))
			for i := range m.H {
				if rng.Intn(4) == 0 {
					m.H[i] -= shift
				}
			}
			base := int64(rng.Intn(3)-1) * 2000
			return m, loads(topo.N, func(int) (int64, int64) { return base + int64(rng.Intn(30)), base + int64(rng.Intn(30)) })
		}},
	} {
		t.Run(fam.name, func(t *testing.T) {
			for seed := int64(0); seed < 400; seed++ {
				rng := rand.New(rand.NewSource(seed))
				capOf := func(lo, hi float64) float64 {
					if fam.equal {
						return 4
					}
					return lo + (hi-lo)*rng.Float64()
				}
				var topo *Topology
				var err error
				if seed%2 == 0 {
					n := 1 + rng.Intn(16)
					eg, in := make([]float64, n), make([]float64, n)
					for i := range eg {
						eg[i], in[i] = capOf(1, 10), capOf(1, 10)
					}
					topo, err = NewNonBlocking(eg, in)
				} else {
					topo, err = NewLeafSpine(1+rng.Intn(5), 1+rng.Intn(5), capOf(1, 10), capOf(0.5, 20))
				}
				if err != nil {
					t.Fatal(err)
				}
				m, initial := fam.gen(rng, topo)
				got, err := RackAwareCCF{Topo: topo}.Place(m, initial)
				if err != nil {
					t.Fatal(err)
				}
				if want := linkReference(topo, m, initial); !slices.Equal(got.Dest, want.Dest) {
					t.Fatalf("seed %d, %d hosts in %d racks: Place = %v, reference = %v\nh = %v\ninitial = %+v",
						seed, topo.N, topo.Racks(), got.Dest, want.Dest, m.H, initial)
				}
			}
		})
	}
}

func TestRackAwareReducesToCCFWithoutOversubscription(t *testing.T) {
	// On a one-rack topology with equal capacities the rack terms are zero
	// and every host term is load ÷ the same R, so the link-level greedy
	// makes CCF's choice at every step: Dest is equal, idle and on top of
	// initial loads.
	check := func(name string, m *partition.ChunkMatrix, initial *partition.Loads, bw float64) {
		t.Helper()
		topo, err := NewNonBlocking(uniformCaps(m.N, bw), uniformCaps(m.N, bw))
		if err != nil {
			t.Fatal(err)
		}
		rack, err := RackAwareCCF{Topo: topo}.Place(m, initial)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := placement.CCF{}.Place(m, initial)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rack.Dest, plain.Dest) {
			t.Fatalf("%s: RackAwareCCF Dest %v, CCF %v", name, rack.Dest, plain.Dest)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		m, initial := randomInstance(rng, 2+rng.Intn(12), 1+rng.Intn(40))
		check(fmt.Sprintf("random %d", i), m, initial, 1+99*rng.Float64())
	}
	for seed := uint64(1); seed <= 8; seed++ {
		plan := frozenPlan(t, 8*int(seed), seed)
		check(fmt.Sprintf("plan %d idle", seed), plan.Adjusted, nil, frozenPortBw)
		check(fmt.Sprintf("plan %d broadcast", seed), plan.Adjusted, plan.Initial, frozenPortBw)
	}
}

func TestPlacementCCTCountsBroadcast(t *testing.T) {
	// A skewed job's CCT includes its broadcast flows: on the paper's
	// non-blocking switch PlacementCCT is the bottleneck placement.Evaluate
	// reports (initial loads + placed volumes) over the port bandwidth — the
	// figure core.RunScheduler prints.
	for seed := uint64(1); seed <= 4; seed++ {
		plan := frozenPlan(t, 16, seed)
		topo, err := NewNonBlocking(uniformCaps(16, frozenPortBw), uniformCaps(16, frozenPortBw))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []placement.Scheduler{
			placement.Hash{}, placement.Mini{}, placement.CCF{}, RackAwareCCF{Topo: topo},
		} {
			got, err := topo.PlacementCCT(s, plan.Adjusted, plan.Initial, plan.BroadcastVolumes)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := placement.Evaluate(s, plan.Adjusted, plan.Initial, plan.BroadcastVolumes)
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(ev.BottleneckBytes) / frozenPortBw; got != want {
				t.Errorf("seed %d %s: PlacementCCT = %.9g s, bottleneck / bandwidth = %.9g s", seed, s.Name(), got, want)
			}
		}
	}
}

func TestRackAwareAvoidsSlowPort(t *testing.T) {
	// Nodes 1 and 2 hold equal chunks of the partition, but node 1's
	// ingress is 10× slower: the partition must not go there.
	m := partition.MustChunkMatrix(3, 1)
	m.Set(0, 0, 100) // source holding most of the data
	m.Set(1, 0, 10)
	m.Set(2, 0, 10)
	in := uniformCaps(3, 100)
	in[1] = 10
	topo, err := NewNonBlocking(uniformCaps(3, 100), in)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := RackAwareCCF{Topo: topo}.Place(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Dest[0] == 1 {
		t.Errorf("capacity-aware CCF sent the partition to the slow port (dest=%d)", pl.Dest[0])
	}
}

func TestRackAwareBeatsPlainOnHeterogeneousFabric(t *testing.T) {
	// Power-law data plus one degraded node: node 0, which every partition
	// would otherwise target, has a 10× slower ingress. The capacity-aware
	// placer must achieve a lower CCT than the oblivious one.
	rng := rand.New(rand.NewSource(8))
	m := zipfMatrix(rng, 10, 80)
	in := uniformCaps(10, 1000)
	in[0] = 100
	topo, err := NewNonBlocking(uniformCaps(10, 1000), in)
	if err != nil {
		t.Fatal(err)
	}
	rackT, err := topo.PlacementCCT(RackAwareCCF{Topo: topo}, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	plainT, err := topo.PlacementCCT(placement.CCF{}, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rackT >= plainT {
		t.Errorf("degraded fabric: capacity-aware T = %g s not better than plain CCF %g s", rackT, plainT)
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
	rackT, err := topo.PlacementCCT(RackAwareCCF{Topo: topo}, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	plainT, err := topo.PlacementCCT(placement.CCF{}, m, nil, nil)
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
	// Initial loads sized for another fabric are an error, not an idle
	// network, on a leaf-spine and on a one-rack topology alike.
	leafSpine, _ := NewLeafSpine(2, 2, 1, 1)
	oneRack, _ := NewNonBlocking([]float64{1, 2, 3, 4}, []float64{4, 3, 2, 1})
	for _, topo := range []*Topology{leafSpine, oneRack} {
		for _, bad := range []*partition.Loads{
			{Egress: []int64{1}, Ingress: []int64{1, 2, 3, 4}},
			{Egress: []int64{1, 2, 3, 4}, Ingress: []int64{1}},
			{Egress: []int64{1, 2, 3, 4, 5}, Ingress: []int64{1, 2, 3, 4, 5}},
		} {
			if _, err := (RackAwareCCF{Topo: topo}).Place(m, bad); err == nil {
				t.Errorf("%d racks: accepted initial loads sized %d/%d for 4 hosts",
					topo.Racks(), len(bad.Egress), len(bad.Ingress))
			}
		}
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
