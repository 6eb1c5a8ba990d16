package placement

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ccf/internal/partition"
)

func randomMatrix(rng *rand.Rand, n, p, maxChunk int) *partition.ChunkMatrix {
	m := partition.MustChunkMatrix(n, p)
	for i := range m.H {
		m.H[i] = int64(rng.Intn(maxChunk))
	}
	return m
}

func TestHashPlacement(t *testing.T) {
	m := partition.MustChunkMatrix(3, 7)
	pl, err := Hash{}.Place(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, d := range pl.Dest {
		if d != k%3 {
			t.Fatalf("Hash dest[%d] = %d, want %d", k, d, k%3)
		}
	}
}

func TestMiniKeepsLargestChunkLocal(t *testing.T) {
	m := partition.MustChunkMatrix(3, 2)
	m.Set(0, 0, 5)
	m.Set(1, 0, 9)
	m.Set(2, 1, 4)
	m.Set(0, 1, 4) // tie with node 2; lowest index wins
	pl, err := Mini{}.Place(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Dest[0] != 1 {
		t.Errorf("Mini dest[0] = %d, want 1 (largest chunk)", pl.Dest[0])
	}
	if pl.Dest[1] != 0 {
		t.Errorf("Mini dest[1] = %d, want 0 (tie to lowest index)", pl.Dest[1])
	}
}

func TestMiniMinimisesTraffic(t *testing.T) {
	// Property: no placement has lower traffic than Mini's.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 2+rng.Intn(4), 1+rng.Intn(6)
		m := randomMatrix(rng, n, p, 40)
		ev, err := Evaluate(Mini{}, m, nil, nil)
		if err != nil {
			return false
		}
		// Exhaustive check over random alternative placements.
		for trial := 0; trial < 50; trial++ {
			alt := partition.NewPlacement(p)
			for k := range alt.Dest {
				alt.Dest[k] = rng.Intn(n)
			}
			l, err := partition.ComputeLoads(m, alt, nil)
			if err != nil {
				return false
			}
			if l.Traffic() < ev.TrafficBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// ccfReference is the textbook O(p·n²) implementation of Algorithm 1, used
// to validate the optimised incremental version.
func ccfReference(m *partition.ChunkMatrix, initial *partition.Loads, noSort bool) *partition.Placement {
	n, p := m.N, m.P
	egress := make([]int64, n)
	ingress := make([]int64, n)
	if initial != nil {
		copy(egress, initial.Egress)
		copy(ingress, initial.Ingress)
	}
	order := make([]int, p)
	for k := range order {
		order[k] = k
	}
	if !noSort {
		maxChunk, _ := m.MaxChunk()
		sort.SliceStable(order, func(a, b int) bool {
			return maxChunk[order[a]] > maxChunk[order[b]]
		})
	}
	tot := m.PartitionTotals()
	pl := partition.NewPlacement(p)
	for _, k := range order {
		bestD := -1
		var bestT int64
		for d := 0; d < n; d++ {
			// −1, not 0, is the load of "no port": the two agree wherever some
			// load is non-negative, and on matrices with negative cells — which
			// Place has never rejected and a journal may hold — this is what
			// Place's top-2 sentinels have always computed.
			T := int64(-1)
			for i := 0; i < n; i++ {
				eg := egress[i]
				if i != d {
					eg += m.At(i, k)
				}
				in := ingress[i]
				if i == d {
					in += tot[k] - m.At(d, k)
				}
				if eg > T {
					T = eg
				}
				if in > T {
					T = in
				}
			}
			if bestD == -1 || T < bestT {
				bestD, bestT = d, T
			}
		}
		pl.Dest[k] = bestD
		for i := 0; i < n; i++ {
			if i != bestD {
				egress[i] += m.At(i, k)
			}
		}
		ingress[bestD] += tot[k] - m.At(bestD, k)
	}
	return pl
}

func TestCCFMatchesReferenceImplementation(t *testing.T) {
	f := func(seed int64, withInitial, noSort bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 2+rng.Intn(6), 1+rng.Intn(12)
		m := randomMatrix(rng, n, p, 100)
		var init *partition.Loads
		if withInitial {
			init = &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
			for i := 0; i < n; i++ {
				init.Egress[i] = int64(rng.Intn(30))
				init.Ingress[i] = int64(rng.Intn(30))
			}
		}
		got, err := CCF{NoSort: noSort}.Place(m, init)
		if err != nil {
			return false
		}
		want := ccfReference(m, init, noSort)
		for k := range want.Dest {
			if got.Dest[k] != want.Dest[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCCFMatchesReferenceOnHardRegimes is the property above on the instance
// families where Place's shortcuts do their work, which chunks < 100 against
// loads < 30 on n ≤ 7 almost never reach: the candidate scan's early exit
// (some port already carries far more than the job adds), the ingress top-2
// carried across partitions (rescanned when a negative chunk shrinks a port),
// and ties at every comparison. Each family is checked against the textbook
// loop with the sort on and off.
func TestCCFMatchesReferenceOnHardRegimes(t *testing.T) {
	for _, fam := range hardRegimes() {
		t.Run(fam.name, func(t *testing.T) {
			for seed := int64(0); seed < 400; seed++ {
				m, init := fam.gen(rand.New(rand.NewSource(seed)))
				for _, noSort := range []bool{false, true} {
					got, err := CCF{NoSort: noSort}.Place(m, init)
					if err != nil {
						t.Fatal(err)
					}
					if want := ccfReference(m, init, noSort); !slices.Equal(got.Dest, want.Dest) {
						t.Fatalf("seed %d, noSort %v, %d×%d: Place = %v, textbook = %v\nh = %v\ninitial = %+v",
							seed, noSort, m.N, m.P, got.Dest, want.Dest, m.H, init)
					}
				}
			}
		})
	}
}

// regime is one instance family: gen draws a matrix and initial loads.
type regime struct {
	name string
	gen  func(rng *rand.Rand) (*partition.ChunkMatrix, *partition.Loads)
}

// hardRegimes returns the families of TestCCFMatchesReferenceOnHardRegimes.
func hardRegimes() []regime {
	loads := func(n int, f func(i int) (eg, in int64)) *partition.Loads {
		l := &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
		for i := 0; i < n; i++ {
			l.Egress[i], l.Ingress[i] = f(i)
		}
		return l
	}
	return []regime{
		{"wide", func(rng *rand.Rand) (*partition.ChunkMatrix, *partition.Loads) {
			n, p := 1+rng.Intn(16), 1+rng.Intn(64)
			return randomMatrix(rng, n, p, 100), loads(n, func(int) (int64, int64) {
				return int64(rng.Intn(30)), int64(rng.Intn(30))
			})
		}},
		{"standing backlog", func(rng *rand.Rand) (*partition.ChunkMatrix, *partition.Loads) {
			// Every port carries ≈ 10⁶ against chunks < 100: the scan stops at
			// the first ordinary port on every partition.
			n, p := 1+rng.Intn(16), 1+rng.Intn(64)
			return randomMatrix(rng, n, p, 100), loads(n, func(int) (int64, int64) {
				return 1e6 + int64(rng.Intn(30)), 1e6 + int64(rng.Intn(30))
			})
		}},
		{"stop index against the special ports", func(rng *rand.Rand) (*partition.ChunkMatrix, *partition.Loads) {
			// Port a holds the egress maximum and port b the ingress maximum,
			// a little below, at or above it; ports before s sit just under
			// the ingress maximum, so receiving anything lifts them over the
			// floor and the scan first stops at s. a and b fall before, at
			// and after s, coincide, and tie with their runners-up.
			n, p := 3+rng.Intn(14), 1+rng.Intn(40)
			a, b, stop := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			top := int64(1e6 + 50*(rng.Intn(3)-1))
			return randomMatrix(rng, n, p, 100), loads(n, func(i int) (eg, in int64) {
				eg, in = int64(rng.Intn(30)), int64(rng.Intn(30))
				if i == a {
					eg = 1e6 + int64(rng.Intn(5))
				}
				if i == b {
					in = top
				} else if i < stop {
					in = top - int64(rng.Intn(40))
				}
				return eg, in
			})
		}},
		{"ties everywhere", func(rng *rand.Rand) (*partition.ChunkMatrix, *partition.Loads) {
			// One chunk size and one initial load: e1 = e2, in1 = in2 and equal
			// T on every candidate, so only the tie rules decide.
			n, p := 1+rng.Intn(16), 1+rng.Intn(64)
			m := partition.MustChunkMatrix(n, p)
			chunk, load := int64(rng.Intn(3)), int64(rng.Intn(2)*1000)
			for i := range m.H {
				m.H[i] = chunk
			}
			return m, loads(n, func(int) (int64, int64) { return load, load })
		}},
		{"zero rows and columns", func(rng *rand.Rand) (*partition.ChunkMatrix, *partition.Loads) {
			n, p := 1+rng.Intn(16), 1+rng.Intn(64)
			m := randomMatrix(rng, n, p, 100)
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					clear(m.Row(i))
				}
			}
			for k := 0; k < p; k++ {
				if rng.Intn(3) == 0 {
					for i := 0; i < n; i++ {
						m.Set(i, k, 0)
					}
				}
			}
			var init *partition.Loads
			if rng.Intn(2) == 0 {
				init = loads(n, func(int) (int64, int64) { return int64(rng.Intn(2) * 500), int64(rng.Intn(2) * 500) })
			}
			return m, init
		}},
		{"one node", func(rng *rand.Rand) (*partition.ChunkMatrix, *partition.Loads) {
			return randomMatrix(rng, 1, 1+rng.Intn(64), 100), loads(1, func(int) (int64, int64) {
				return int64(rng.Intn(1000)), int64(rng.Intn(1000))
			})
		}},
		{"negative chunks", func(rng *rand.Rand) (*partition.ChunkMatrix, *partition.Loads) {
			// Not a workload, but Place does not validate its matrix and must
			// not drift on one: ingress ports shrink (the carried top-2 is
			// rescanned) and every load can sit below the −1 sentinel.
			n, p := 1+rng.Intn(16), 1+rng.Intn(64)
			m := randomMatrix(rng, n, p, 100)
			shift := int64(rng.Intn(120))
			for i := range m.H {
				if rng.Intn(4) == 0 {
					m.H[i] -= shift
				}
			}
			base := int64(rng.Intn(3)-1) * 2000
			return m, loads(n, func(int) (int64, int64) { return base + int64(rng.Intn(30)), base + int64(rng.Intn(30)) })
		}},
		{"mixed scales", func(rng *rand.Rand) (*partition.ChunkMatrix, *partition.Loads) {
			// Chunks and loads of comparable size: the floor is reached late
			// in the run, after the loads have built up.
			n, p := 2+rng.Intn(15), 1+rng.Intn(64)
			m := partition.MustChunkMatrix(n, p)
			for i := range m.H {
				m.H[i] = rng.Int63n(1 << uint(1+rng.Intn(30)))
			}
			return m, loads(n, func(int) (int64, int64) { return rng.Int63n(1 << 28), rng.Int63n(1 << 28) })
		}},
	}
}

func TestCCFBeatsHashAndMiniOnAlignedZipf(t *testing.T) {
	// On the paper's rank-aligned data CCF must dominate both baselines.
	rng := rand.New(rand.NewSource(3))
	n, p := 12, 60
	m := partition.MustChunkMatrix(n, p)
	for k := 0; k < p; k++ {
		base := 1000 + rng.Intn(100)
		for i := 0; i < n; i++ {
			m.Set(i, k, int64(base/(i+1)))
		}
	}
	evalT := func(s Scheduler) int64 {
		ev, err := Evaluate(s, m, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ev.BottleneckBytes
	}
	ccf, hash, mini := evalT(CCF{}), evalT(Hash{}), evalT(Mini{})
	if ccf > hash {
		t.Errorf("CCF bottleneck %d > Hash %d", ccf, hash)
	}
	if ccf > mini {
		t.Errorf("CCF bottleneck %d > Mini %d", ccf, mini)
	}
}

func TestCCFNeverWorseThanBothBaselinesRandom(t *testing.T) {
	// CCF is greedy, not optimal, but on random instances it should never
	// lose to *both* baselines at once by more than its own first-step
	// choice; in practice it wins or ties the better of the two. We check
	// the weaker, always-true-looking invariant and flag regressions.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 2+rng.Intn(5), 5+rng.Intn(20)
		m := randomMatrix(rng, n, p, 50)
		get := func(s Scheduler) int64 {
			ev, err := Evaluate(s, m, nil, nil)
			if err != nil {
				return 1 << 62
			}
			return ev.BottleneckBytes
		}
		ccf := get(CCF{})
		best := get(Hash{})
		if v := get(Mini{}); v < best {
			best = v
		}
		// Allow slack: greedy loses up to ≈1.5× on tiny adversarial random
		// instances (worst observed over 3000 seeds: 1.48×). The bound
		// catches systematic regressions without asserting optimality the
		// algorithm never promised.
		return float64(ccf) <= 1.6*float64(best)+1
	}
	// A fixed source: 13 of 400 000 random seeds exceed the slack (seed
	// 2685724637235197335: CCF 89 against Mini's 54 at 2 × 8), which failed
	// one time-seeded run in a hundred.
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestCCFAccountsForInitialLoads(t *testing.T) {
	// Two nodes, one partition held by node 0 only. Without initial loads
	// the partition should stay on node 0 (zero traffic). With a huge
	// pre-existing ingress on node 0... it still stays (ingress only grows
	// at the destination by remote bytes = 0). But with huge pre-existing
	// egress on node 1 and the chunk on node 1, CCF must keep it local.
	m := partition.MustChunkMatrix(2, 1)
	m.Set(0, 0, 10)
	pl, err := CCF{}.Place(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Dest[0] != 0 {
		t.Errorf("dest = %d, want 0 (keep local)", pl.Dest[0])
	}
	// Now bias: node 0 already has ingress 100; assigning to node 0 adds
	// nothing (chunk is local), so it must still pick node 0 over pushing
	// 10 bytes to node 1.
	init := &partition.Loads{Egress: []int64{0, 0}, Ingress: []int64{100, 0}}
	pl, err = CCF{}.Place(m, init)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Dest[0] != 0 {
		t.Errorf("with initial ingress: dest = %d, want 0 (local move is free)", pl.Dest[0])
	}

	// Three nodes; partition spread over nodes 0 and 1. Node 1 has large
	// initial ingress, so CCF should prefer node 0 as destination.
	m2 := partition.MustChunkMatrix(3, 1)
	m2.Set(0, 0, 10)
	m2.Set(1, 0, 10)
	init2 := &partition.Loads{Egress: []int64{0, 0, 0}, Ingress: []int64{0, 50, 0}}
	pl2, err := CCF{}.Place(m2, init2)
	if err != nil {
		t.Fatal(err)
	}
	if pl2.Dest[0] != 0 {
		t.Errorf("dest = %d, want 0 (node 1 pre-loaded)", pl2.Dest[0])
	}
}

// TestPlacersRejectBadInitial covers the placers of this package that read
// initial (topology.RackAwareCCF has its own case in TestRackAwareValidation):
// loads sized for another fabric are an error, not an idle network.
func TestPlacersRejectBadInitial(t *testing.T) {
	m := partition.MustChunkMatrix(2, 1)
	for _, s := range []Scheduler{CCF{}, LPT{}} {
		for _, bad := range []*partition.Loads{
			{Egress: []int64{1}, Ingress: []int64{1, 2}},
			{Egress: []int64{1, 2}, Ingress: []int64{1}},
			{Egress: []int64{1, 2, 3}, Ingress: []int64{1, 2, 3}},
		} {
			if _, err := s.Place(m, bad); err == nil {
				t.Errorf("%s accepted initial loads sized %d/%d for 2 nodes", s.Name(), len(bad.Egress), len(bad.Ingress))
			}
		}
	}
}

func TestSortOrderMatters(t *testing.T) {
	// Construct an instance where processing large partitions first wins:
	// classic greedy-makespan behaviour. We only require the sorted variant
	// to be no worse, on aligned-zipf-like data.
	rng := rand.New(rand.NewSource(11))
	worseCount := 0
	for trial := 0; trial < 50; trial++ {
		n, p := 4, 20
		m := partition.MustChunkMatrix(n, p)
		for k := 0; k < p; k++ {
			base := 1 << uint(rng.Intn(10))
			for i := 0; i < n; i++ {
				m.Set(i, k, int64(base/(i+1)+rng.Intn(3)))
			}
		}
		sorted, err := Evaluate(CCF{}, m, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		unsorted, err := Evaluate(CCF{NoSort: true}, m, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sorted.BottleneckBytes > unsorted.BottleneckBytes {
			worseCount++
		}
	}
	if worseCount > 10 {
		t.Errorf("sorted CCF lost to unsorted in %d/50 trials; the sort should help on power-law data", worseCount)
	}
}

func TestRandomPlacementValidAndDeterministic(t *testing.T) {
	m := partition.MustChunkMatrix(5, 40)
	a, err := Random{Seed: 9}.Place(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(5, 40); err != nil {
		t.Fatal(err)
	}
	b, _ := Random{Seed: 9}.Place(m, nil)
	for k := range a.Dest {
		if a.Dest[k] != b.Dest[k] {
			t.Fatal("Random placement not deterministic per seed")
		}
	}
	c, _ := Random{Seed: 10}.Place(m, nil)
	same := true
	for k := range a.Dest {
		if a.Dest[k] != c.Dest[k] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical random placements")
	}
}

func TestLPTBalancesIngress(t *testing.T) {
	// Equal-size partitions on a cold cluster: LPT spreads them 1 per node.
	n, p := 4, 4
	m := partition.MustChunkMatrix(n, p)
	for k := 0; k < p; k++ {
		for i := 0; i < n; i++ {
			m.Set(i, k, 10)
		}
	}
	pl, err := LPT{}.Place(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, d := range pl.Dest {
		seen[d]++
	}
	for d, c := range seen {
		if c != 1 {
			t.Errorf("LPT put %d partitions on node %d; want 1 each", c, d)
		}
	}
}

func TestEvaluateReportsConsistentMetrics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 2+rng.Intn(5), 1+rng.Intn(10)
		m := randomMatrix(rng, n, p, 60)
		for _, s := range []Scheduler{Hash{}, Mini{}, CCF{}, LPT{}, Random{Seed: uint64(seed)}} {
			ev, err := Evaluate(s, m, nil, nil)
			if err != nil {
				return false
			}
			if ev.TrafficBytes != ev.Loads.Traffic() || ev.BottleneckBytes != ev.Loads.Max() {
				return false
			}
			if ev.BottleneckBytes > ev.TrafficBytes && ev.TrafficBytes > 0 {
				return false // a single port cannot exceed total traffic
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSchedulerNames(t *testing.T) {
	cases := map[Scheduler]string{
		Hash{}:            "Hash",
		Mini{}:            "Mini",
		CCF{}:             "CCF",
		CCF{NoSort: true}: "CCF-nosort",
		LPT{}:             "LPT",
		Random{}:          "Random",
	}
	for s, want := range cases {
		if got := s.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}
