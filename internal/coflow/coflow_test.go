package coflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func singleFlow(id, src, dst int, size float64) Flow {
	return Flow{ID: id, Src: src, Dst: dst, Size: size}
}

func TestNewDropsZeroFlows(t *testing.T) {
	c := New(1, "x", 0, []Flow{
		singleFlow(0, 0, 1, 10),
		singleFlow(1, 1, 2, 0),
		singleFlow(2, 2, 0, -5),
	})
	if len(c.Flows) != 1 {
		t.Errorf("New kept %d flows, want 1 (zero/negative dropped)", len(c.Flows))
	}
	if c.Flows[0].Remaining != 10 {
		t.Errorf("Remaining = %g, want 10", c.Flows[0].Remaining)
	}
}

// perFlowNew is the one-heap-Flow-per-flow build New replaced, kept as its
// oracle.
func perFlowNew(id int, name string, arrival float64, flows []Flow) *Coflow {
	c := &Coflow{ID: id, Name: name, Arrival: arrival}
	for _, f := range flows {
		if f.Size <= 0 {
			continue
		}
		c.Flows = append(c.Flows, &Flow{ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size, Remaining: f.Size})
	}
	return c
}

// TestNewMatchesPerFlowBuild: New keeps exactly the flows, field values and
// order of the per-flow build — zero, negative and NaN sizes included, and
// Flows == nil when nothing survives — in at most three allocations.
func TestNewMatchesPerFlowBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inputs := [][]Flow{nil, {}, {singleFlow(0, 0, 1, 0), singleFlow(1, 1, 0, -2)}, {singleFlow(0, 0, 1, math.NaN())}}
	for n := 0; n < 300; n++ {
		flows := make([]Flow, rng.Intn(40))
		for i := range flows {
			size := []float64{0, -1, rng.Float64() * 1e9, float64(rng.Intn(5))}[rng.Intn(4)]
			// Fields New does not read must not leak into the coflow.
			flows[i] = Flow{ID: rng.Intn(100), Src: rng.Intn(8), Dst: rng.Intn(8), Size: size, Remaining: -7, Rate: 3, Done: true}
		}
		inputs = append(inputs, flows)
	}
	for n, flows := range inputs {
		got, want := New(n, "c", float64(n)/2, flows), perFlowNew(n, "c", float64(n)/2, flows)
		if got.ID != want.ID || got.Name != want.Name || got.Arrival != want.Arrival ||
			len(got.Flows) != len(want.Flows) || (got.Flows == nil) != (want.Flows == nil) {
			t.Fatalf("input %d: %d flows (nil %v), want %d (nil %v)",
				n, len(got.Flows), got.Flows == nil, len(want.Flows), want.Flows == nil)
		}
		for i, wf := range want.Flows {
			gf := got.Flows[i]
			if gf.ID != wf.ID || gf.Src != wf.Src || gf.Dst != wf.Dst ||
				math.Float64bits(gf.Size) != math.Float64bits(wf.Size) ||
				math.Float64bits(gf.Remaining) != math.Float64bits(wf.Remaining) ||
				gf.Rate != 0 || gf.Done {
				t.Fatalf("input %d flow %d = %+v, want %+v", n, i, *gf, *wf)
			}
		}
	}
	for _, width := range []int{1, 4000} {
		flows := make([]Flow, width)
		for i := range flows {
			flows[i] = singleFlow(i, i%7, (i+1)%7, float64(1+i))
		}
		if allocs := testing.AllocsPerRun(20, func() { New(1, "w", 0, flows) }); allocs > 3 {
			t.Errorf("New made %g allocations for %d flows, want at most 3", allocs, width)
		}
	}
}

func TestFromVolumes(t *testing.T) {
	vol := []int64{
		0, 5, 0,
		0, 0, 7,
		3, 0, 0,
	}
	c, err := FromVolumes(2, "shuffle", 1.5, 3, vol)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Flows) != 3 {
		t.Fatalf("got %d flows, want 3", len(c.Flows))
	}
	if c.Arrival != 1.5 {
		t.Errorf("arrival = %g, want 1.5", c.Arrival)
	}
	if c.TotalBytes() != 15 {
		t.Errorf("TotalBytes = %g, want 15", c.TotalBytes())
	}
	// Diagonal must be ignored even if set.
	vol[0] = 100
	c2, err := FromVolumes(0, "d", 0, 3, vol)
	if err != nil {
		t.Fatal(err)
	}
	if c2.TotalBytes() != 115-100 {
		t.Errorf("self-loop volume not dropped: total = %g", c2.TotalBytes())
	}
}

// TestFromVolumesFlowsAndAllocations: flows come out in row-major order with
// consecutive IDs, each linked to its coflow, negative and diagonal entries
// dropped — and a coflow costs three allocations however many flows it has
// (the Coflow, the flows, the pointers to them).
func TestFromVolumesFlowsAndAllocations(t *testing.T) {
	const n = 16
	vol := make([]int64, n*n)
	type edge struct{ src, dst int }
	var want []edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch v := int64((i*7+j*3)%5) - 1; { // −1 … 3
			case i == j:
				vol[i*n+j] = 9
			default:
				vol[i*n+j] = v
				if v > 0 {
					want = append(want, edge{i, j})
				}
			}
		}
	}
	c, err := FromVolumes(4, "job", 2, n, vol)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Flows) != len(want) {
		t.Fatalf("got %d flows, want %d", len(c.Flows), len(want))
	}
	for id, f := range c.Flows {
		v := float64(vol[want[id].src*n+want[id].dst])
		if f.ID != id || f.Src != want[id].src || f.Dst != want[id].dst ||
			f.Size != v || f.Remaining != v || f.Done || f.Rate != 0 {
			t.Fatalf("flow %d = %+v, want %d→%d of %g bytes", id, *f, want[id].src, want[id].dst, v)
		}
	}
	if empty, err := FromVolumes(0, "idle", 0, n, make([]int64, n*n)); err != nil || empty.Flows != nil {
		t.Errorf("all-zero volumes: flows %v, err %v; want none", empty.Flows, err)
	}
	if allocs := testing.AllocsPerRun(20, func() { FromVolumes(4, "job", 2, n, vol) }); allocs > 3 {
		t.Errorf("FromVolumes made %g allocations for %d flows, want at most 3", allocs, len(want))
	}
}

func TestFromVolumesRejectsBadMatrix(t *testing.T) {
	if _, err := FromVolumes(0, "x", 0, 3, make([]int64, 8)); err == nil {
		t.Error("FromVolumes accepted 8 entries for n=3")
	}
}

func TestBottleneck(t *testing.T) {
	// Flows: 0→1 (4), 0→2 (3), 2→1 (2). Egress 0 = 7, ingress 1 = 6.
	c := New(0, "g", 0, []Flow{
		singleFlow(0, 0, 1, 4),
		singleFlow(1, 0, 2, 3),
		singleFlow(2, 2, 1, 2),
	})
	if got := c.Bottleneck(3); got != 7 {
		t.Errorf("Bottleneck = %g, want 7 (egress of node 0)", got)
	}
	// Done flows are excluded.
	c.Flows[0].Done = true
	if got := c.Bottleneck(3); got != 3 {
		t.Errorf("Bottleneck after completing 0→1 = %g, want 3", got)
	}
}

func TestCCTErrorsWhenIncomplete(t *testing.T) {
	c := New(0, "x", 0, []Flow{singleFlow(0, 0, 1, 1)})
	if _, err := c.CCT(); err == nil {
		t.Error("CCT of incomplete coflow returned nil error")
	}
	c.Completed = true
	c.Arrival = 1
	c.Completion = 3.5
	cct, err := c.CCT()
	if err != nil || cct != 2.5 {
		t.Errorf("CCT = %g, %v; want 2.5, nil", cct, err)
	}
}

// begun starts the live-flow caches of hand-built coflows over an n-port
// fabric, as a simulation does before they reach a scheduler.
func begun(n int, cs ...*Coflow) {
	for _, c := range cs {
		c.BeginSim(n)
	}
}

func testScratch(n int) *allocScratch {
	s := new(allocScratch)
	s.ensure(n)
	return s
}

func capSlices(n int, bw float64) (eg, in []float64) {
	eg = make([]float64, n)
	in = make([]float64, n)
	for i := 0; i < n; i++ {
		eg[i], in[i] = bw, bw
	}
	return eg, in
}

func TestMADDFinishesFlowsTogether(t *testing.T) {
	c := New(0, "m", 0, []Flow{
		singleFlow(0, 0, 1, 8),
		singleFlow(1, 0, 2, 4),
		singleFlow(2, 2, 1, 2),
	})
	begun(3, c)
	eg, in := capSlices(3, 1)
	tau := maddAllocate(c, eg, in, testScratch(3))
	// Bottleneck: egress 0 carries 12 at capacity 1 ⇒ τ = 12.
	if tau != 12 {
		t.Fatalf("τ = %g, want 12", tau)
	}
	for _, f := range c.Flows {
		if got := f.Remaining / f.Rate; math.Abs(got-12) > 1e-9 {
			t.Errorf("flow %d finishes at %g, want τ=12 (MADD property)", f.ID, got)
		}
	}
	// Residual capacity: egress 0 fully consumed.
	if eg[0] > 1e-9 {
		t.Errorf("egress 0 residual = %g, want 0", eg[0])
	}
}

func TestMADDBlockedPort(t *testing.T) {
	c := New(0, "m", 0, []Flow{singleFlow(0, 0, 1, 8)})
	begun(2, c)
	eg, in := capSlices(2, 1)
	eg[0] = 0
	tau := maddAllocate(c, eg, in, testScratch(2))
	if !math.IsInf(tau, 1) {
		t.Fatalf("τ = %g with a dead port, want +Inf", tau)
	}
	if c.Flows[0].Rate != 0 {
		t.Errorf("blocked MADD assigned rate %g, want 0", c.Flows[0].Rate)
	}
}

func TestWaterFillSingleBottleneck(t *testing.T) {
	// Three flows out of node 0: equal share of its egress.
	c := New(0, "w", 0, []Flow{
		singleFlow(0, 0, 1, 10),
		singleFlow(1, 0, 2, 10),
		singleFlow(2, 0, 3, 10),
	})
	begun(4, c)
	eg, in := capSlices(4, 3)
	s := testScratch(4)
	waterFill(activeFlows([]*Coflow{c}, s), eg, in, s)
	for _, f := range c.Flows {
		if math.Abs(f.Rate-1) > 1e-9 {
			t.Errorf("flow %d rate = %g, want 1 (3-way fair share of 3)", f.ID, f.Rate)
		}
	}
}

func TestWaterFillMaxMin(t *testing.T) {
	// Flows: A 0→1, B 0→2, C 3→2. Ports cap 1. Port 0 egress shared by
	// A,B; port 2 ingress shared by B,C. Max-min: everyone ½ at the first
	// level, then A and C can grow to fill ports 1-in and 3-out... A's
	// bottleneck is port 0 (shared with frozen B at ½) → A gets ½ + ... :
	// progressive filling: all at ½ — port 0 and port 2 both saturate
	// (A+B=1 at port 0; B+C=1 at port 2) so all freeze at ½ except none
	// can grow. Expected: ½, ½, ½.
	c := New(0, "w", 0, []Flow{
		singleFlow(0, 0, 1, 10),
		singleFlow(1, 0, 2, 10),
		singleFlow(2, 3, 2, 10),
	})
	begun(4, c)
	eg, in := capSlices(4, 1)
	s := testScratch(4)
	waterFill(activeFlows([]*Coflow{c}, s), eg, in, s)
	for _, f := range c.Flows {
		if math.Abs(f.Rate-0.5) > 1e-9 {
			t.Errorf("flow %d rate = %g, want 0.5", f.ID, f.Rate)
		}
	}
}

func TestWaterFillUnevenLevels(t *testing.T) {
	// A 0→1, B 0→2, C 3→4: A,B share port 0 (→ ½ each); C is alone and
	// gets the full unit.
	c := New(0, "w", 0, []Flow{
		singleFlow(0, 0, 1, 10),
		singleFlow(1, 0, 2, 10),
		singleFlow(2, 3, 4, 10),
	})
	begun(5, c)
	eg, in := capSlices(5, 1)
	s := testScratch(5)
	waterFill(activeFlows([]*Coflow{c}, s), eg, in, s)
	want := []float64{0.5, 0.5, 1}
	for i, f := range c.Flows {
		if math.Abs(f.Rate-want[i]) > 1e-9 {
			t.Errorf("flow %d rate = %g, want %g", f.ID, f.Rate, want[i])
		}
	}
}

func TestWaterFillRespectsCapacitiesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		var flows []Flow
		for i := 0; i < 1+rng.Intn(12); i++ {
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			flows = append(flows, singleFlow(i, src, dst, 1+float64(rng.Intn(100))))
		}
		c := New(0, "p", 0, flows)
		begun(n, c)
		eg, in := capSlices(n, 1)
		s := testScratch(n)
		waterFill(activeFlows([]*Coflow{c}, s), eg, in, s)
		egUse := make([]float64, n)
		inUse := make([]float64, n)
		for _, fl := range c.Flows {
			if fl.Rate < -1e-12 {
				return false
			}
			egUse[fl.Src] += fl.Rate
			inUse[fl.Dst] += fl.Rate
		}
		for p := 0; p < n; p++ {
			if egUse[p] > 1+1e-6 || inUse[p] > 1+1e-6 {
				return false
			}
		}
		// Work conservation: every flow is bottlenecked somewhere.
		for _, fl := range c.Flows {
			if egUse[fl.Src] < 1-1e-6 && inUse[fl.Dst] < 1-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSchedulerNamesDistinct(t *testing.T) {
	scheds := []Scheduler{NewVarys(), NewFIFO(), NewSCF(), NewNCF(), NewAalo(), PerFlowFair{}, SequentialByDest{}}
	seen := map[string]bool{}
	for _, s := range scheds {
		if s.Name() == "" {
			t.Error("empty scheduler name")
		}
		if seen[s.Name()] {
			t.Errorf("duplicate scheduler name %q", s.Name())
		}
		seen[s.Name()] = true
	}
}

func TestVarysPrioritisesSmallBottleneck(t *testing.T) {
	// Coflow A: 0→1 of 100. Coflow B: 0→1 of 10. SEBF must give B the
	// shared port first; A gets nothing until backfill — but backfill also
	// serves A on the leftover... here there is no leftover (same ports),
	// so A's rate must be 0 and B's must be full.
	a := New(0, "A", 0, []Flow{singleFlow(0, 0, 1, 100)})
	b := New(1, "B", 0, []Flow{singleFlow(0, 0, 1, 10)})
	begun(2, a, b)
	eg, in := capSlices(2, 1)
	NewVarys().Allocate(0, []*Coflow{a, b}, eg, in)
	if b.Flows[0].Rate < 1-1e-9 {
		t.Errorf("small coflow rate = %g, want 1 (SEBF priority)", b.Flows[0].Rate)
	}
	if a.Flows[0].Rate > 1e-9 {
		t.Errorf("large coflow rate = %g, want 0 (blocked behind SEBF)", a.Flows[0].Rate)
	}
}

func TestVarysBackfillsDisjointPorts(t *testing.T) {
	// B has priority on ports 0→1; A uses 2→3 and must still run at full
	// rate thanks to work conservation.
	a := New(0, "A", 0, []Flow{singleFlow(0, 2, 3, 100)})
	b := New(1, "B", 0, []Flow{singleFlow(0, 0, 1, 10)})
	begun(4, a, b)
	eg, in := capSlices(4, 1)
	NewVarys().Allocate(0, []*Coflow{a, b}, eg, in)
	if a.Flows[0].Rate < 1-1e-9 {
		t.Errorf("disjoint coflow rate = %g, want 1 (work conservation)", a.Flows[0].Rate)
	}
}

func TestFIFOOrdersByArrival(t *testing.T) {
	late := New(0, "late", 5, []Flow{singleFlow(0, 0, 1, 10)})
	early := New(1, "early", 1, []Flow{singleFlow(0, 0, 1, 100)})
	begun(2, late, early)
	eg, in := capSlices(2, 1)
	NewFIFO().Allocate(6, []*Coflow{late, early}, eg, in)
	if early.Flows[0].Rate < 1-1e-9 {
		t.Errorf("early coflow rate = %g, want 1 under FIFO", early.Flows[0].Rate)
	}
	if late.Flows[0].Rate > 1e-9 {
		t.Errorf("late coflow rate = %g, want 0 under FIFO", late.Flows[0].Rate)
	}
}

func TestSCFPrefersSmallest(t *testing.T) {
	big := New(0, "big", 0, []Flow{singleFlow(0, 0, 1, 100)})
	small := New(1, "small", 0, []Flow{singleFlow(0, 0, 1, 1)})
	begun(2, big, small)
	eg, in := capSlices(2, 1)
	NewSCF().Allocate(0, []*Coflow{big, small}, eg, in)
	if small.Flows[0].Rate < 1-1e-9 {
		t.Error("SCF did not prioritise the smallest coflow")
	}
}

func TestNCFPrefersNarrowest(t *testing.T) {
	wide := New(0, "wide", 0, []Flow{singleFlow(0, 0, 1, 10), singleFlow(1, 2, 1, 10)})
	narrow := New(1, "narrow", 0, []Flow{singleFlow(0, 0, 1, 1000)})
	begun(3, wide, narrow)
	eg, in := capSlices(3, 1)
	NewNCF().Allocate(0, []*Coflow{wide, narrow}, eg, in)
	if narrow.Flows[0].Rate < 1-1e-9 {
		t.Error("NCF did not prioritise the narrowest coflow")
	}
}

func TestAaloQueueAssignment(t *testing.T) {
	c := New(0, "q", 0, []Flow{singleFlow(0, 0, 1, 1)})
	if q := dclasQueue(c, nil); q != 0 {
		t.Errorf("fresh coflow queue = %g, want 0", q)
	}
	c.SentBytes = 10e6
	if q := dclasQueue(c, nil); q != 1 {
		t.Errorf("10 MB-sent queue = %g, want 1", q)
	}
	c.SentBytes = 100e6
	if q := dclasQueue(c, nil); q != 2 {
		t.Errorf("100 MB-sent queue = %g, want 2", q)
	}
}

func TestAaloPrioritisesFreshCoflows(t *testing.T) {
	old := New(0, "old", 0, []Flow{singleFlow(0, 0, 1, 1e9)})
	old.SentBytes = 200e6 // deep queue
	fresh := New(1, "fresh", 0, []Flow{singleFlow(0, 0, 1, 1e6)})
	begun(2, old, fresh)
	eg, in := capSlices(2, 1)
	NewAalo().Allocate(0, []*Coflow{old, fresh}, eg, in)
	if fresh.Flows[0].Rate < 1-1e-9 {
		t.Errorf("fresh coflow rate = %g, want 1 (D-CLAS priority)", fresh.Flows[0].Rate)
	}
}

func TestPerFlowFairIgnoresCoflows(t *testing.T) {
	a := New(0, "A", 0, []Flow{singleFlow(0, 0, 1, 1e9)})
	b := New(1, "B", 0, []Flow{singleFlow(0, 0, 1, 1)})
	begun(2, a, b)
	eg, in := capSlices(2, 1)
	PerFlowFair{}.Allocate(0, []*Coflow{a, b}, eg, in)
	if math.Abs(a.Flows[0].Rate-0.5) > 1e-9 || math.Abs(b.Flows[0].Rate-0.5) > 1e-9 {
		t.Errorf("per-flow fair rates = %g, %g; want 0.5 each", a.Flows[0].Rate, b.Flows[0].Rate)
	}
}

func TestSequentialByDestServesLowestDestination(t *testing.T) {
	c := New(0, "s", 0, []Flow{
		singleFlow(0, 0, 2, 10),
		singleFlow(1, 1, 2, 10),
		singleFlow(2, 0, 1, 10),
	})
	begun(3, c)
	eg, in := capSlices(3, 1)
	SequentialByDest{}.Allocate(0, []*Coflow{c}, eg, in)
	// Destination 1 is lowest: only flow 2 (0→1) runs.
	if c.Flows[2].Rate < 1-1e-9 {
		t.Errorf("flow to lowest dest rate = %g, want 1", c.Flows[2].Rate)
	}
	if c.Flows[0].Rate > 1e-9 || c.Flows[1].Rate > 1e-9 {
		t.Errorf("flows to higher dest got rates %g, %g; want 0", c.Flows[0].Rate, c.Flows[1].Rate)
	}
}

func TestAllSchedulersRespectCapacities(t *testing.T) {
	scheds := []Scheduler{NewVarys(), NewFIFO(), NewSCF(), NewNCF(), NewAalo(), PerFlowFair{}, SequentialByDest{}}
	f := func(seed int64, schedIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := scheds[int(schedIdx)%len(scheds)]
		n := 2 + rng.Intn(5)
		var cfs []*Coflow
		for ci := 0; ci < 1+rng.Intn(4); ci++ {
			var flows []Flow
			for i := 0; i < 1+rng.Intn(6); i++ {
				src := rng.Intn(n)
				dst := (src + 1 + rng.Intn(n-1)) % n
				flows = append(flows, singleFlow(i, src, dst, 1+float64(rng.Intn(1000))))
			}
			c := New(ci, "c", float64(rng.Intn(3)), flows)
			c.SentBytes = float64(rng.Intn(2)) * 20e6
			cfs = append(cfs, c)
		}
		begun(n, cfs...)
		eg, in := capSlices(n, 1)
		s.Allocate(0, cfs, eg, in)
		egUse := make([]float64, n)
		inUse := make([]float64, n)
		for _, c := range cfs {
			for _, fl := range c.Flows {
				if fl.Rate < 0 {
					return false
				}
				egUse[fl.Src] += fl.Rate
				inUse[fl.Dst] += fl.Rate
			}
		}
		for p := 0; p < n; p++ {
			if egUse[p] > 1+1e-6 || inUse[p] > 1+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
