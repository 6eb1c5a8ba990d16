package netsim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ccf/internal/coflow"
	"ccf/internal/topology"
)

func TestNewFabricValidation(t *testing.T) {
	if _, err := NewFabric(0, 1); err == nil {
		t.Error("NewFabric accepted 0 ports")
	}
	f, err := NewFabric(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if f.EgressCap[p] != DefaultPortBandwidth || f.IngressCap[p] != DefaultPortBandwidth {
			t.Errorf("port %d default bandwidth = %g/%g, want %g",
				p, f.EgressCap[p], f.IngressCap[p], DefaultPortBandwidth)
		}
	}
}

func TestNewHeterogeneousFabricValidation(t *testing.T) {
	if _, err := NewHeterogeneousFabric(nil, nil); err == nil {
		t.Error("accepted empty capacities")
	}
	if _, err := NewHeterogeneousFabric([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := NewHeterogeneousFabric([]float64{1, 0}, []float64{1, 1}); err == nil {
		t.Error("accepted zero capacity")
	}
	f, err := NewHeterogeneousFabric([]float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if f.Ports != 2 || f.IngressCap[1] != 4 {
		t.Errorf("fabric = %+v", f)
	}
}

func TestHeterogeneousFabricSimulation(t *testing.T) {
	// One flow into a slow ingress port: 10 bytes at 2 B/s = 5 s, even
	// though the egress port could do 10 B/s.
	f, err := NewHeterogeneousFabric([]float64{10, 10}, []float64{10, 2})
	if err != nil {
		t.Fatal(err)
	}
	c := mkCoflow(0, 0, [3]float64{0, 1, 10})
	rep, err := NewSimulator(f, coflow.NewVarys()).Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MaxCCT-5) > 1e-9 {
		t.Errorf("CCT = %g, want 5 (ingress-limited)", rep.MaxCCT)
	}
}

func TestHeterogeneousMatchesWeightedClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		egCap := make([]float64, n)
		inCap := make([]float64, n)
		for i := 0; i < n; i++ {
			egCap[i] = float64(1 + rng.Intn(9))
			inCap[i] = float64(1 + rng.Intn(9))
		}
		var flows [][3]float64
		for i := 0; i < 1+rng.Intn(8); i++ {
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			size := float64(1 + rng.Intn(500))
			flows = append(flows, [3]float64{float64(src), float64(dst), size})
		}
		fab, err := NewHeterogeneousFabric(egCap, inCap)
		if err != nil {
			return false
		}
		rep, err := NewSimulator(fab, coflow.NewVarys()).Run([]*coflow.Coflow{mkCoflow(0, 0, flows...)})
		if err != nil {
			return false
		}
		want, err := closedFormCCT(fab, flows...)
		if err != nil {
			return false
		}
		return math.Abs(rep.MaxCCT-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// closedFormCCT is the oracle for a lone coflow: the most loaded port's
// bytes over its capacity, computed by topology.SingleCoflowCCT on the
// one-rack topology with fab's per-port capacities.
func closedFormCCT(fab Fabric, flows ...[3]float64) (float64, error) {
	topo, err := topology.NewNonBlocking(fab.EgressCap, fab.IngressCap)
	if err != nil {
		return 0, err
	}
	n := fab.Ports
	vol := make([]int64, n*n)
	for _, f := range flows {
		vol[int(f[0])*n+int(f[1])] += int64(f[2])
	}
	return topo.SingleCoflowCCT(vol)
}

func TestWeightedBandwidthModelCCTValidation(t *testing.T) {
	// The closed-form oracle refuses the capacities NewHeterogeneousFabric
	// refuses.
	for _, c := range []struct {
		name   string
		eg, in []float64
	}{
		{"mismatched sizes", []float64{1, 2}, []float64{1}},
		{"zero capacity", []float64{0}, []float64{1}},
	} {
		if _, err := NewHeterogeneousFabric(c.eg, c.in); err == nil {
			t.Errorf("%s: NewHeterogeneousFabric accepted it", c.name)
		}
		fab := Fabric{Ports: len(c.in), EgressCap: c.eg, IngressCap: c.in}
		if _, err := closedFormCCT(fab); err == nil {
			t.Errorf("%s: closed form accepted it", c.name)
		}
	}
}

func mkCoflow(id int, arrival float64, flows ...[3]float64) *coflow.Coflow {
	fs := make([]coflow.Flow, len(flows))
	for i, f := range flows {
		fs[i] = coflow.Flow{ID: i, Src: int(f[0]), Dst: int(f[1]), Size: f[2]}
	}
	return coflow.New(id, "test", arrival, fs)
}

func TestSingleCoflowMADDMatchesBandwidthModel(t *testing.T) {
	// 0→1: 8, 0→2: 4, 2→1: 2 at bandwidth 2. Egress 0 = 12 ⇒ CCT = 6.
	flows := [][3]float64{{0, 1, 8}, {0, 2, 4}, {2, 1, 2}}
	c := mkCoflow(0, 0, flows...)
	fab, _ := NewFabric(3, 2)
	rep, err := NewSimulator(fab, coflow.NewVarys()).Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MaxCCT-6) > 1e-9 {
		t.Errorf("CCT = %g, want 6", rep.MaxCCT)
	}
	want, err := closedFormCCT(fab, flows...)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MaxCCT-want) > 1e-9 {
		t.Errorf("event sim %g != closed form %g", rep.MaxCCT, want)
	}
	if math.Abs(rep.TotalBytes-14) > 1e-6 {
		t.Errorf("TotalBytes = %g, want 14", rep.TotalBytes)
	}
}

func TestSingleCoflowAgreementProperty(t *testing.T) {
	// Property: for any random single coflow, the event simulator under
	// Varys/MADD equals max-port-load / bandwidth.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		bw := 1 + float64(rng.Intn(10))
		var flows [][3]float64
		for i := 0; i < 1+rng.Intn(10); i++ {
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			size := float64(1 + rng.Intn(1000))
			flows = append(flows, [3]float64{float64(src), float64(dst), size})
		}
		c := mkCoflow(0, 0, flows...)
		fab, _ := NewFabric(n, bw)
		rep, err := NewSimulator(fab, coflow.NewVarys()).Run([]*coflow.Coflow{c})
		if err != nil {
			return false
		}
		want, err := closedFormCCT(fab, flows...)
		if err != nil {
			return false
		}
		return math.Abs(rep.MaxCCT-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestArrivalsAreRespected(t *testing.T) {
	// A lone coflow arriving at t=10 with 5 bytes at bw 1 finishes at 15,
	// but its CCT is 5.
	c := mkCoflow(0, 10, [3]float64{0, 1, 5})
	fab, _ := NewFabric(2, 1)
	rep, err := NewSimulator(fab, coflow.NewVarys()).Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Makespan-15) > 1e-9 {
		t.Errorf("makespan = %g, want 15", rep.Makespan)
	}
	if math.Abs(rep.CCTs[0]-5) > 1e-9 {
		t.Errorf("CCT = %g, want 5 (relative to arrival)", rep.CCTs[0])
	}
}

func TestOnlineTwoCoflowsSEBF(t *testing.T) {
	// Big coflow (100 B) at t=0, small (10 B) at t=1, same ports, bw 1.
	// SEBF preempts: big runs 1s (99 left), small runs 1..11, big resumes.
	// Big CCT = 110, small CCT = 10.
	big := mkCoflow(0, 0, [3]float64{0, 1, 100})
	small := mkCoflow(1, 1, [3]float64{0, 1, 10})
	fab, _ := NewFabric(2, 1)
	rep, err := NewSimulator(fab, coflow.NewVarys()).Run([]*coflow.Coflow{big, small})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.CCTs[1]-10) > 1e-6 {
		t.Errorf("small CCT = %g, want 10 (preempts big)", rep.CCTs[1])
	}
	if math.Abs(rep.CCTs[0]-110) > 1e-6 {
		t.Errorf("big CCT = %g, want 110", rep.CCTs[0])
	}
	if math.Abs(rep.Makespan-110) > 1e-6 {
		t.Errorf("makespan = %g, want 110", rep.Makespan)
	}
}

func TestFIFOvsSEBFAverageCCT(t *testing.T) {
	// Classic result: SEBF beats FIFO on average CCT when a small coflow
	// arrives behind a big one.
	mk := func() []*coflow.Coflow {
		return []*coflow.Coflow{
			mkCoflow(0, 0, [3]float64{0, 1, 100}),
			mkCoflow(1, 0.5, [3]float64{0, 1, 5}),
		}
	}
	fab, _ := NewFabric(2, 1)
	sebf, err := NewSimulator(fab, coflow.NewVarys()).Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := NewSimulator(fab, coflow.NewFIFO()).Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if sebf.AvgCCT >= fifo.AvgCCT {
		t.Errorf("SEBF avg CCT %g !< FIFO %g", sebf.AvgCCT, fifo.AvgCCT)
	}
	// Makespan is identical (work conservation on one bottleneck port).
	if math.Abs(sebf.Makespan-fifo.Makespan) > 1e-6 {
		t.Errorf("makespans differ: SEBF %g, FIFO %g", sebf.Makespan, fifo.Makespan)
	}
}

func TestPerFlowFairVersusVarys(t *testing.T) {
	// Two identical single-flow coflows sharing a port: fair sharing
	// finishes both at 20; SEBF serialises (10 and 20). Average CCT is
	// lower for SEBF, max is equal.
	mk := func() []*coflow.Coflow {
		return []*coflow.Coflow{
			mkCoflow(0, 0, [3]float64{0, 1, 10}),
			mkCoflow(1, 0, [3]float64{0, 1, 10}),
		}
	}
	fab, _ := NewFabric(2, 1)
	fair, err := NewSimulator(fab, coflow.PerFlowFair{}).Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	varys, err := NewSimulator(fab, coflow.NewVarys()).Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fair.AvgCCT-20) > 1e-6 {
		t.Errorf("fair avg CCT = %g, want 20", fair.AvgCCT)
	}
	if math.Abs(varys.AvgCCT-15) > 1e-6 {
		t.Errorf("varys avg CCT = %g, want 15", varys.AvgCCT)
	}
}

func TestSequentialByDestWorstCase(t *testing.T) {
	// The motivating example's SP2 flows under the uncoordinated schedule:
	// dest 0 gets 1, dest 1 gets 4, dest 2 gets 1 ⇒ CCT 6 at unit bw.
	c := mkCoflow(0, 0,
		[3]float64{2, 0, 1},
		[3]float64{0, 1, 3},
		[3]float64{2, 1, 1},
		[3]float64{1, 2, 1},
	)
	fab, _ := NewFabric(3, 1)
	rep, err := NewSimulator(fab, coflow.SequentialByDest{}).Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MaxCCT-6) > 1e-9 {
		t.Errorf("sequential CCT = %g, want 6", rep.MaxCCT)
	}
}

func TestRejectsSelfLoop(t *testing.T) {
	c := mkCoflow(0, 0, [3]float64{1, 1, 5})
	fab, _ := NewFabric(2, 1)
	if _, err := NewSimulator(fab, coflow.NewVarys()).Run([]*coflow.Coflow{c}); err == nil {
		t.Error("simulator accepted a self-loop flow")
	}
}

func TestRejectsOutOfRangePort(t *testing.T) {
	c := mkCoflow(0, 0, [3]float64{0, 5, 5})
	fab, _ := NewFabric(2, 1)
	if _, err := NewSimulator(fab, coflow.NewVarys()).Run([]*coflow.Coflow{c}); err == nil {
		t.Error("simulator accepted a flow to a non-existent port")
	}
}

// stallScheduler assigns no rates, ever.
type stallScheduler struct{}

func (stallScheduler) Name() string { return "stall" }
func (stallScheduler) Allocate(_ float64, active []*coflow.Coflow, _, _ []float64) {
	for _, c := range active {
		for _, f := range c.Flows {
			f.Rate = 0
		}
	}
}

func TestStallDetection(t *testing.T) {
	c := mkCoflow(0, 0, [3]float64{0, 1, 5})
	fab, _ := NewFabric(2, 1)
	_, err := NewSimulator(fab, stallScheduler{}).Run([]*coflow.Coflow{c})
	if !errors.Is(err, ErrStalled) {
		t.Errorf("err = %v, want ErrStalled", err)
	}
}

// greedyOversubscriber violates port capacity on purpose.
type greedyOversubscriber struct{}

func (greedyOversubscriber) Name() string { return "oversub" }
func (greedyOversubscriber) Allocate(_ float64, active []*coflow.Coflow, egCap, _ []float64) {
	for _, c := range active {
		for _, f := range c.Flows {
			f.Rate = egCap[f.Src] * 10
		}
	}
}

func TestOversubscriptionDetection(t *testing.T) {
	c := mkCoflow(0, 0, [3]float64{0, 1, 5})
	fab, _ := NewFabric(2, 1)
	if _, err := NewSimulator(fab, greedyOversubscriber{}).Run([]*coflow.Coflow{c}); err == nil {
		t.Error("simulator accepted oversubscribed rates")
	}
}

func TestEmptyRun(t *testing.T) {
	fab, _ := NewFabric(2, 1)
	rep, err := NewSimulator(fab, coflow.NewVarys()).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 0 || len(rep.CCTs) != 0 {
		t.Errorf("empty run: makespan=%g CCTs=%v", rep.Makespan, rep.CCTs)
	}
}

func TestEmptyCoflowCompletesInstantly(t *testing.T) {
	c := &coflow.Coflow{ID: 7, Name: "empty", Arrival: 3}
	fab, _ := NewFabric(2, 1)
	rep, err := NewSimulator(fab, coflow.NewVarys()).Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.CCTs[7]; got != 0 {
		t.Errorf("empty coflow CCT = %g, want 0", got)
	}
}

func TestReportAggregates(t *testing.T) {
	a := mkCoflow(0, 0, [3]float64{0, 1, 10})
	b := mkCoflow(1, 0, [3]float64{2, 3, 30})
	fab, _ := NewFabric(4, 1)
	rep, err := NewSimulator(fab, coflow.NewVarys()).Run([]*coflow.Coflow{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.AvgCCT-20) > 1e-9 {
		t.Errorf("avg CCT = %g, want 20", rep.AvgCCT)
	}
	if math.Abs(rep.MaxCCT-30) > 1e-9 {
		t.Errorf("max CCT = %g, want 30", rep.MaxCCT)
	}
	if math.Abs(rep.TotalBytes-40) > 1e-6 {
		t.Errorf("total bytes = %g, want 40", rep.TotalBytes)
	}
	if rep.Epochs <= 0 {
		t.Error("no epochs recorded")
	}
}

func TestRunIsIdempotentOnCoflowState(t *testing.T) {
	// Run resets flow state, so simulating the same coflows twice gives
	// identical reports.
	mk := []*coflow.Coflow{
		mkCoflow(0, 0, [3]float64{0, 1, 17}, [3]float64{1, 2, 9}),
		mkCoflow(1, 2, [3]float64{2, 0, 23}),
	}
	fab, _ := NewFabric(3, 2)
	r1, err := NewSimulator(fab, coflow.NewVarys()).Run(mk)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewSimulator(fab, coflow.NewVarys()).Run(mk)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Makespan-r2.Makespan) > 1e-9 || math.Abs(r1.AvgCCT-r2.AvgCCT) > 1e-9 {
		t.Errorf("re-run diverged: %+v vs %+v", r1, r2)
	}
}

func TestAllSchedulersCompleteRandomWorkloads(t *testing.T) {
	scheds := []coflow.Scheduler{
		coflow.NewVarys(), coflow.NewFIFO(), coflow.NewSCF(), coflow.NewNCF(),
		coflow.NewAalo(), coflow.PerFlowFair{}, coflow.SequentialByDest{},
	}
	f := func(seed int64, schedIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := scheds[int(schedIdx)%len(scheds)]
		n := 2 + rng.Intn(5)
		var cfs []*coflow.Coflow
		var totalBytes float64
		for ci := 0; ci < 1+rng.Intn(4); ci++ {
			var flows [][3]float64
			for i := 0; i < 1+rng.Intn(5); i++ {
				src := rng.Intn(n)
				dst := (src + 1 + rng.Intn(n-1)) % n
				size := float64(1 + rng.Intn(500))
				flows = append(flows, [3]float64{float64(src), float64(dst), size})
				totalBytes += size
			}
			cfs = append(cfs, mkCoflow(ci, float64(rng.Intn(4)), flows...))
		}
		fab, _ := NewFabric(n, 1+float64(rng.Intn(5)))
		rep, err := NewSimulator(fab, s).Run(cfs)
		if err != nil {
			return false
		}
		if len(rep.CCTs) != len(cfs) {
			return false
		}
		// All bytes delivered.
		return math.Abs(rep.TotalBytes-totalBytes) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthModelCCT(t *testing.T) {
	// 0→1: 10 and 2→1: 4 at 2 B/s. Egress 10/0/4, ingress 0/14/0: the busiest
	// port moves 14 bytes, so the CCT is 7 s in closed form and in the event
	// simulator.
	flows := [][3]float64{{0, 1, 10}, {2, 1, 4}}
	fab, _ := NewFabric(3, 2)
	if got, err := closedFormCCT(fab, flows...); err != nil || got != 7 {
		t.Errorf("closed-form CCT = %g (err %v), want 7", got, err)
	}
	rep, err := NewSimulator(fab, coflow.NewVarys()).Run([]*coflow.Coflow{mkCoflow(0, 0, flows...)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MaxCCT-7) > 1e-9 {
		t.Errorf("event sim CCT = %g, want 7", rep.MaxCCT)
	}
	if got, err := closedFormCCT(fab); err != nil || got != 0 {
		t.Errorf("empty coflow CCT = %g (err %v), want 0", got, err)
	}
}

func TestDeadlineModeThroughSimulator(t *testing.T) {
	// Three coflows sharing a port. A (10B, deadline 12) admitted; B
	// (10B, deadline 13) rejected after A's reservation; C best-effort.
	a := mkCoflow(0, 0, [3]float64{0, 1, 10})
	a.Deadline = 12
	b := mkCoflow(1, 0, [3]float64{0, 1, 10})
	b.Deadline = 13
	c := mkCoflow(2, 0, [3]float64{2, 3, 7})
	d := coflow.NewVarysDeadline()
	fab, _ := NewFabric(4, 1)
	rep, err := NewSimulator(fab, d).Run([]*coflow.Coflow{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Admitted(0) || d.Admitted(1) {
		t.Fatalf("admissions: a=%v b=%v, want true/false", d.Admitted(0), d.Admitted(1))
	}
	if rep.CCTs[0] > 12+1e-6 {
		t.Errorf("admitted coflow CCT %g missed deadline 12", rep.CCTs[0])
	}
	if rep.CCTs[2] > 7+1e-6 {
		t.Errorf("disjoint best-effort coflow CCT %g, want 7 (full port via backfill)", rep.CCTs[2])
	}
	stats := coflow.CollectDeadlineStats([]*coflow.Coflow{a, b, c}, d)
	if stats.WithDeadline != 2 || stats.Admitted != 1 || stats.Met < 1 {
		t.Errorf("deadline stats = %+v", stats)
	}
	// All bytes delivered despite the rejection (best-effort service).
	if math.Abs(rep.TotalBytes-27) > 1e-6 {
		t.Errorf("moved %g bytes, want 27", rep.TotalBytes)
	}
}
