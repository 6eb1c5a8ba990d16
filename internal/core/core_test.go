package core

import (
	"math"
	"testing"

	"ccf/internal/netsim"
	"ccf/internal/placement"
	"ccf/internal/workload"
)

// testSweep keeps unit-test sweeps fast: 1/1000 of the paper's tuples.
var testSweep = SweepOptions{Scale: 0.001}

func TestSchedulerFor(t *testing.T) {
	for _, tc := range []struct {
		a       Approach
		name    string
		skewing bool
	}{
		{ApproachHash, "Hash", false},
		{ApproachMini, "Mini", true},
		{ApproachCCF, "CCF", true},
	} {
		s, sk, err := SchedulerFor(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != tc.name || sk != tc.skewing {
			t.Errorf("SchedulerFor(%s) = (%s, %v), want (%s, %v)", tc.a, s.Name(), sk, tc.name, tc.skewing)
		}
	}
	for _, a := range []Approach{"bogus", "LPT", "hash"} {
		if _, _, err := SchedulerFor(a); err == nil {
			t.Errorf("SchedulerFor accepted the unknown approach %q", a)
		}
	}
}

func testWorkload(t *testing.T, n int, zipf, skewFrac float64) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Nodes: n, CustomerTuples: 9_000, OrderTuples: 90_000,
		PayloadBytes: 1000, Zipf: zipf, Skew: skewFrac,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestEventSimMatchesClosedForm(t *testing.T) {
	// The figure experiments use the closed-form bandwidth model; the event
	// simulator must agree for every approach, with and without skew.
	for _, skewFrac := range []float64{0, 0.2} {
		w := testWorkload(t, 8, 0.8, skewFrac)
		for _, a := range []Approach{ApproachHash, ApproachMini, ApproachCCF} {
			closed, err := Run(w, a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := Run(w, a, Options{UseEventSim: true})
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(closed.TimeSec-sim.TimeSec) / (closed.TimeSec + 1e-12); rel > 1e-6 {
				t.Errorf("skew=%g %s: closed form %g s vs event sim %g s", skewFrac, a, closed.TimeSec, sim.TimeSec)
			}
			if closed.TrafficBytes != sim.TrafficBytes {
				t.Errorf("skew=%g %s: traffic differs %d vs %d", skewFrac, a, closed.TrafficBytes, sim.TrafficBytes)
			}
		}
	}
}

func TestHashIgnoresSkewHandling(t *testing.T) {
	w := testWorkload(t, 8, 0.8, 0.2)
	r, err := Run(w, ApproachHash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.SkewHandled {
		t.Error("Hash must be skew-oblivious per §IV.A")
	}
	for _, a := range []Approach{ApproachMini, ApproachCCF} {
		r, err := Run(w, a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.SkewHandled {
			t.Errorf("%s must integrate partial duplication per §IV.A", a)
		}
	}
}

func TestRunAllReturnsThreeApproaches(t *testing.T) {
	w := testWorkload(t, 6, 0.8, 0.2)
	rs, err := RunAll(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("RunAll returned %d results", len(rs))
	}
	for a, r := range rs {
		if r.TimeSec <= 0 || r.TrafficBytes <= 0 {
			t.Errorf("%s: degenerate result %+v", a, r)
		}
		if err := r.Placement.Validate(6, w.Config.Partitions); err != nil {
			t.Errorf("%s: invalid placement: %v", a, err)
		}
	}
}

func TestFig5ShapeHolds(t *testing.T) {
	fr, err := Fig5([]int{50, 100, 200}, testSweep)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fr.SpeedupOverHash {
		if fr.SpeedupOverHash[i] < 1.5 {
			t.Errorf("point %d: CCF only %.2f× over Hash; paper band is 2.1-3.7×", i, fr.SpeedupOverHash[i])
		}
		if fr.SpeedupOverMini[i] < 5 {
			t.Errorf("point %d: CCF only %.2f× over Mini; paper band is 8.1-15.2×", i, fr.SpeedupOverMini[i])
		}
	}
	// Traffic ordering: Mini ≤ CCF ≤ Hash at every point.
	mini, _ := fr.Traffic.Get("Mini")
	ccf, _ := fr.Traffic.Get("CCF")
	hash, _ := fr.Traffic.Get("Hash")
	for i := range fr.Traffic.X {
		if !(mini.Values[i] <= ccf.Values[i]+1e-9 && ccf.Values[i] <= hash.Values[i]+1e-9) {
			t.Errorf("point %d: traffic ordering violated: Mini %g, CCF %g, Hash %g",
				i, mini.Values[i], ccf.Values[i], hash.Values[i])
		}
	}
}

func TestFig6ShapeHolds(t *testing.T) {
	fr, err := Fig6([]float64{0, 0.5, 1.0}, 100, testSweep)
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := fr.Time.Get("Hash")
	ccf, _ := fr.Time.Get("CCF")
	mini, _ := fr.Time.Get("Mini")
	// Hash ≈ flat: dominated by the skew hotspot at every zipf.
	lo, hi := hash.Values[0], hash.Values[0]
	for _, v := range hash.Values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi/lo > 1.3 {
		t.Errorf("Hash time varies %.2f× across zipf; paper says nearly constant", hi/lo)
	}
	// CCF increases with zipf.
	for i := 1; i < len(ccf.Values); i++ {
		if ccf.Values[i] <= ccf.Values[i-1] {
			t.Errorf("CCF time not increasing with zipf: %v", ccf.Values)
		}
	}
	// Mini is worst everywhere.
	for i := range mini.Values {
		if mini.Values[i] <= ccf.Values[i] || mini.Values[i] <= hash.Values[i] {
			t.Errorf("point %d: Mini (%g) not the slowest (CCF %g, Hash %g)",
				i, mini.Values[i], ccf.Values[i], hash.Values[i])
		}
	}
	// The extreme speedup at zipf=0 (paper: up to 395× over Mini).
	if fr.SpeedupOverMini[0] < 50 {
		t.Errorf("zipf=0 speedup over Mini = %.1f×; paper reports hundreds", fr.SpeedupOverMini[0])
	}
}

func TestFig7ShapeHolds(t *testing.T) {
	fr, err := Fig7([]float64{0, 0.25, 0.5}, 100, testSweep)
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := fr.Time.Get("Hash")
	ccf, _ := fr.Time.Get("CCF")
	mini, _ := fr.Time.Get("Mini")
	// Hash rises sharply with skew; Mini and CCF decrease.
	if !(hash.Values[0] < hash.Values[1] && hash.Values[1] < hash.Values[2]) {
		t.Errorf("Hash time not increasing with skew: %v", hash.Values)
	}
	for i := 1; i < 3; i++ {
		if ccf.Values[i] >= ccf.Values[i-1] {
			t.Errorf("CCF time not decreasing with skew: %v", ccf.Values)
		}
		if mini.Values[i] >= mini.Values[i-1] {
			t.Errorf("Mini time not decreasing with skew: %v", mini.Values)
		}
	}
	// At skew 0, CCF still (slightly) beats Hash — the paper's "about 50
	// secs faster" at full scale.
	if ccf.Values[0] >= hash.Values[0] {
		t.Errorf("skew=0: CCF (%g) not faster than Hash (%g)", ccf.Values[0], hash.Values[0])
	}
	// Traffic decreases linearly-ish with skew for Mini and CCF.
	miniTr, _ := fr.Traffic.Get("Mini")
	if !(miniTr.Values[0] > miniTr.Values[1] && miniTr.Values[1] > miniTr.Values[2]) {
		t.Errorf("Mini traffic not decreasing with skew: %v", miniTr.Values)
	}
}

func TestSpeedupsAreScaleInvariant(t *testing.T) {
	// The bandwidth model is linear in bytes, so scaling the dataset must
	// not change the speedups — this is what justifies the scaled-down
	// sweeps in tests and benches.
	a, err := Fig5([]int{100}, SweepOptions{Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig5([]int{100}, SweepOptions{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(a.SpeedupOverHash[0]-b.SpeedupOverHash[0]) / b.SpeedupOverHash[0]; rel > 0.02 {
		t.Errorf("speedup over Hash varies with scale: %.3f vs %.3f", a.SpeedupOverHash[0], b.SpeedupOverHash[0])
	}
	if rel := math.Abs(a.SpeedupOverMini[0]-b.SpeedupOverMini[0]) / b.SpeedupOverMini[0]; rel > 0.02 {
		t.Errorf("speedup over Mini varies with scale: %.3f vs %.3f", a.SpeedupOverMini[0], b.SpeedupOverMini[0])
	}
}

func TestDefaultAxes(t *testing.T) {
	if got := DefaultFig5Nodes(); len(got) != 10 || got[0] != 100 || got[9] != 1000 {
		t.Errorf("DefaultFig5Nodes = %v", got)
	}
	if got := DefaultFig6Zipfs(); len(got) != 6 || got[5] != 1.0 {
		t.Errorf("DefaultFig6Zipfs = %v", got)
	}
	if got := DefaultFig7Skews(); len(got) != 6 || got[5] != 0.5 {
		t.Errorf("DefaultFig7Skews = %v", got)
	}
}

func TestRunSchedulerWithCustomScheduler(t *testing.T) {
	w := testWorkload(t, 6, 0.8, 0.2)
	r, err := RunScheduler(w, placement.LPT{}, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Approach != "LPT" {
		t.Errorf("approach = %q, want LPT", r.Approach)
	}
	if r.TimeSec <= 0 {
		t.Error("LPT run produced zero time")
	}
}

func TestTrafficGBUnits(t *testing.T) {
	r := &Result{TrafficBytes: 2_500_000_000}
	if got := r.TrafficGB(); got != 2.5 {
		t.Errorf("TrafficGB = %g, want 2.5", got)
	}
}

func TestShuffledRanksWeakenMiniCollapse(t *testing.T) {
	// Ablation abl-rank: with rotated zipf ranks Mini no longer funnels
	// everything into node 0, so its time improves dramatically.
	aligned, err := Fig6([]float64{0.8}, 60, SweepOptions{Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := Fig6([]float64{0.8}, 60, SweepOptions{Scale: 0.001, ShuffleRanks: true})
	if err != nil {
		t.Fatal(err)
	}
	am, _ := aligned.Time.Get("Mini")
	sm, _ := shuffled.Time.Get("Mini")
	if sm.Values[0] >= am.Values[0]/2 {
		t.Errorf("shuffled-rank Mini (%g s) not ≪ aligned Mini (%g s)", sm.Values[0], am.Values[0])
	}
}

func TestCustomBandwidthScalesTime(t *testing.T) {
	w := testWorkload(t, 6, 0.8, 0.2)
	slow, err := Run(w, ApproachCCF, Options{Bandwidth: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(w, ApproachCCF, Options{Bandwidth: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	if r := slow.TimeSec / fast.TimeSec; math.Abs(r-2) > 1e-9 {
		t.Errorf("halving bandwidth changed time by %gx, want exactly 2x", r)
	}
}

// TestNonFiniteBandwidthRejected: NaN and ±Inf are errors on both execution
// paths and in the node-loss pipeline, the values netsim.NewFabric refuses;
// 0 is the 128 MB/s default.
func TestNonFiniteBandwidthRejected(t *testing.T) {
	w := testWorkload(t, 6, 0.8, 0.2)
	for _, bw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, eventSim := range []bool{false, true} {
			if r, err := Run(w, ApproachCCF, Options{Bandwidth: bw, UseEventSim: eventSim}); err == nil {
				t.Errorf("Run(bw=%g, eventsim=%v) = %g s, want an error", bw, eventSim, r.TimeSec)
			}
		}
		spec := NodeLossSpec{FailNode: 1, FailTime: 1e-3}
		if _, err := RunWithNodeLoss(w, placement.CCF{}, spec, RecoverReplace, Options{Bandwidth: bw}); err == nil {
			t.Errorf("RunWithNodeLoss(bw=%g) accepted a non-finite bandwidth", bw)
		}
	}
	for _, eventSim := range []bool{false, true} {
		zero, err := Run(w, ApproachCCF, Options{UseEventSim: eventSim})
		if err != nil {
			t.Fatal(err)
		}
		def, err := Run(w, ApproachCCF, Options{Bandwidth: netsim.DefaultPortBandwidth, UseEventSim: eventSim})
		if err != nil {
			t.Fatal(err)
		}
		if zero.TimeSec != def.TimeSec {
			t.Errorf("eventsim=%v: bandwidth 0 gives %g s, the default gives %g s", eventSim, zero.TimeSec, def.TimeSec)
		}
	}
}

func TestSweepPropagatesGenerationErrors(t *testing.T) {
	// A zero node count at a sweep point must surface as an error, not a
	// panic or silent skip.
	if _, err := Fig5([]int{0}, testSweep); err == nil {
		t.Error("Fig5 accepted a zero node count")
	}
}

func TestFigDefaultsApplied(t *testing.T) {
	// Defaults: Fig6/Fig7 use 500 nodes and their canonical axes when
	// given zeros; verify with a tiny scale so this stays fast.
	fr, err := Fig6(nil, 40, SweepOptions{Scale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Time.X) != len(DefaultFig6Zipfs()) {
		t.Errorf("Fig6 default axis has %d points", len(fr.Time.X))
	}
	fr7, err := Fig7(nil, 40, SweepOptions{Scale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr7.Time.X) != len(DefaultFig7Skews()) {
		t.Errorf("Fig7 default axis has %d points", len(fr7.Time.X))
	}
}

func TestPartitionMultiplierOption(t *testing.T) {
	opts := SweepOptions{Scale: 0.001, PartitionMultiplier: 5}
	cfg := opts.workloadConfig(20, 0.8, 0.2)
	if cfg.Partitions != 100 {
		t.Errorf("partitions = %d, want 5×20", cfg.Partitions)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Chunks.P != 100 {
		t.Errorf("generated partitions = %d", w.Chunks.P)
	}
}
