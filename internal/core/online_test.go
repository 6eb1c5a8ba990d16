package core

import (
	"math"
	"strings"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/placement"
	"ccf/internal/workload"
)

func onlineWorkload(t *testing.T, n int, zipf float64, seed uint64) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Nodes: n, CustomerTuples: 2_000, OrderTuples: 20_000,
		PayloadBytes: 1000, Zipf: zipf, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunOnlineEmpty(t *testing.T) {
	rep, err := RunOnline(nil, OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 0 || len(rep.CCTs) != 0 {
		t.Errorf("empty run: %+v", rep)
	}
}

func TestRunOnlineValidation(t *testing.T) {
	w8 := onlineWorkload(t, 8, 0.8, 1)
	w4 := onlineWorkload(t, 4, 0.8, 1)
	if _, err := RunOnline([]OnlineJob{{Workload: nil}}, OnlineOptions{}); err == nil {
		t.Error("accepted a nil workload")
	}
	if _, err := RunOnline([]OnlineJob{{Workload: w8}, {Workload: w4}}, OnlineOptions{}); err == nil {
		t.Error("accepted mismatched cluster widths")
	}
	if _, err := RunOnline([]OnlineJob{{Workload: w8, Arrival: -1}}, OnlineOptions{}); err == nil {
		t.Error("accepted negative arrival")
	}
	// A NaN arrival passes every ordering comparison and used to spin the
	// event loop to its epoch limit; +Inf used to report Makespan +Inf with a
	// nil error. Both are refused before any state is touched.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		_, err := RunOnline([]OnlineJob{{Workload: w8}, {Workload: w8, Arrival: bad}}, OnlineOptions{CoOptimize: true})
		if err == nil || !strings.Contains(err.Error(), "non-finite arrival") {
			t.Errorf("RunOnline with arrival %v: %v, want a non-finite-arrival error", bad, err)
		}
		eng, err := NewOnlineEngine(8, OnlineOptions{CoOptimize: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Submit(OnlineJob{Workload: w8, Arrival: bad}); err == nil || !strings.Contains(err.Error(), "non-finite arrival") {
			t.Errorf("Submit with arrival %v: %v, want a non-finite-arrival error", bad, err)
		}
		if _, err := eng.Submit(OnlineJob{Workload: w8, Arrival: 1}); err != nil {
			t.Errorf("engine unusable after refusing arrival %v: %v", bad, err)
		}
		if rep, err := eng.Finish(); err != nil || math.IsInf(rep.Makespan, 0) || math.IsNaN(rep.Makespan) {
			t.Errorf("Finish after refusing arrival %v: %+v, %v", bad, rep, err)
		}
	}
}

func TestRunOnlineSingleJobMatchesOffline(t *testing.T) {
	// One job online == the offline pipeline.
	w := onlineWorkload(t, 8, 0.8, 2)
	on, err := RunOnline([]OnlineJob{{Name: "solo", Workload: w}}, OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunScheduler(w, placement.CCF{}, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(on.CCTs[0]-off.TimeSec)/(off.TimeSec+1e-12) > 1e-6 {
		t.Errorf("online single job CCT %g != offline %g", on.CCTs[0], off.TimeSec)
	}
}

func TestRunOnlineCoOptimizationHelps(t *testing.T) {
	// Job 1 floods node 0's ingress (a Mini placement on aligned-zipf
	// data). Job 2 (CCF) arrives mid-transfer: the co-optimized placement
	// must see node 0's backlog and steer around it, the oblivious one
	// piles on.
	n := 8
	first := onlineWorkload(t, n, 1.0, 3)
	second := onlineWorkload(t, n, 0.0, 4)
	jobs := func() []OnlineJob {
		return []OnlineJob{
			{Name: "hot", Arrival: 0, Workload: first, Scheduler: placement.Mini{}},
			{Name: "late", Arrival: 1, Workload: second, Scheduler: placement.CCF{}},
		}
	}
	oblivious, err := RunOnline(jobs(), OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coopt, err := RunOnline(jobs(), OnlineOptions{CoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if coopt.CCTs[1] > oblivious.CCTs[1] {
		t.Errorf("co-optimized late-job CCT %g worse than oblivious %g", coopt.CCTs[1], oblivious.CCTs[1])
	}
	if coopt.AvgCCT > oblivious.AvgCCT*1.001 {
		t.Errorf("co-optimized avg CCT %g worse than oblivious %g", coopt.AvgCCT, oblivious.AvgCCT)
	}
}

func TestRunOnlineArrivalOrderIndependence(t *testing.T) {
	// Jobs given out of order must be processed by arrival.
	n := 6
	a := onlineWorkload(t, n, 0.8, 5)
	b := onlineWorkload(t, n, 0.8, 6)
	fwd, err := RunOnline([]OnlineJob{
		{Name: "a", Arrival: 0, Workload: a},
		{Name: "b", Arrival: 2, Workload: b},
	}, OnlineOptions{CoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := RunOnline([]OnlineJob{
		{Name: "b", Arrival: 2, Workload: b},
		{Name: "a", Arrival: 0, Workload: a},
	}, OnlineOptions{CoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fwd.CCTs[0]-rev.CCTs[1]) > 1e-9 || math.Abs(fwd.CCTs[1]-rev.CCTs[0]) > 1e-9 {
		t.Errorf("arrival ordering not respected: fwd=%v rev=%v", fwd.CCTs, rev.CCTs)
	}
}

func TestRunOnlineWithSkewHandling(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Nodes: 6, CustomerTuples: 1_000, OrderTuples: 10_000,
		PayloadBytes: 1000, Zipf: 0.8, Skew: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunOnline([]OnlineJob{{Name: "skewed", Workload: w, HandleSkew: true}}, OnlineOptions{CoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunScheduler(w, placement.CCF{}, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.CCTs[0]-off.TimeSec)/(off.TimeSec+1e-12) > 1e-6 {
		t.Errorf("online skew-handled CCT %g != offline %g", rep.CCTs[0], off.TimeSec)
	}
}

func TestHorizonSimulation(t *testing.T) {
	// Direct check of the backlog probe: a 10-byte flow at 1 B/s probed at
	// t=4 must have 6 bytes left.
	c := coflow.New(0, "h", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 10}})
	fab, err := netsim.NewFabric(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.NewSimulator(fab, coflow.NewVarys())
	sim.Horizon = 4
	rep, err := sim.Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 4 {
		t.Errorf("horizon run ended at %g, want 4", rep.Makespan)
	}
	if f := c.Flows[0]; f.Done || int64(f.Remaining+0.5) != 6 {
		t.Errorf("backlog = %v bytes (done %v), want 6 left on the 0→1 flow", f.Remaining, f.Done)
	}
	// Horizon past completion behaves like a full run.
	sim.Horizon = 100
	rep, err = sim.Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.CCTs[0]; math.Abs(got-10) > 1e-9 {
		t.Errorf("CCT with generous horizon = %g, want 10", got)
	}
}

func TestHorizonBeforeArrival(t *testing.T) {
	c := coflow.New(0, "h", 5, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 10}})
	fab, err := netsim.NewFabric(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.NewSimulator(fab, coflow.NewVarys())
	sim.Horizon = 3
	rep, err := sim.Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CCTs) != 0 {
		t.Errorf("coflow completed before arriving: %+v", rep)
	}
	if f := c.Flows[0]; f.Done || int64(f.Remaining+0.5) != 10 {
		t.Errorf("untouched backlog = %v bytes (done %v), want 10", f.Remaining, f.Done)
	}
}
