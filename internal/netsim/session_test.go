package netsim_test

// Session semantics: a resumable session advanced in steps — stopping at
// every arrival and capacity-event timestamp, admitting coflows as they
// arrive — must be *bit-identical* to a straight-through RunInto over the
// same workload (the property the online engine's O(J) backlog reads stand
// on), and the documented edge cases (simultaneous arrivals, stops landing
// exactly on completion or failure-edge timestamps, t=0 horizons) must hold
// exactly.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

// sessionStops collects the timestamps a stepped session may stop at while
// staying bit-identical to a straight-through run: epoch boundaries only,
// i.e. arrivals of dependency-free coflows and capacity events, ascending.
// A dependency-gated coflow's arrival is NOT necessarily a boundary (it is
// admitted at its dependency's completion instant), so stopping there would
// split a fluid interval the straight-through run takes in one step.
func sessionStops(spec *workloadSpec) []float64 {
	var stops []float64
	for _, cs := range spec.coflows {
		if len(spec.deps[cs.id]) > 0 {
			continue
		}
		stops = append(stops, cs.arrival)
	}
	for _, ev := range spec.events {
		stops = append(stops, ev.Time)
	}
	sort.Float64s(stops)
	return stops
}

// runSession drives a stepped session over the spec's coflows: streaming
// admission at each arrival when the spec has no dependency DAG (dependency
// references must exist before they can gate admission), upfront admission
// otherwise, then Advance through every stop and Finish. Returns the final
// report and the first error the session latched.
func runSession(t *testing.T, sim *netsim.Simulator, spec *workloadSpec, cfs []*coflow.Coflow) (*netsim.Report, error) {
	t.Helper()
	ses, err := sim.Session()
	if err != nil {
		return nil, err
	}
	streaming := spec.deps == nil
	byArrival := append([]*coflow.Coflow(nil), cfs...)
	sort.SliceStable(byArrival, func(a, b int) bool { return byArrival[a].Arrival < byArrival[b].Arrival })
	if !streaming {
		for _, c := range byArrival {
			if err := ses.Admit(c); err != nil {
				return nil, err
			}
		}
	}
	next := 0
	for _, stop := range sessionStops(spec) {
		if streaming {
			for next < len(byArrival) && byArrival[next].Arrival <= stop {
				if err := ses.Admit(byArrival[next]); err != nil {
					return nil, err
				}
				next++
			}
		}
		if err := ses.Advance(stop); err != nil {
			return nil, err
		}
	}
	return ses.Finish()
}

// TestSessionMatchesRunInto is the golden session property: stepped sessions
// (streaming and upfront admission alike) equal straight-through runs bit
// for bit — reports, coflow end states, flow end states — across the same
// seeded workload space the refsim suite sweeps.
func TestSessionMatchesRunInto(t *testing.T) {
	const seeds = 24
	scheds := []struct {
		name string
		mk   func() coflow.Scheduler
	}{
		{"varys", coflow.NewVarys},
		{"aalo", func() coflow.Scheduler { return coflow.NewAalo() }},
		{"fifo", coflow.NewFIFO},
		{"per-flow-fair", func() coflow.Scheduler { return coflow.PerFlowFair{} }},
	}
	for _, sc := range scheds {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				spec := randomSpec(rand.New(rand.NewSource(seed)))

				refCfs := spec.build()
				refSim := netsim.NewSimulator(spec.fabric(t), sc.mk())
				refSim.Events = spec.events
				refSim.Deps = spec.deps
				if spec.horizon > 0 {
					refSim.Horizon = spec.horizon
				}
				refRep := &netsim.Report{}
				refErr := refSim.RunInto(refCfs, refRep)

				sesCfs := spec.build()
				sesSim := netsim.NewSimulator(spec.fabric(t), sc.mk())
				sesSim.Events = spec.events
				sesSim.Deps = spec.deps
				if spec.horizon > 0 {
					sesSim.Horizon = spec.horizon
				}
				sesRep, sesErr := runSession(t, sesSim, &spec, sesCfs)

				tag := fmt.Sprintf("%s/seed=%d", sc.name, seed)
				compareRuns(t, tag, &spec, sesCfs, refCfs, sesRep, refRep, sesErr, refErr)
			}
		})
	}
}

// TestSessionSimultaneousArrivals admits two coflows with the same arrival
// across separate Admit calls mid-session and checks the run equals a batch
// RunInto of all three.
func TestSessionSimultaneousArrivals(t *testing.T) {
	build := func() []*coflow.Coflow {
		mk := func(id int, arrival float64, src, dst int, size float64) *coflow.Coflow {
			return coflow.New(id, fmt.Sprintf("c%d", id), arrival,
				[]coflow.Flow{{ID: 0, Src: src, Dst: dst, Size: size}})
		}
		return []*coflow.Coflow{
			mk(0, 0, 0, 1, 64e6),
			mk(1, 0.25, 1, 2, 32e6), // simultaneous pair
			mk(2, 0.25, 2, 3, 16e6),
		}
	}
	fab, err := netsim.NewFabric(4, 0)
	if err != nil {
		t.Fatal(err)
	}

	refCfs := build()
	refRep, err := netsim.NewSimulator(fab, coflow.NewVarys()).Run(refCfs)
	if err != nil {
		t.Fatal(err)
	}

	sesCfs := build()
	sim := netsim.NewSimulator(fab, coflow.NewVarys())
	ses, err := sim.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Admit(sesCfs[0]); err != nil {
		t.Fatal(err)
	}
	if err := ses.Advance(0.25); err != nil {
		t.Fatal(err)
	}
	if err := ses.Admit(sesCfs[1]); err != nil {
		t.Fatal(err)
	}
	if err := ses.Admit(sesCfs[2]); err != nil {
		t.Fatal(err)
	}
	sesRep, err := ses.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range refRep.CCTs {
		if got := sesRep.CCTs[id]; got != want {
			t.Errorf("CCT[%d] = %v, want %v", id, got, want)
		}
	}
	if sesRep.Makespan != refRep.Makespan {
		t.Errorf("Makespan %v != %v", sesRep.Makespan, refRep.Makespan)
	}
}

// TestSessionAdvanceOnCompletionTimestamp lands an Advance exactly on a flow
// completion instant (sizes and the default bandwidth divide to a
// binary-exact time) and checks the completion is applied at the stop: CCT
// recorded, backlog empty.
func TestSessionAdvanceOnCompletionTimestamp(t *testing.T) {
	fab, err := netsim.NewFabric(2, 0) // 128e6 B/s
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.NewSimulator(fab, coflow.NewVarys())
	ses, err := sim.Session()
	if err != nil {
		t.Fatal(err)
	}
	cf := coflow.New(0, "c0", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 8e6}})
	if err := ses.Admit(cf); err != nil {
		t.Fatal(err)
	}
	const done = 8e6 / 128e6 // 0.0625, exact in binary
	if err := ses.Advance(done); err != nil {
		t.Fatal(err)
	}
	eg, in := make([]int64, 2), make([]int64, 2)
	if err := ses.BacklogInto(eg, in); err != nil {
		t.Fatal(err)
	}
	if eg[0] != 0 || in[1] != 0 {
		t.Errorf("backlog at completion instant: eg=%v in=%v, want zeros", eg, in)
	}
	if got, ok := ses.Report().CCTs[0]; !ok || got != done {
		t.Errorf("CCT[0] = %v (ok=%v), want %v at the stop instant", got, ok, done)
	}
	rep, err := ses.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != done {
		t.Errorf("Makespan = %v, want %v", rep.Makespan, done)
	}
}

// TestSessionAdvanceOnFailureEdge lands Advance stops exactly on a failure's
// down and up edges. At the down instant the restart policy has voided the
// flow's progress — the backlog must read the full size again — and the
// whole stepped run still matches a straight-through faulted run bit for
// bit.
func TestSessionAdvanceOnFailureEdge(t *testing.T) {
	const size = 32e6
	const down, up = 0.125, 0.25 // binary-exact edges
	build := func() []*coflow.Coflow {
		return []*coflow.Coflow{coflow.New(0, "c0", 0,
			[]coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: size}})}
	}
	fab, err := netsim.NewFabric(2, 0)
	if err != nil {
		t.Fatal(err)
	}

	refCfs := build()
	refSim := netsim.NewSimulator(fab, coflow.NewVarys())
	refSim.Failures = []netsim.PortFailure{{Port: 1, Down: down, Up: up}}
	refRep, err := refSim.Run(refCfs)
	if err != nil {
		t.Fatal(err)
	}

	sesCfs := build()
	sim := netsim.NewSimulator(fab, coflow.NewVarys())
	sim.Failures = []netsim.PortFailure{{Port: 1, Down: down, Up: up}}
	ses, err := sim.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Admit(sesCfs[0]); err != nil {
		t.Fatal(err)
	}
	if err := ses.Advance(down); err != nil {
		t.Fatal(err)
	}
	eg, in := make([]int64, 2), make([]int64, 2)
	if err := ses.BacklogInto(eg, in); err != nil {
		t.Fatal(err)
	}
	if eg[0] != int64(size) {
		t.Errorf("backlog at down edge = %d, want full size %d (restart voided progress)", eg[0], int64(size))
	}
	if err := ses.Advance(up); err != nil {
		t.Fatal(err)
	}
	if err := ses.BacklogInto(eg, in); err != nil {
		t.Fatal(err)
	}
	if eg[0] != int64(size) {
		t.Errorf("backlog at up edge = %d, want %d (port was down throughout)", eg[0], int64(size))
	}
	sesRep, err := ses.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sesRep.CCTs[0] != refRep.CCTs[0] || sesRep.Makespan != refRep.Makespan {
		t.Errorf("stepped faulted run (cct=%v makespan=%v) != straight-through (cct=%v makespan=%v)",
			sesRep.CCTs[0], sesRep.Makespan, refRep.CCTs[0], refRep.Makespan)
	}
	if sesRep.WastedBytes != refRep.WastedBytes {
		t.Errorf("WastedBytes %v != %v", sesRep.WastedBytes, refRep.WastedBytes)
	}
}

// TestHorizonZeroStopsAtTimeZero is the Horizon zero-value regression at the
// simulator level: with the NoHorizon sentinel, Horizon = 0 is a real
// "stop at t=0" — a coflow arriving at 0 is admitted but moves nothing, so
// its full volume reads back as backlog.
func TestHorizonZeroStopsAtTimeZero(t *testing.T) {
	fab, err := netsim.NewFabric(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfs := []*coflow.Coflow{coflow.New(0, "c0", 0,
		[]coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 4e6}})}
	sim := netsim.NewSimulator(fab, coflow.NewVarys())
	sim.Horizon = 0
	rep, err := sim.Run(cfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CCTs) != 0 {
		t.Errorf("coflow completed under Horizon=0: %v", rep.CCTs)
	}
	if rep.Makespan != 0 {
		t.Errorf("Makespan = %v, want 0", rep.Makespan)
	}
	if f := cfs[0].Flows[0]; f.Done || int64(f.Remaining+0.5) != 4e6 {
		t.Errorf("backlog under Horizon=0: %v bytes (done %v), want the full 4e6", f.Remaining, f.Done)
	}
	// And the default stays "no horizon": a fresh simulator runs to the end.
	rep2, err := netsim.NewSimulator(fab, coflow.NewVarys()).Run(cfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.CCTs) != 1 {
		t.Errorf("default-horizon run did not complete: %v", rep2.CCTs)
	}
}

// TestSessionLifecycleErrors pins the session API contract: no Advance into
// the past, no use after Finish, and errors latch.
func TestSessionLifecycleErrors(t *testing.T) {
	fab, err := netsim.NewFabric(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.NewSimulator(fab, coflow.NewVarys())
	ses, err := sim.Session()
	if err != nil {
		t.Fatal(err)
	}
	// A long transfer keeps the session busy so the clock really advances
	// (a drained session parks its clock at the last event instead).
	if err := ses.Admit(coflow.New(1, "slow", 0,
		[]coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 1e12}})); err != nil {
		t.Fatal(err)
	}
	if err := ses.Advance(2); err != nil {
		t.Fatal(err)
	}
	if err := ses.Advance(1); err == nil {
		t.Error("Advance into the past succeeded")
	}
	if err := ses.Advance(3); err != nil {
		t.Fatalf("forward Advance after a rejected one: %v", err)
	}
	if _, err := ses.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := ses.Advance(4); err == nil {
		t.Error("Advance after Finish succeeded")
	}
	if err := ses.Admit(coflow.New(0, "late", 0, []coflow.Flow{{Src: 0, Dst: 1, Size: 1}})); err == nil {
		t.Error("Admit after Finish succeeded")
	}
	if _, err := ses.Finish(); err == nil {
		t.Error("double Finish succeeded")
	}
	if math.IsNaN(ses.Now()) {
		t.Error("Now is NaN")
	}
}

// TestSessionRejectsNonFiniteTimes: a NaN arrival compares false against
// every clock and an infinite one never comes, so either used to stall the
// loop to its epoch limit. Admit and RunInto refuse them, and Advance(NaN)
// is an error that leaves the session usable.
func TestSessionRejectsNonFiniteTimes(t *testing.T) {
	fab, err := netsim.NewFabric(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.NewSimulator(fab, coflow.NewVarys())
	for _, a := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := coflow.New(0, "bad", a, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 1}})
		ses, err := sim.Session()
		if err != nil {
			t.Fatal(err)
		}
		if err := ses.Admit(bad); err == nil || !strings.Contains(err.Error(), "non-finite arrival") {
			t.Errorf("Admit at %g: %v, want a non-finite-arrival error", a, err)
		}
		var rep netsim.Report
		if err := sim.RunInto([]*coflow.Coflow{bad}, &rep); err == nil || !strings.Contains(err.Error(), "non-finite arrival") {
			t.Errorf("RunInto at %g: %v, want a non-finite-arrival error", a, err)
		}
	}
	ses, err := sim.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Advance(math.NaN()); err == nil {
		t.Error("Advance(NaN) succeeded")
	}
	if err := ses.Admit(coflow.New(0, "ok", 1, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 1}})); err != nil {
		t.Fatalf("Admit after a refused Advance(NaN): %v", err)
	}
	if rep, err := ses.Finish(); err != nil || rep.Makespan <= 1 {
		t.Errorf("Finish after a refused Advance(NaN): %+v, %v", rep, err)
	}
}

// TestSessionRejectsNonFiniteSizes: a NaN size never compares done and an
// infinite one never drains, so either used to stall the loop to its epoch
// limit. Admit and RunInto refuse them. coflow.New keeps NaN and +Inf sizes
// and drops −Inf with the other sizes ≤ 0, so that one is built by hand.
func TestSessionRejectsNonFiniteSizes(t *testing.T) {
	fab, err := netsim.NewFabric(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.NewSimulator(fab, coflow.NewVarys())
	for _, size := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := &coflow.Coflow{ID: 7, Name: "bad", Flows: []*coflow.Flow{
			{ID: 0, Src: 0, Dst: 1, Size: 1, Remaining: 1},
			{ID: 1, Src: 1, Dst: 0, Size: size, Remaining: size},
		}}
		ses, err := sim.Session()
		if err != nil {
			t.Fatal(err)
		}
		if err := ses.Admit(bad); err == nil || !strings.Contains(err.Error(), "non-finite size") {
			t.Errorf("Admit of size %g: %v, want a non-finite-size error", size, err)
		}
		var rep netsim.Report
		if err := sim.RunInto([]*coflow.Coflow{bad}, &rep); err == nil || !strings.Contains(err.Error(), "non-finite size") {
			t.Errorf("RunInto of size %g: %v, want a non-finite-size error", size, err)
		}
		if rep, err := ses.Finish(); err != nil || rep.Makespan != 0 {
			t.Errorf("Finish after a refused Admit: %+v, %v", rep, err)
		}
	}
}
