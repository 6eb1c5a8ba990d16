package netsim

import (
	"errors"
	"math"
	"testing"

	"ccf/internal/coflow"
)

// 1000 bytes at 100 B/s ⇒ fault-free CCT 10. Port 1 fails at t=4 (400 bytes
// in flight), recovers at t=6.
func failureFixture(policy RetransmitPolicy) (*Simulator, []*coflow.Coflow) {
	fab, _ := NewFabric(2, 100)
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Failures = []PortFailure{{Port: 1, Down: 4, Up: 6}}
	sim.Retransmit = policy
	return sim, []*coflow.Coflow{mkCoflow(7, 0, [3]float64{0, 1, 1000})}
}

func TestFailureRestartVoidsInFlightProgress(t *testing.T) {
	sim, cfs := failureFixture(RetransmitRestart)
	rep, err := sim.Run(cfs)
	if err != nil {
		t.Fatal(err)
	}
	// 400 bytes voided at t=4; the full 1000 re-sent from t=6 ⇒ done at 16.
	if math.Abs(rep.Makespan-16) > 1e-9 {
		t.Errorf("makespan = %g, want 16", rep.Makespan)
	}
	if math.Abs(rep.WastedBytes-400) > 1e-6 {
		t.Errorf("WastedBytes = %g, want 400", rep.WastedBytes)
	}
	if rep.Restarts[7] != 1 {
		t.Errorf("Restarts[7] = %d, want 1", rep.Restarts[7])
	}
	// Byte conservation: wire bytes = delivered + wasted.
	if math.Abs(rep.TotalBytes-(1000+400)) > 1e-6 {
		t.Errorf("TotalBytes = %g, want 1400", rep.TotalBytes)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("Failures = %v, want one outcome", rep.Failures)
	}
	out := rep.Failures[0]
	if out.Port != 1 || out.Permanent || out.FlowsHit != 1 {
		t.Errorf("outcome = %+v", out)
	}
	if !out.Recovered || math.Abs(out.TimeToRecovery-12) > 1e-9 {
		t.Errorf("recovery = %v/%g, want true/12", out.Recovered, out.TimeToRecovery)
	}
}

func TestFailureResumeKeepsProgress(t *testing.T) {
	sim, cfs := failureFixture(RetransmitResume)
	rep, err := sim.Run(cfs)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpointed: the flow just waits out the 2 s outage ⇒ done at 12.
	if math.Abs(rep.Makespan-12) > 1e-9 {
		t.Errorf("makespan = %g, want 12", rep.Makespan)
	}
	if rep.WastedBytes != 0 || rep.Restarts != nil {
		t.Errorf("resume wasted %g bytes, restarts %v; want none", rep.WastedBytes, rep.Restarts)
	}
	out := rep.Failures[0]
	if out.FlowsHit != 1 || !out.Recovered || math.Abs(out.TimeToRecovery-8) > 1e-9 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestFailureRestartDeliveredResurrectsFlows(t *testing.T) {
	// Per-flow fair over shared egress 0: 0→1 (1000 B) and 0→2 (200 B) get
	// 50 B/s each, so 0→2 delivers at t=4. Port 2 then fails at t=6 with
	// receiver loss: the delivered 200 bytes void and re-enter the live
	// set. Outage 6→7 freezes everything (fair share stalls on a
	// zero-capacity port); from t=7 fair share resumes: 0→2 re-delivers at
	// t=11, 0→1 finishes its remaining 400 at full rate by t=15.
	fab, _ := NewFabric(3, 100)
	sim := NewSimulator(fab, coflow.PerFlowFair{})
	sim.Failures = []PortFailure{{Port: 2, Down: 6, Up: 7}}
	sim.Retransmit = RetransmitRestartDelivered
	c := mkCoflow(3, 0, [3]float64{0, 1, 1000}, [3]float64{0, 2, 200})
	rep, err := sim.Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Makespan-15) > 1e-9 {
		t.Errorf("makespan = %g, want 15", rep.Makespan)
	}
	if math.Abs(rep.WastedBytes-200) > 1e-6 {
		t.Errorf("WastedBytes = %g, want 200", rep.WastedBytes)
	}
	if rep.Restarts[3] != 1 {
		t.Errorf("Restarts[3] = %d, want 1", rep.Restarts[3])
	}
	if math.Abs(rep.TotalBytes-(1200+200)) > 1e-6 {
		t.Errorf("TotalBytes = %g, want 1400", rep.TotalBytes)
	}
	out := rep.Failures[0]
	if !out.Recovered || math.Abs(out.TimeToRecovery-5) > 1e-9 {
		t.Errorf("outcome = %+v, want recovered with TTR 5", out)
	}
}

func TestPermanentFailureStallsRestartingFlows(t *testing.T) {
	fab, _ := NewFabric(2, 100)
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Failures = []PortFailure{{Port: 1, Down: 4}} // Up <= Down: forever
	_, err := sim.Run([]*coflow.Coflow{mkCoflow(0, 0, [3]float64{0, 1, 1000})})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("permanent failure err = %v, want ErrStalled", err)
	}
}

func TestFailureValidation(t *testing.T) {
	fab, _ := NewFabric(2, 100)
	cfs := []*coflow.Coflow{mkCoflow(0, 0, [3]float64{0, 1, 10})}
	for _, pf := range []PortFailure{
		{Port: 5, Down: 1, Up: 2},
		{Port: -1, Down: 1, Up: 2},
		{Port: 0, Down: -3, Up: 2},
		{Port: 0, Down: math.Inf(1), Up: 2},
		{Port: 0, Down: math.Inf(1)},
	} {
		sim := NewSimulator(fab, coflow.NewVarys())
		sim.Failures = []PortFailure{pf}
		if _, err := sim.Run(cfs); err == nil {
			t.Errorf("failure %+v accepted, want error", pf)
		}
	}
}

func TestFaultedRunLeavesNoStateBehind(t *testing.T) {
	// A simulator that ran with failures (including a permanent one that
	// errors out) must behave identically to a fresh simulator on the next
	// fault-free run — no down-counter or schedule leakage.
	fab, _ := NewFabric(4, 100)
	mk := func() []*coflow.Coflow {
		return []*coflow.Coflow{
			mkCoflow(0, 0, [3]float64{0, 1, 1000}, [3]float64{2, 3, 500}),
			mkCoflow(1, 1, [3]float64{1, 2, 700}),
		}
	}
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Failures = []PortFailure{{Port: 1, Down: 2}}
	if _, err := sim.Run(mk()); !errors.Is(err, ErrStalled) {
		t.Fatalf("permanent-failure run err = %v, want ErrStalled", err)
	}
	sim.Failures = nil
	got, err := sim.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSimulator(fab, coflow.NewVarys()).Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.AvgCCT != want.AvgCCT ||
		got.TotalBytes != want.TotalBytes || got.Epochs != want.Epochs {
		t.Errorf("post-fault run diverged: got %+v, want %+v", got, want)
	}
	if got.WastedBytes != 0 || len(got.Failures) != 0 {
		t.Errorf("fault-free run reports failure artifacts: %+v", got)
	}
}

func TestOverlappingFailuresCompose(t *testing.T) {
	// Two overlapping outages of the same port: capacity returns only when
	// the later one lifts (t=8), so the 1000-byte flow (restarted) lands
	// at 18.
	fab, _ := NewFabric(2, 100)
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Failures = []PortFailure{{Port: 1, Down: 4, Up: 6}, {Port: 1, Down: 5, Up: 8}}
	rep, err := sim.Run([]*coflow.Coflow{mkCoflow(0, 0, [3]float64{0, 1, 1000})})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Makespan-18) > 1e-9 {
		t.Errorf("makespan = %g, want 18", rep.Makespan)
	}
	// Only the first down edge finds progress to void (400 bytes); the
	// second hits an already-reset flow.
	if math.Abs(rep.WastedBytes-400) > 1e-6 {
		t.Errorf("WastedBytes = %g, want 400", rep.WastedBytes)
	}
}
