package netsim

// The fabric schedule: capacity events and the down and up edges of port
// failures are one time-sorted edge list. These tests pin what the merged
// schedule must keep from the two separate ones it replaced (the expected
// figures were recorded before the merge) and the NaN times it now refuses.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ccf/internal/coflow"
)

// TestScheduleRejectsNaNTimes: a NaN time compares false against every
// clock, so it used to sit in the schedule unapplied and stall every edge
// sorted behind it (or, for an Up, never recover the port).
func TestScheduleRejectsNaNTimes(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name     string
		events   []CapacityEvent
		failures []PortFailure
		port     string
	}{
		{"event time", []CapacityEvent{{Time: nan, Port: 1}, {Time: 0, Port: 0, EgressFactor: 0.5, IngressFactor: 0.5}}, nil, "port 1"},
		{"failure down", nil, []PortFailure{{Port: 1, Down: nan}, {Port: 0, Down: 2, Up: 4}}, "port 1"},
		{"failure up", nil, []PortFailure{{Port: 0, Down: 2, Up: nan}}, "port 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab, _ := NewFabric(2, 1)
			sim := NewSimulator(fab, coflow.NewVarys())
			sim.Events, sim.Failures = tc.events, tc.failures
			_, err := sim.Run([]*coflow.Coflow{mkCoflow(0, 0, [3]float64{0, 1, 10})})
			if err == nil {
				t.Fatal("NaN time accepted")
			}
			if msg := err.Error(); !strings.Contains(msg, tc.port) || !strings.Contains(msg, "NaN") || strings.Contains(msg, "\n") {
				t.Errorf("error %q: want one line naming %s and NaN", msg, tc.port)
			}
			if _, err := sim.Session(); err == nil {
				t.Error("Session accepted a NaN time")
			}
		})
	}
}

// TestScheduleSameInstantEdges puts a capacity event on port 1 at the very
// instant of its outage's down edge, then of its up edge, beside same-instant
// edges on other ports, and lists each schedule in every input order. Every
// edge due at an instant applies before the epoch that follows, so the order
// must not show: one Report (outcomes matched back to their failure) and
// one set of flow states per instant and policy, with the makespans the
// separate schedules gave.
func TestScheduleSameInstantEdges(t *testing.T) {
	// Makespan per instant and wasted bytes, recorded with capacity events
	// and failure edges applied from two separate schedules.
	want := map[RetransmitPolicy]struct {
		makespan [2]float64
		wasted   float64
	}{
		RetransmitRestart:          {[2]float64{25, 26}, 2.8},
		RetransmitResume:           {[2]float64{21, 22}, 0},
		RetransmitRestartDelivered: {[2]float64{25, 26}, 2.8},
	}
	type flowState struct {
		Remaining, EndTime float64
		Done               bool
	}
	for _, pol := range []RetransmitPolicy{RetransmitRestart, RetransmitResume, RetransmitRestartDelivered} {
		for k, at := range []float64{2, 5} {
			var (
				firstRep   *Report
				firstFlows []flowState
			)
			for order := 0; order < 4; order++ {
				events := []CapacityEvent{
					{Time: at, Port: 1, EgressFactor: 1, IngressFactor: 0.5},
					{Time: at, Port: 2, EgressFactor: 0.75, IngressFactor: 1},
				}
				failures := []PortFailure{{Port: 1, Down: 2, Up: 5}, {Port: 3, Down: at, Up: at + 1}}
				if order&1 != 0 {
					slices.Reverse(events)
				}
				if order&2 != 0 {
					slices.Reverse(failures)
				}
				fab, _ := NewFabric(4, 1)
				sim := NewSimulator(fab, coflow.NewVarys())
				sim.Events, sim.Failures, sim.Retransmit = events, failures, pol
				cfs := []*coflow.Coflow{mkCoflow(0, 0, [3]float64{0, 1, 10}, [3]float64{2, 0, 6}, [3]float64{3, 2, 4})}
				rep, err := sim.Run(cfs)
				if err != nil {
					t.Fatal(err)
				}
				if order&2 != 0 {
					slices.Reverse(rep.Failures)
				}
				var flows []flowState
				for _, f := range cfs[0].Flows {
					flows = append(flows, flowState{f.Remaining, f.EndTime, f.Done})
				}
				tag := fmt.Sprintf("%v at t=%g order %d", pol, at, order)
				if w := want[pol]; rep.Makespan != w.makespan[k] || rep.WastedBytes != w.wasted {
					t.Errorf("%s: makespan %v wasted %v, want %v and %v", tag, rep.Makespan, rep.WastedBytes, w.makespan[k], w.wasted)
				}
				if firstRep == nil {
					firstRep, firstFlows = rep, flows
					continue
				}
				if !reflect.DeepEqual(rep, firstRep) {
					t.Errorf("%s: report %+v, input order 0 gave %+v", tag, rep, firstRep)
				}
				if !reflect.DeepEqual(flows, firstFlows) {
					t.Errorf("%s: flows %+v, input order 0 left %+v", tag, flows, firstFlows)
				}
			}
		}
	}
}

// TestScheduleEventDuringOutage: a capacity event that lands inside an
// outage changes the factors at once, and the port comes back up at the new
// capacity. 10 bytes 0→1 at 1 B/s; port 1 is down over [2, 4) and its
// ingress halves at t=3. Resume: 2 bytes by t=2, the other 8 at 0.5 B/s
// from t=4 ⇒ 20. The restart policies re-send all 10 from t=4 ⇒ 24.
func TestScheduleEventDuringOutage(t *testing.T) {
	for pol, cct := range map[RetransmitPolicy]float64{
		RetransmitRestart:          24,
		RetransmitResume:           20,
		RetransmitRestartDelivered: 24,
	} {
		fab, _ := NewFabric(2, 1)
		sim := NewSimulator(fab, coflow.NewVarys())
		sim.Events = []CapacityEvent{{Time: 3, Port: 1, EgressFactor: 1, IngressFactor: 0.5}}
		sim.Failures = []PortFailure{{Port: 1, Down: 2, Up: 4}}
		sim.Retransmit = pol
		rep, err := sim.Run([]*coflow.Coflow{mkCoflow(0, 0, [3]float64{0, 1, 10})})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CCTs[0] != cct {
			t.Errorf("%v: CCT %v, want %v", pol, rep.CCTs[0], cct)
		}
	}
}
