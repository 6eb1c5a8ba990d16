package netsim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ccf/internal/coflow"
)

func TestCapacityEventDegradesMidFlow(t *testing.T) {
	// 10 bytes at 1 B/s; at t=5 the ingress halves. 5 bytes done by t=5,
	// the remaining 5 at 0.5 B/s take 10 more ⇒ CCT 15.
	c := mkCoflow(0, 0, [3]float64{0, 1, 10})
	fab, _ := NewFabric(2, 1)
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Events = []CapacityEvent{{Time: 5, Port: 1, EgressFactor: 1, IngressFactor: 0.5}}
	rep, err := sim.Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.CCTs[0]-15) > 1e-9 {
		t.Errorf("CCT with mid-flow degradation = %g, want 15", rep.CCTs[0])
	}
}

func TestCapacityEventRepair(t *testing.T) {
	// Degrade at t=0 to 0.5, repair at t=5: 2.5 bytes by t=5, remaining
	// 7.5 at full speed ⇒ CCT 12.5.
	c := mkCoflow(0, 0, [3]float64{0, 1, 10})
	fab, _ := NewFabric(2, 1)
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Events = []CapacityEvent{
		{Time: 0, Port: 0, EgressFactor: 0.5, IngressFactor: 1},
		{Time: 5, Port: 0, EgressFactor: 1, IngressFactor: 1},
	}
	rep, err := sim.Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.CCTs[0]-12.5) > 1e-9 {
		t.Errorf("CCT with repair = %g, want 12.5", rep.CCTs[0])
	}
}

func TestCapacityEventFullOutageThenRepair(t *testing.T) {
	// Port dead from t=2 to t=7: 2 bytes before, stall 5 s, 8 bytes after
	// ⇒ CCT 15. The stall must not trip the deadlock detector because a
	// repair event is pending.
	c := mkCoflow(0, 0, [3]float64{0, 1, 10})
	fab, _ := NewFabric(2, 1)
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Events = []CapacityEvent{
		{Time: 2, Port: 1, EgressFactor: 1, IngressFactor: 0},
		{Time: 7, Port: 1, EgressFactor: 1, IngressFactor: 1},
	}
	rep, err := sim.Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.CCTs[0]-15) > 1e-9 {
		t.Errorf("CCT across outage = %g, want 15", rep.CCTs[0])
	}
}

func TestPermanentOutageStalls(t *testing.T) {
	c := mkCoflow(0, 0, [3]float64{0, 1, 10})
	fab, _ := NewFabric(2, 1)
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Events = []CapacityEvent{{Time: 2, Port: 1, EgressFactor: 1, IngressFactor: 0}}
	_, err := sim.Run([]*coflow.Coflow{c})
	if !errors.Is(err, ErrStalled) {
		t.Errorf("permanent outage: err = %v, want ErrStalled", err)
	}
}

func TestCapacityEventFullOutageAtTimeZero(t *testing.T) {
	// The port is dead from the very first instant: nothing moves until
	// the repair at t=3, then 10 bytes at 1 B/s ⇒ CCT 13.
	c := mkCoflow(0, 0, [3]float64{0, 1, 10})
	fab, _ := NewFabric(2, 1)
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Events = []CapacityEvent{
		{Time: 0, Port: 1, EgressFactor: 1, IngressFactor: 0},
		{Time: 3, Port: 1, EgressFactor: 1, IngressFactor: 1},
	}
	rep, err := sim.Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.CCTs[0]-13) > 1e-9 {
		t.Errorf("CCT with t=0 outage = %g, want 13", rep.CCTs[0])
	}
}

func TestCapacityEventDuplicateTimestamps(t *testing.T) {
	// Two events at the same instant on the same port: the stable sort
	// keeps input order, so the later entry wins (factor 1 here — the 0.25
	// entry must not survive). A same-time event on another port applies
	// independently.
	c := mkCoflow(0, 0, [3]float64{0, 1, 10})
	fab, _ := NewFabric(2, 1)
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Events = []CapacityEvent{
		{Time: 5, Port: 1, EgressFactor: 1, IngressFactor: 0.25},
		{Time: 5, Port: 1, EgressFactor: 1, IngressFactor: 0.5},
		{Time: 5, Port: 0, EgressFactor: 1, IngressFactor: 1},
	}
	rep, err := sim.Run([]*coflow.Coflow{c})
	if err != nil {
		t.Fatal(err)
	}
	// 5 bytes by t=5, then 5 bytes at 0.5 B/s ⇒ CCT 15.
	if math.Abs(rep.CCTs[0]-15) > 1e-9 {
		t.Errorf("CCT with duplicate-time events = %g, want 15", rep.CCTs[0])
	}
}

func TestCapacityEventValidation(t *testing.T) {
	c := mkCoflow(0, 0, [3]float64{0, 1, 10})
	fab, _ := NewFabric(2, 2)
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Events = []CapacityEvent{{Time: 0, Port: 9, EgressFactor: 1, IngressFactor: 1}}
	if _, err := sim.Run([]*coflow.Coflow{c}); err == nil {
		t.Error("accepted an event on a non-existent port")
	}
	for _, ev := range []CapacityEvent{
		{Time: 0, Port: 0, EgressFactor: -1, IngressFactor: 1},
		{Time: 1, Port: 0, EgressFactor: math.NaN(), IngressFactor: 1},
		{Time: 1, Port: 1, EgressFactor: 1, IngressFactor: math.Inf(1)},
		{Time: 1, Port: 1, EgressFactor: 1, IngressFactor: math.MaxFloat64},
	} {
		sim.Events = []CapacityEvent{ev}
		if _, err := sim.Run([]*coflow.Coflow{c}); err == nil {
			t.Errorf("accepted %+v", ev)
		}
	}
}

func TestCapacityEventsConserveBytes(t *testing.T) {
	// Under arbitrary degradation/repair schedules (never permanently
	// dead), every byte still gets delivered.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		var flows [][3]float64
		var total float64
		for i := 0; i < 1+rng.Intn(6); i++ {
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			size := float64(1 + rng.Intn(200))
			flows = append(flows, [3]float64{float64(src), float64(dst), size})
			total += size
		}
		var events []CapacityEvent
		for e := 0; e < rng.Intn(4); e++ {
			port := rng.Intn(n)
			at := float64(rng.Intn(50))
			events = append(events,
				CapacityEvent{Time: at, Port: port, EgressFactor: 0.25, IngressFactor: 0.25},
				// Guaranteed later repair.
				CapacityEvent{Time: at + float64(1+rng.Intn(20)), Port: port, EgressFactor: 1, IngressFactor: 1},
			)
		}
		fab, _ := NewFabric(n, 1)
		sim := NewSimulator(fab, coflow.NewVarys())
		sim.Events = events
		rep, err := sim.Run([]*coflow.Coflow{mkCoflow(0, 0, flows...)})
		if err != nil {
			return false
		}
		return math.Abs(rep.TotalBytes-total) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEventsDoNotAffectUnrelatedPorts(t *testing.T) {
	// Two disjoint flows; degrading port 3 must not slow the 0→1 flow.
	a := mkCoflow(0, 0, [3]float64{0, 1, 10})
	b := mkCoflow(1, 0, [3]float64{2, 3, 10})
	fab, _ := NewFabric(4, 1)
	sim := NewSimulator(fab, coflow.NewVarys())
	sim.Events = []CapacityEvent{{Time: 0, Port: 3, EgressFactor: 1, IngressFactor: 0.1}}
	rep, err := sim.Run([]*coflow.Coflow{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.CCTs[0]-10) > 1e-9 {
		t.Errorf("unrelated flow CCT = %g, want 10", rep.CCTs[0])
	}
	if math.Abs(rep.CCTs[1]-100) > 1e-9 {
		t.Errorf("degraded flow CCT = %g, want 100", rep.CCTs[1])
	}
}
