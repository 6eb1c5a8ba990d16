package netsim_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

// TestReleasedCoflowsAreCollectable drains a wide burst through a releasing
// session, then a narrower one, and checks that every coflow the session let
// go is garbage: no scheduler buffer (priority order, membership snapshot,
// granted set, flow lists) may keep one reachable from its spare capacity.
func TestReleasedCoflowsAreCollectable(t *testing.T) {
	const ports, wide, narrow = 8, 200, 40
	scheds := []struct {
		name string
		mk   func() coflow.Scheduler
	}{
		{"varys", coflow.NewVarys},
		{"fifo", coflow.NewFIFO},
		{"aalo", func() coflow.Scheduler { return coflow.NewAalo() }},
		{"per-flow-fair", func() coflow.Scheduler { return coflow.PerFlowFair{} }},
		{"sequential-by-dest", func() coflow.Scheduler { return coflow.SequentialByDest{} }},
	}
	caps := make([]float64, ports)
	for i := range caps {
		caps[i] = 100
	}
	fab, err := netsim.NewHeterogeneousFabric(caps, caps)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scheds {
		for _, sparse := range []bool{false, true} {
			name := sc.name
			if sparse {
				name += "/sparse"
			}
			t.Run(name, func(t *testing.T) {
				sim := netsim.NewSimulator(fab, sc.mk())
				sim.EventHorizon = sparse
				sim.ReleaseCompleted = true
				ss, err := sim.Session()
				if err != nil {
					t.Fatal(err)
				}
				var collected atomic.Int64
				admitBurst(t, ss, 0, wide, 0, ports, &collected)
				if err := ss.Advance(1e6); err != nil {
					t.Fatal(err)
				}
				admitBurst(t, ss, wide, narrow, 2e6, ports, &collected)
				if err := ss.Advance(4e6); err != nil {
					t.Fatal(err)
				}
				if got := ss.CompletedCount(); got != wide+narrow {
					t.Fatalf("%d of %d coflows completed", got, wide+narrow)
				}
				released := int64(wide + narrow - ss.AdmittedCount())
				if released < wide {
					t.Fatalf("only %d coflows released; the burst was %d wide", released, wide)
				}
				deadline := time.Now().Add(5 * time.Second)
				for collected.Load() < released && time.Now().Before(deadline) {
					runtime.GC()
					time.Sleep(time.Millisecond)
				}
				if got := collected.Load(); got != released {
					t.Errorf("%d of %d released coflows collected", got, released)
				}
				runtime.KeepAlive(ss)
			})
		}
	}
}

// admitBurst admits n two-flow coflows with IDs from first, all arriving at
// the given time, each counting itself into collected when finalized. It
// keeps no reference to them.
func admitBurst(t *testing.T, ss *netsim.Session, first, n int, arrival float64, ports int, collected *atomic.Int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := first + i
		src := id % ports
		c := &coflow.Coflow{ID: id, Arrival: arrival, Flows: []*coflow.Flow{
			{ID: 0, Src: src, Dst: (src + 1) % ports, Size: float64(50 + id%7*30)},
			{ID: 1, Src: (src + 3) % ports, Dst: (src + 5) % ports, Size: float64(40 + id%5*20)},
		}}
		for _, f := range c.Flows {
			f.Remaining = f.Size
		}
		runtime.SetFinalizer(c, func(*coflow.Coflow) { collected.Add(1) })
		if err := ss.Admit(c); err != nil {
			t.Fatal(err)
		}
	}
}
