package netsim_test

// Microbenchmarks pinning the allocation-free hot path: a steady-state
// simulation run (reused Simulator + RunInto + reused coflows) must report
// 0 allocs/op. Any allocation that sneaks back into the epoch loop, the
// schedulers, or the live-flow caches shows up here immediately.

import (
	"fmt"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

func allToAll(b testing.TB, n int) []*coflow.Coflow {
	b.Helper()
	vol := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				vol[i*n+j] = int64(1e6 * (1 + (i+j)%7))
			}
		}
	}
	cf, err := coflow.FromVolumes(0, "bench", 0, n, vol)
	if err != nil {
		b.Fatal(err)
	}
	return []*coflow.Coflow{cf}
}

func staggered(b testing.TB, n, ncf int) []*coflow.Coflow {
	b.Helper()
	out := make([]*coflow.Coflow, 0, ncf)
	for ci := 0; ci < ncf; ci++ {
		var flows []coflow.Flow
		for f := 0; f < n/2; f++ {
			src := (ci + f) % n
			dst := (src + 1 + f%(n-1)) % n
			flows = append(flows, coflow.Flow{ID: f, Src: src, Dst: dst, Size: float64(1+(ci+f)%9) * 1e6})
		}
		out = append(out, coflow.New(ci, "bench", float64(ci)/4, flows))
	}
	return out
}

// BenchmarkSteadyStateRun measures a full simulation run on the steady-state
// path for each scheduler family; allocs/op must be 0.
func BenchmarkSteadyStateRun(b *testing.B) {
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
		for _, n := range []int{16, 64} {
			b.Run(fmt.Sprintf("%s/n=%d", sc.name, n), func(b *testing.B) {
				cfs := staggered(b, n, 24)
				fab, err := netsim.NewFabric(n, 0)
				if err != nil {
					b.Fatal(err)
				}
				sim := netsim.NewSimulator(fab, sc.mk())
				var rep netsim.Report
				if err := sim.RunInto(cfs, &rep); err != nil { // warm the scratch
					b.Fatal(err)
				}
				epochs := rep.Epochs
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sim.RunInto(cfs, &rep); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if b.Elapsed() > 0 {
					b.ReportMetric(float64(epochs)*float64(b.N)/b.Elapsed().Seconds(), "epochs/s")
				}
				// Guard, not just a metric: the nil-probe steady state must
				// stay at 0 allocs/op, and a regression fails the benchmark
				// instead of quietly shifting the reported number.
				if !raceEnabled {
					if avg := testing.AllocsPerRun(5, func() {
						if err := sim.RunInto(cfs, &rep); err != nil {
							b.Fatal(err)
						}
					}); avg != 0 {
						b.Fatalf("steady-state RunInto allocated %v allocs/op with nil probe", avg)
					}
				}
			})
		}
	}
}

// TestSteadyStateRunZeroAllocs pins the telemetry overhead contract on the
// regular test path (no -bench flag needed): with Probe nil, a steady-state
// run performs zero heap allocations per op for every scheduler family.
func TestSteadyStateRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation counts")
	}
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
		t.Run(sc.name, func(t *testing.T) {
			cfs := staggered(t, 16, 24)
			fab, err := netsim.NewFabric(16, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Both settings of EventHorizon: ccfd and the trace replay run
			// with it on, the figures and ccfsim with it off.
			for _, horizon := range []bool{false, true} {
				sim := netsim.NewSimulator(fab, sc.mk())
				sim.EventHorizon = horizon
				var rep netsim.Report
				if err := sim.RunInto(cfs, &rep); err != nil { // warm the scratch
					t.Fatal(err)
				}
				if avg := testing.AllocsPerRun(10, func() {
					if err := sim.RunInto(cfs, &rep); err != nil {
						t.Fatal(err)
					}
				}); avg != 0 {
					t.Errorf("EventHorizon=%v: steady-state RunInto allocated %v allocs/op with nil probe", horizon, avg)
				}
			}
		})
	}
}

// TestScheduledRunZeroAllocs extends the contract to a run with a fabric
// schedule: two capacity events and one outage, under a policy that voids
// progress and one that keeps it. Applying an edge and the per-epoch
// capacities it leaves behind must allocate nothing once the scratch, the
// report's failure outcomes and its restart map are warm.
func TestScheduledRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation counts")
	}
	const n = 16
	cfs := staggered(t, n, 24)
	fab, err := netsim.NewFabric(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []netsim.RetransmitPolicy{netsim.RetransmitResume, netsim.RetransmitRestart} {
		for _, horizon := range []bool{false, true} {
			sim := netsim.NewSimulator(fab, coflow.NewVarys())
			sim.EventHorizon = horizon
			sim.Events = []netsim.CapacityEvent{
				{Time: 0.5, Port: 3, EgressFactor: 0.5, IngressFactor: 0.25},
				{Time: 2, Port: 3, EgressFactor: 1, IngressFactor: 1},
			}
			sim.Failures = []netsim.PortFailure{{Port: 5, Down: 1, Up: 3}}
			sim.Retransmit = pol
			var rep netsim.Report
			if err := sim.RunInto(cfs, &rep); err != nil { // warm the scratch
				t.Fatal(err)
			}
			if rep.Failures[0].FlowsHit == 0 {
				t.Fatalf("%v: the outage hit no flow", pol)
			}
			if avg := testing.AllocsPerRun(10, func() {
				if err := sim.RunInto(cfs, &rep); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("%v, EventHorizon=%v: steady-state RunInto with a fabric schedule allocated %v allocs/op", pol, horizon, avg)
			}
		}
	}
}

// TestSessionAdvanceZeroAllocs extends the allocation contract to the
// resumable session: the online engine's steady state — begin a session,
// stream coflows in at their arrivals, Advance between them, read the
// backlog in place, Finish — must perform zero heap allocations per full
// cycle once the simulator's buffers are warm. This is what makes the O(J)
// incremental backlog path allocation-free where the probe path cloned every
// flow per arrival.
func TestSessionAdvanceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation counts")
	}
	scheds := []struct {
		name string
		mk   func() coflow.Scheduler
	}{
		{"varys", coflow.NewVarys},
		{"aalo", func() coflow.Scheduler { return coflow.NewAalo() }},
	}
	for _, sc := range scheds {
		t.Run(sc.name, func(t *testing.T) {
			const n = 16
			cfs := staggered(t, n, 24)
			fab, err := netsim.NewFabric(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			sim := netsim.NewSimulator(fab, sc.mk())
			eg, in := make([]int64, n), make([]int64, n)
			cycle := func() {
				ses, err := sim.Session()
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cfs {
					if err := ses.Advance(c.Arrival); err != nil {
						t.Fatal(err)
					}
					if err := ses.BacklogInto(eg, in); err != nil {
						t.Fatal(err)
					}
					if err := ses.Admit(c); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := ses.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			for _, horizon := range []bool{false, true} {
				sim.EventHorizon = horizon
				cycle() // warm the scratch and the session buffers
				if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
					t.Errorf("EventHorizon=%v: steady-state session cycle allocated %v allocs/op", horizon, avg)
				}
			}
		})
	}
}

// BenchmarkSteadyStateSingleCoflow is the MADD fast path: one all-to-all
// coflow (n²−n flows), the shape behind the paper's bandwidth-model check.
func BenchmarkSteadyStateSingleCoflow(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfs := allToAll(b, n)
			fab, err := netsim.NewFabric(n, 0)
			if err != nil {
				b.Fatal(err)
			}
			sim := netsim.NewSimulator(fab, coflow.NewVarys())
			var rep netsim.Report
			if err := sim.RunInto(cfs, &rep); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.RunInto(cfs, &rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
