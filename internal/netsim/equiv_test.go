package netsim_test

// Golden equivalence: the allocation-free simulator + schedulers must produce
// *bit-identical* results to the frozen pre-optimization implementation in
// internal/refsim. The optimization preserved float operation order
// everywhere (dense scratch accumulates per-port sums in the same flow order
// the maps did; max/min reductions are order-independent; sorts are over
// strict total orders so the permutation is unique), so the comparison is
// exact equality on every field except AvgCCT: the reference sums it in
// nondeterministic map-iteration order (the optimized simulator now sums in
// input-coflow order), so that one field gets an epsilon.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/refsim"
)

// cfSpec describes one coflow of a generated workload; build materialises
// fresh, independent coflow sets so the two simulators never share state.
type cfSpec struct {
	id      int
	arrival float64
	flows   []coflow.Flow
}

type workloadSpec struct {
	ports        int
	egCap, inCap []float64
	coflows      []cfSpec
	events       []netsim.CapacityEvent
	deps         map[int][]int
	horizon      float64
}

func (w *workloadSpec) build() []*coflow.Coflow {
	out := make([]*coflow.Coflow, 0, len(w.coflows))
	for _, cs := range w.coflows {
		out = append(out, coflow.New(cs.id, fmt.Sprintf("cf%d", cs.id), cs.arrival, cs.flows))
	}
	return out
}

func (w *workloadSpec) fabric(t *testing.T) netsim.Fabric {
	t.Helper()
	f, err := netsim.NewHeterogeneousFabric(w.egCap, w.inCap)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// randomSpec draws a workload spanning the full feature space: heterogeneous
// fabrics, staggered arrivals, dependency DAGs, capacity events (including
// full port outages) and horizons.
func randomSpec(rng *rand.Rand) workloadSpec {
	n := 2 + rng.Intn(7)
	w := workloadSpec{ports: n}
	w.egCap = make([]float64, n)
	w.inCap = make([]float64, n)
	hetero := rng.Intn(2) == 0
	for p := 0; p < n; p++ {
		w.egCap[p], w.inCap[p] = 100, 100
		if hetero {
			w.egCap[p] = 50 + float64(rng.Intn(150))
			w.inCap[p] = 50 + float64(rng.Intn(150))
		}
	}
	ncf := 1 + rng.Intn(8)
	for ci := 0; ci < ncf; ci++ {
		cs := cfSpec{id: ci, arrival: float64(rng.Intn(40)) * 0.25}
		nf := 1 + rng.Intn(10)
		for fi := 0; fi < nf; fi++ {
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			cs.flows = append(cs.flows, coflow.Flow{
				ID: fi, Src: src, Dst: dst,
				Size: float64(1 + rng.Intn(10_000)),
			})
		}
		w.coflows = append(w.coflows, cs)
	}
	if rng.Intn(3) == 0 { // dependency DAG (edges point to lower IDs only)
		w.deps = map[int][]int{}
		for ci := 1; ci < ncf; ci++ {
			if rng.Intn(3) == 0 {
				w.deps[ci] = append(w.deps[ci], rng.Intn(ci))
			}
		}
		if len(w.deps) == 0 {
			w.deps = nil
		}
	}
	if rng.Intn(5) > 0 { // capacity events, sometimes a full outage
		factors := []float64{0, 0.25, 0.5, 1, 2}
		for e := 0; e < 1+rng.Intn(3); e++ {
			w.events = append(w.events, netsim.CapacityEvent{
				Time:          rng.Float64() * 30,
				Port:          rng.Intn(n),
				EgressFactor:  factors[rng.Intn(len(factors))],
				IngressFactor: factors[rng.Intn(len(factors))],
			})
		}
	}
	if rng.Intn(5) == 0 {
		w.horizon = 1 + rng.Float64()*30
	}
	return w
}

// schedPairs pairs each production scheduler with its frozen reference twin.
var schedPairs = []struct {
	name      string
	prod, ref func() coflow.Scheduler
}{
	{"varys", coflow.NewVarys, refsim.NewVarys},
	{"fifo", coflow.NewFIFO, refsim.NewFIFO},
	{"scf", coflow.NewSCF, refsim.NewSCF},
	{"ncf", coflow.NewNCF, refsim.NewNCF},
	{"aalo",
		func() coflow.Scheduler { return coflow.NewAalo() },
		func() coflow.Scheduler { return refsim.NewAalo() }},
	{"per-flow-fair",
		func() coflow.Scheduler { return coflow.PerFlowFair{} },
		func() coflow.Scheduler { return refsim.PerFlowFair{} }},
	{"sequential-by-dest",
		func() coflow.Scheduler { return coflow.SequentialByDest{} },
		func() coflow.Scheduler { return refsim.SequentialByDest{} }},
}

func compareRuns(t *testing.T, tag string, spec *workloadSpec,
	prodCfs, refCfs []*coflow.Coflow, prodRep, refRep *netsim.Report, prodErr, refErr error) {
	t.Helper()
	if (prodErr != nil) != (refErr != nil) {
		t.Fatalf("%s: error mismatch: optimized=%v reference=%v", tag, prodErr, refErr)
	}
	if prodErr != nil {
		return // both failed the same way; no reports to compare
	}
	if prodRep.Makespan != refRep.Makespan {
		t.Errorf("%s: Makespan %v != %v", tag, prodRep.Makespan, refRep.Makespan)
	}
	if prodRep.Epochs != refRep.Epochs {
		t.Errorf("%s: Epochs %d != %d", tag, prodRep.Epochs, refRep.Epochs)
	}
	if prodRep.TotalBytes != refRep.TotalBytes {
		t.Errorf("%s: TotalBytes %v != %v", tag, prodRep.TotalBytes, refRep.TotalBytes)
	}
	if prodRep.MaxCCT != refRep.MaxCCT {
		t.Errorf("%s: MaxCCT %v != %v", tag, prodRep.MaxCCT, refRep.MaxCCT)
	}
	if len(prodRep.CCTs) != len(refRep.CCTs) {
		t.Errorf("%s: %d CCTs != %d", tag, len(prodRep.CCTs), len(refRep.CCTs))
	}
	for id, cct := range refRep.CCTs {
		if got, ok := prodRep.CCTs[id]; !ok || got != cct {
			t.Errorf("%s: CCT[%d] = %v, want %v", tag, id, got, cct)
		}
	}
	// The reference sums AvgCCT in map-iteration order (the optimized
	// simulator sums in input order for deterministic output), so it is the
	// one field where only near-equality is guaranteed.
	if d := math.Abs(prodRep.AvgCCT - refRep.AvgCCT); d > 1e-9*(1+math.Abs(refRep.AvgCCT)) {
		t.Errorf("%s: AvgCCT %v != %v (Δ=%g)", tag, prodRep.AvgCCT, refRep.AvgCCT, d)
	}
	// Flow- and coflow-level state must agree exactly too.
	for i := range refCfs {
		rc, pc := refCfs[i], prodCfs[i]
		if pc.Completed != rc.Completed || (rc.Completed && pc.Completion != rc.Completion) {
			t.Errorf("%s: coflow %d completion (%v,%v) != (%v,%v)",
				tag, rc.ID, pc.Completed, pc.Completion, rc.Completed, rc.Completion)
		}
		if pc.SentBytes != rc.SentBytes {
			t.Errorf("%s: coflow %d SentBytes %v != %v", tag, rc.ID, pc.SentBytes, rc.SentBytes)
		}
		for j := range rc.Flows {
			rf, pf := rc.Flows[j], pc.Flows[j]
			if pf.Done != rf.Done || pf.Remaining != rf.Remaining || (rf.Done && pf.EndTime != rf.EndTime) {
				t.Errorf("%s: flow %d/%d state (done=%v rem=%v end=%v) != (done=%v rem=%v end=%v)",
					tag, rc.ID, rf.ID, pf.Done, pf.Remaining, pf.EndTime, rf.Done, rf.Remaining, rf.EndTime)
			}
		}
	}
}

// TestOptimizedSimulatorMatchesReference is the golden property test: ≥50
// seeded random workloads per scheduler, optimized vs reference, exact
// Report equality (modulo the AvgCCT summation order epsilon).
func TestOptimizedSimulatorMatchesReference(t *testing.T) {
	const seeds = 64
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				spec := randomSpec(rand.New(rand.NewSource(seed)))
				fab := spec.fabric(t)

				prodCfs := spec.build()
				prodSim := netsim.NewSimulator(fab, pair.prod())
				prodSim.Events = spec.events
				prodSim.Deps = spec.deps
				if spec.horizon > 0 { // spec uses 0 for "no horizon"; netsim now uses NoHorizon
					prodSim.Horizon = spec.horizon
				}
				prodRep, prodErr := prodSim.Run(prodCfs)

				refCfs := spec.build()
				refSim := refsim.NewSimulator(fab, pair.ref())
				refSim.Events = spec.events
				refSim.Deps = spec.deps
				refSim.Horizon = spec.horizon
				refRep, refErr := refSim.Run(refCfs)

				tag := fmt.Sprintf("%s/seed=%d", pair.name, seed)
				compareRuns(t, tag, &spec, prodCfs, refCfs, prodRep, refRep, prodErr, refErr)
			}
		})
	}
}

// TestOptimizedSimulatorMatchesReferenceReused pins that scheduler and
// simulator *reuse* (the new steady-state path: one Simulator, RunInto, same
// scheduler instance across runs) still matches the reference — i.e. no
// state leaks across runs through the scratch buffers or live-flow caches.
// The reference is re-run the same number of times on its own coflow set:
// Run mutates dependency-gated coflows' Arrival (by design), so repeat runs
// are only comparable rerun-for-rerun.
func TestOptimizedSimulatorMatchesReferenceReused(t *testing.T) {
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for seed := int64(100); seed < 105; seed++ {
				spec := randomSpec(rand.New(rand.NewSource(seed)))
				fab := spec.fabric(t)
				sim := netsim.NewSimulator(fab, pair.prod())
				sim.Events = spec.events
				sim.Deps = spec.deps
				if spec.horizon > 0 {
					sim.Horizon = spec.horizon
				}
				prodCfs := spec.build()
				var rep netsim.Report
				var prodErr error
				for rerun := 0; rerun < 3; rerun++ {
					prodErr = sim.RunInto(prodCfs, &rep)
					if prodErr != nil {
						break
					}
				}

				refCfs := spec.build()
				refSim := refsim.NewSimulator(fab, pair.ref())
				refSim.Events = spec.events
				refSim.Deps = spec.deps
				refSim.Horizon = spec.horizon
				var refRep *netsim.Report
				var refErr error
				for rerun := 0; rerun < 3; rerun++ {
					refRep, refErr = refSim.Run(refCfs)
					if refErr != nil {
						break
					}
				}

				tag := fmt.Sprintf("%s/reused-seed=%d", pair.name, seed)
				compareRuns(t, tag, &spec, prodCfs, refCfs, &rep, refRep, prodErr, refErr)
			}
		})
	}
}
