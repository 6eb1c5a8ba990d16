package netsim_test

// Edge cases for EventHorizon runs that the random matrices are unlikely to
// hit exactly: completion and failure edges landing on the same timestamp,
// coflows whose every flow carries zero rate (fully failed ports — no flow
// bounds dt, the failure up-edge must bound the epoch), Session.Advance
// stopping bit-identically at boundaries strictly inside a fluid interval, and
// ReleaseCompleted retiring coflows mid-run without disturbing the report.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

var retransmitPolicies = []struct {
	name   string
	policy netsim.RetransmitPolicy
}{
	{"restart", netsim.RetransmitRestart},
	{"resume", netsim.RetransmitResume},
	{"restart-delivered", netsim.RetransmitRestartDelivered},
}

// TestEventHorizonCompletionMeetsFailureEdge pins the same-instant case: a
// lone coflow drains a 400-byte flow over a 100-cap link, completing at
// exactly t=4.0 — the instant one port fails transiently and another fails
// permanently. A second coflow straddles the outage. Dense and sparse runs
// must agree bit-for-bit on how the tie resolves, under every policy.
func TestEventHorizonCompletionMeetsFailureEdge(t *testing.T) {
	spec := workloadSpec{
		ports: 3,
		egCap: []float64{100, 100, 100},
		inCap: []float64{100, 100, 100},
		coflows: []cfSpec{
			{id: 0, arrival: 0, flows: []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 400}}},
			{id: 1, arrival: 2, flows: []coflow.Flow{
				{ID: 0, Src: 1, Dst: 2, Size: 300},
				{ID: 1, Src: 2, Dst: 0, Size: 500},
			}},
		},
	}
	fails := []netsim.PortFailure{
		{Port: 1, Down: 4, Up: 6},
		{Port: 2, Down: 4}, // permanent, same instant as the completion
	}
	for _, pair := range schedPairs {
		for _, pol := range retransmitPolicies {
			tag := fmt.Sprintf("%s/%s", pair.name, pol.name)
			runPair(t, tag, &spec, func() *netsim.Simulator {
				sim := netsim.NewSimulator(spec.fabric(t), pair.prod())
				sim.Failures = fails
				sim.Retransmit = pol.policy
				return sim
			})
		}
	}
}

// TestEventHorizonZeroRateNeverBoundsEpoch pins the no-completion case: the
// only admitted coflow sits on a port that is down for its entire early
// life, so every flow has rate zero and none projects a completion. The
// epoch must be bounded by the failure up-edge alone — identically with the
// flag off and on — and the coflow completes only after repair.
func TestEventHorizonZeroRateNeverBoundsEpoch(t *testing.T) {
	spec := workloadSpec{
		ports: 2,
		egCap: []float64{100, 100},
		inCap: []float64{100, 100},
		coflows: []cfSpec{
			{id: 0, arrival: 2, flows: []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 200}}},
		},
	}
	fails := []netsim.PortFailure{{Port: 0, Down: 1, Up: 8}}
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			runPair(t, pair.name, &spec, func() *netsim.Simulator {
				sim := netsim.NewSimulator(spec.fabric(t), pair.prod())
				sim.Failures = fails
				sim.Retransmit = netsim.RetransmitResume
				return sim
			})
			cfs := spec.build()
			sim := netsim.NewSimulator(spec.fabric(t), pair.prod())
			sim.Failures = fails
			sim.Retransmit = netsim.RetransmitResume
			sim.EventHorizon = true
			rep, err := sim.Run(cfs)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Makespan < 8 {
				t.Errorf("makespan %v: completed before the port came back at t=8", rep.Makespan)
			}
		})
	}
}

// TestEventHorizonAdvanceBoundaries drives dense and sparse sessions through
// an identical ladder of Advance stops — many landing mid-interval, where
// the loop would otherwise leap straight to the next completion — and
// demands bit-identical state (Digest) at every rung plus identical final
// reports.
func TestEventHorizonAdvanceBoundaries(t *testing.T) {
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for seed := int64(200); seed < 212; seed++ {
				spec := randomSpec(rand.New(rand.NewSource(seed)))
				spec.deps = nil
				spec.horizon = 0
				fab := spec.fabric(t)
				tag := fmt.Sprintf("%s/seed=%d", pair.name, seed)

				mk := func(horizon bool) (*netsim.Session, []*coflow.Coflow, error) {
					sim := netsim.NewSimulator(fab, pair.prod())
					sim.Events = spec.events
					sim.EventHorizon = horizon
					ss, err := sim.Session()
					if err != nil {
						return nil, nil, err
					}
					cfs := spec.build()
					for _, c := range cfs {
						if err := ss.Admit(c); err != nil {
							return nil, nil, err
						}
					}
					return ss, cfs, nil
				}
				dense, denseCfs, err := mk(false)
				if err != nil {
					t.Fatal(err)
				}
				sparse, sparseCfs, err := mk(true)
				if err != nil {
					t.Fatal(err)
				}

				var denseErr, sparseErr error
				for _, stop := range []float64{0.3, 1.0, 1.7, 2.5, 4.9, 7.3, 11.1, 20.0, 60.0} {
					denseErr = dense.Advance(stop)
					sparseErr = sparse.Advance(stop)
					if (denseErr != nil) != (sparseErr != nil) {
						t.Fatalf("%s: Advance(%v) error mismatch: dense=%v sparse=%v",
							tag, stop, denseErr, sparseErr)
					}
					if denseErr != nil {
						break
					}
					if d, s := dense.Digest(), sparse.Digest(); d != s {
						t.Fatalf("%s: Digest diverged at stop=%v: dense=%x sparse=%x", tag, stop, d, s)
					}
					if dense.Now() != sparse.Now() {
						t.Fatalf("%s: Now diverged at stop=%v: %v != %v", tag, stop, dense.Now(), sparse.Now())
					}
				}
				if denseErr != nil {
					continue // both stalled identically mid-ladder
				}
				denseRep, denseErr := dense.Finish()
				sparseRep, sparseErr := sparse.Finish()
				compareRuns(t, tag, &spec, sparseCfs, denseCfs, sparseRep, denseRep, sparseErr, denseErr)
			}
		})
	}
}

// TestEventHorizonReleaseCompleted streams enough coflows through a sparse
// session that the completed-coflow compaction provably triggers, then
// checks the report against a dense run that retains everything: same CCTs,
// same makespan, same (weighted) averages — summed in ID order, which for
// arrival-ordered IDs is the dense input order, so equality is exact.
func TestEventHorizonReleaseCompleted(t *testing.T) {
	const n = 120
	rng := rand.New(rand.NewSource(7))
	spec := workloadSpec{
		ports: 4,
		egCap: []float64{100, 100, 100, 100},
		inCap: []float64{100, 100, 100, 100},
	}
	for i := 0; i < n; i++ {
		cs := cfSpec{id: i, arrival: float64(i) * 0.5}
		for fi := 0; fi < 1+rng.Intn(3); fi++ {
			src := rng.Intn(spec.ports)
			cs.flows = append(cs.flows, coflow.Flow{
				ID: fi, Src: src, Dst: (src + 1 + rng.Intn(spec.ports-1)) % spec.ports,
				Size: float64(1 + rng.Intn(2000)),
			})
		}
		spec.coflows = append(spec.coflows, cs)
	}
	weight := func(cfs []*coflow.Coflow) {
		for i, c := range cfs {
			if i%3 == 0 {
				c.Weight = 1 + float64(i%5)
			}
		}
	}
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			fab := spec.fabric(t)
			denseCfs := spec.build()
			weight(denseCfs)
			denseRep, err := netsim.NewSimulator(fab, pair.prod()).Run(denseCfs)
			if err != nil {
				t.Fatal(err)
			}

			sim := netsim.NewSimulator(fab, pair.prod())
			sim.EventHorizon = true
			sim.ReleaseCompleted = true
			ss, err := sim.Session()
			if err != nil {
				t.Fatal(err)
			}
			relCfs := spec.build()
			weight(relCfs)
			for _, c := range relCfs {
				if err := ss.Admit(c); err != nil {
					t.Fatal(err)
				}
			}
			if err := ss.Advance(math.Inf(1)); err != nil {
				t.Fatal(err)
			}
			// Both loops release: schedulers without sparse support run the
			// dense one.
			if got := ss.AdmittedCount(); got >= n {
				t.Errorf("AdmittedCount=%d: completed coflows were never released", got)
			}
			relRep, err := ss.Finish()
			if err != nil {
				t.Fatal(err)
			}

			if relRep.Makespan != denseRep.Makespan {
				t.Errorf("Makespan %v != %v", relRep.Makespan, denseRep.Makespan)
			}
			if relRep.MaxCCT != denseRep.MaxCCT {
				t.Errorf("MaxCCT %v != %v", relRep.MaxCCT, denseRep.MaxCCT)
			}
			if relRep.TotalBytes != denseRep.TotalBytes {
				t.Errorf("TotalBytes %v != %v", relRep.TotalBytes, denseRep.TotalBytes)
			}
			if relRep.AvgCCT != denseRep.AvgCCT {
				t.Errorf("AvgCCT %v != %v", relRep.AvgCCT, denseRep.AvgCCT)
			}
			if relRep.WeightedAvgCCT != denseRep.WeightedAvgCCT {
				t.Errorf("WeightedAvgCCT %v != %v", relRep.WeightedAvgCCT, denseRep.WeightedAvgCCT)
			}
			if len(relRep.CCTs) != len(denseRep.CCTs) {
				t.Fatalf("%d CCTs != %d", len(relRep.CCTs), len(denseRep.CCTs))
			}
			for id, want := range denseRep.CCTs {
				if got := relRep.CCTs[id]; got != want {
					t.Errorf("CCT[%d] = %v, want %v", id, got, want)
				}
			}
		})
	}
}

// TestReleaseCompletedRejectsFailures pins the documented incompatibility:
// released coflows cannot be resurrected by a failure edge, so configuring
// both must fail fast rather than silently corrupt results.
func TestReleaseCompletedRejectsFailures(t *testing.T) {
	spec := workloadSpec{
		ports: 2,
		egCap: []float64{100, 100},
		inCap: []float64{100, 100},
		coflows: []cfSpec{
			{id: 0, arrival: 0, flows: []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 100}}},
		},
	}
	sim := netsim.NewSimulator(spec.fabric(t), coflow.NewVarys())
	sim.EventHorizon = true
	sim.ReleaseCompleted = true
	sim.Failures = []netsim.PortFailure{{Port: 0, Down: 1, Up: 2}}
	if _, err := sim.Run(spec.build()); err == nil {
		t.Fatal("ReleaseCompleted with Failures should be rejected")
	}
}

// TestWeightedAvgCCTDefaults pins satellite 1: with no weights set the
// weighted average equals the plain average bit-for-bit (every weight is
// exactly 1), and with weights set it matches a hand-computed Σw·CCT/Σw.
func TestWeightedAvgCCTDefaults(t *testing.T) {
	spec := randomSpec(rand.New(rand.NewSource(42)))
	spec.deps = nil
	spec.horizon = 0
	spec.events = nil
	fab := spec.fabric(t)

	cfs := spec.build()
	rep, err := netsim.NewSimulator(fab, coflow.NewVarys()).Run(cfs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WeightedAvgCCT != rep.AvgCCT {
		t.Errorf("default weights: WeightedAvgCCT %v != AvgCCT %v", rep.WeightedAvgCCT, rep.AvgCCT)
	}

	wcfs := spec.build()
	var wsum, wtot float64
	for i, c := range wcfs {
		c.Weight = float64(1 + i%4)
	}
	wrep, err := netsim.NewSimulator(fab, coflow.NewVarys()).Run(wcfs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range wcfs {
		cct, err := c.CCT()
		if err != nil {
			t.Fatal(err)
		}
		wsum += c.Weight * cct
		wtot += c.Weight
	}
	if want := wsum / wtot; wrep.WeightedAvgCCT != want {
		t.Errorf("WeightedAvgCCT %v != hand-computed %v", wrep.WeightedAvgCCT, want)
	}
}
