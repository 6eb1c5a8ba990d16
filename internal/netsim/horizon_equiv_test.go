package netsim_test

// Event-horizon equivalence: a run with Simulator.EventHorizon set must be
// *bit-identical* to the same run without it. The flag lets the event loop
// visit only the coflows the scheduler granted, and the full passes mark
// every active coflow moved where the granted-only passes mark the ones they
// advanced; every shortcut is a proof-carrying no-op (ungranted flows
// contribute +0.0 to port sums, never bound dt and move no bytes; cached
// priority keys are pure functions of unchanged state), so the comparison is
// exact equality on every Report and per-flow field — no epsilons — across
// the seed × scheduler matrix, with dependency DAGs and with failure
// schedules whose edges straddle the completion epochs. Both sides run the
// one event loop and the one allocator, so what this pins is the granted-set
// restriction and the two ways of marking; the loop and the allocator are
// pinned by refsim (equiv_test.go) and, under Failures, by the golden in
// failure_golden_test.go.

import (
	"fmt"
	"math/rand"
	"testing"

	"ccf/internal/netsim"
)

// withFailures decorates a random spec with a failure schedule drawn from the
// same rng: 1–3 outages (some permanent, some overlapping), edges spread over
// the run so some land between completion epochs and some on top of them.
func withFailures(rng *rand.Rand, spec *workloadSpec) []netsim.PortFailure {
	var fails []netsim.PortFailure
	for i := 0; i < 1+rng.Intn(3); i++ {
		pf := netsim.PortFailure{
			Port: rng.Intn(spec.ports),
			Down: rng.Float64() * 25,
		}
		if rng.Intn(4) > 0 { // 3/4 transient, 1/4 permanent
			pf.Up = pf.Down + 0.5 + rng.Float64()*10
		}
		fails = append(fails, pf)
	}
	return fails
}

func runPair(t *testing.T, tag string, spec *workloadSpec, prod func() *netsim.Simulator) {
	t.Helper()
	denseCfs := spec.build()
	denseSim := prod()
	denseRep, denseErr := denseSim.Run(denseCfs)

	horizonCfs := spec.build()
	horizonSim := prod()
	horizonSim.EventHorizon = true
	horizonRep, horizonErr := horizonSim.Run(horizonCfs)

	compareRuns(t, tag, spec, horizonCfs, denseCfs, horizonRep, denseRep, horizonErr, denseErr)
	if denseErr == nil && horizonRep.WeightedAvgCCT != denseRep.WeightedAvgCCT {
		t.Errorf("%s: WeightedAvgCCT %v != %v", tag, horizonRep.WeightedAvgCCT, denseRep.WeightedAvgCCT)
	}
}

// TestEventHorizonMatchesDense is the sparse-vs-dense property test: the full
// scheduler matrix over seeded random workloads (heterogeneous fabrics,
// staggered arrivals, capacity events including full outages, horizons, and
// dependency DAGs, whose blocked coflows wait inside the arrived prefix).
func TestEventHorizonMatchesDense(t *testing.T) {
	const seeds = 32
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				spec := randomSpec(rand.New(rand.NewSource(seed)))
				fab := spec.fabric(t)
				runPair(t, fmt.Sprintf("%s/seed=%d", pair.name, seed), &spec,
					func() *netsim.Simulator {
						sim := netsim.NewSimulator(fab, pair.prod())
						sim.Events = spec.events
						sim.Deps = spec.deps
						if spec.horizon > 0 {
							sim.Horizon = spec.horizon
						}
						return sim
					})
			}
		})
	}
}

// TestEventHorizonMatchesDenseUnderFailures pins the sparse path against
// failure schedules under every retransmission policy: down/up edges land
// between, and exactly on, the completion epochs, voiding progress — of
// preempted, ungranted coflows too — and (under restart-delivered)
// resurrecting delivered flows into their coflows' live sets mid-run.
func TestEventHorizonMatchesDenseUnderFailures(t *testing.T) {
	const seeds = 24
	policies := []struct {
		name   string
		policy netsim.RetransmitPolicy
	}{
		{"restart", netsim.RetransmitRestart},
		{"resume", netsim.RetransmitResume},
		{"restart-delivered", netsim.RetransmitRestartDelivered},
	}
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for _, pol := range policies {
				for seed := int64(0); seed < seeds; seed++ {
					rng := rand.New(rand.NewSource(seed))
					spec := randomSpec(rng)
					fails := withFailures(rng, &spec)
					fab := spec.fabric(t)
					tag := fmt.Sprintf("%s/%s/seed=%d", pair.name, pol.name, seed)
					runPair(t, tag, &spec, func() *netsim.Simulator {
						sim := netsim.NewSimulator(fab, pair.prod())
						sim.Events = spec.events
						sim.Deps = spec.deps
						sim.Failures = fails
						sim.Retransmit = pol.policy
						if spec.horizon > 0 {
							sim.Horizon = spec.horizon
						}
						return sim
					})
				}
			}
		})
	}
}

// TestEventHorizonReusedSchedulerClearsSparse pins scheduler reuse across
// flag settings: a scheduler instance moved from an event-horizon simulator
// to a plain one carries its order and grant bookkeeping from the last run
// into the next, and must still match a fresh flag-off run exactly — the
// EventHorizon twin of the shard-config reuse test.
func TestEventHorizonReusedSchedulerClearsSparse(t *testing.T) {
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			spec := randomSpec(rand.New(rand.NewSource(11)))
			fab := spec.fabric(t)

			denseCfs := spec.build()
			denseSim := netsim.NewSimulator(fab, pair.prod())
			denseSim.Events = spec.events
			denseSim.Deps = spec.deps
			denseRep, denseErr := denseSim.Run(denseCfs)

			sched := pair.prod()
			warmSim := netsim.NewSimulator(fab, sched)
			warmSim.Events = spec.events
			warmSim.Deps = spec.deps
			warmSim.EventHorizon = true
			if _, err := warmSim.Run(spec.build()); (err != nil) != (denseErr != nil) {
				t.Fatalf("horizon warm-up error mismatch: %v vs %v", err, denseErr)
			}
			plainCfs := spec.build()
			plainSim := netsim.NewSimulator(fab, sched)
			plainSim.Events = spec.events
			plainSim.Deps = spec.deps
			plainRep, plainErr := plainSim.Run(plainCfs)
			compareRuns(t, pair.name+"/after-horizon", &spec,
				plainCfs, denseCfs, plainRep, denseRep, plainErr, denseErr)
		})
	}
}
