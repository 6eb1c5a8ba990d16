package netsim_test

// Telemetry non-perturbation: attaching a telemetry.Recorder must not
// change a single bit of the simulation. The probe contract (read-only
// observation, no float operations on the simulation's state) makes this a
// theorem about the code; this test pins it empirically across the same
// seeded workload space the refsim equivalence suite uses — all 7
// schedulers, heterogeneous fabrics, staggered arrivals, dependency DAGs,
// capacity events, outages, horizons.

import (
	"fmt"
	"math/rand"
	"testing"

	"ccf/internal/netsim"
	"ccf/internal/telemetry"
)

// The Recorder must satisfy the simulator's probe interface.
var _ netsim.Probe = (*telemetry.Recorder)(nil)

// TestTelemetryDoesNotPerturbSimulation runs every scheduler over seeded
// random workloads twice — probe off, probe on — and requires the two
// Reports to be byte-identical in every deterministic field (Makespan,
// Epochs, TotalBytes, WastedBytes, MaxCCT, every CCT) and every coflow and
// flow end state to match exactly.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	const seeds = 24
	for _, pair := range schedPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				spec := randomSpec(rand.New(rand.NewSource(seed)))
				fab := spec.fabric(t)

				offCfs := spec.build()
				offSim := netsim.NewSimulator(fab, pair.prod())
				offSim.Events = spec.events
				offSim.Deps = spec.deps
				if spec.horizon > 0 { // spec uses 0 for "no horizon"; netsim now uses NoHorizon
					offSim.Horizon = spec.horizon
				}
				offRep, offErr := offSim.Run(offCfs)

				onCfs := spec.build()
				onSim := netsim.NewSimulator(fab, pair.prod())
				onSim.Events = spec.events
				onSim.Deps = spec.deps
				if spec.horizon > 0 {
					onSim.Horizon = spec.horizon
				}
				rec := telemetry.NewRecorder(telemetry.Config{})
				onSim.Probe = rec
				onRep, onErr := onSim.Run(onCfs)

				tag := fmt.Sprintf("%s/seed=%d", pair.name, seed)
				if (offErr != nil) != (onErr != nil) {
					t.Fatalf("%s: error mismatch: off=%v on=%v", tag, offErr, onErr)
				}
				if offErr != nil {
					continue
				}
				if onRep.Makespan != offRep.Makespan {
					t.Errorf("%s: Makespan %v != %v", tag, onRep.Makespan, offRep.Makespan)
				}
				if onRep.Epochs != offRep.Epochs {
					t.Errorf("%s: Epochs %d != %d", tag, onRep.Epochs, offRep.Epochs)
				}
				if onRep.TotalBytes != offRep.TotalBytes {
					t.Errorf("%s: TotalBytes %v != %v", tag, onRep.TotalBytes, offRep.TotalBytes)
				}
				if onRep.WastedBytes != offRep.WastedBytes {
					t.Errorf("%s: WastedBytes %v != %v", tag, onRep.WastedBytes, offRep.WastedBytes)
				}
				if onRep.MaxCCT != offRep.MaxCCT {
					t.Errorf("%s: MaxCCT %v != %v", tag, onRep.MaxCCT, offRep.MaxCCT)
				}
				// AvgCCT is now summed in input-coflow order on both runs, so
				// it too must match exactly.
				if onRep.AvgCCT != offRep.AvgCCT {
					t.Errorf("%s: AvgCCT %v != %v", tag, onRep.AvgCCT, offRep.AvgCCT)
				}
				if len(onRep.CCTs) != len(offRep.CCTs) {
					t.Errorf("%s: %d CCTs != %d", tag, len(onRep.CCTs), len(offRep.CCTs))
				}
				for id, cct := range offRep.CCTs {
					if got, ok := onRep.CCTs[id]; !ok || got != cct {
						t.Errorf("%s: CCT[%d] = %v, want %v", tag, id, got, cct)
					}
				}
				for i := range offCfs {
					oc, nc := offCfs[i], onCfs[i]
					if nc.Completed != oc.Completed || (oc.Completed && nc.Completion != oc.Completion) {
						t.Errorf("%s: coflow %d completion (%v,%v) != (%v,%v)",
							tag, oc.ID, nc.Completed, nc.Completion, oc.Completed, oc.Completion)
					}
					if nc.SentBytes != oc.SentBytes {
						t.Errorf("%s: coflow %d SentBytes %v != %v", tag, oc.ID, nc.SentBytes, oc.SentBytes)
					}
				}
				// The recording itself should be sane: one lifecycle arrival
				// per admitted coflow, monotone non-negative sample windows.
				sum := rec.Summary()
				if sum.Makespan != offRep.Makespan {
					t.Errorf("%s: recorder makespan %v != report %v", tag, sum.Makespan, offRep.Makespan)
				}
				for _, s := range rec.Samples() {
					if s.Dur < 0 {
						t.Errorf("%s: negative sample window %v at t=%v", tag, s.Dur, s.Start)
					}
				}
			}
		})
	}
}
