package netsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/telemetry"
)

// TestRunAloneMatchesSimulatorRun pins RunAlone against the sequence it
// replaced at five call sites — FromVolumes, NewFabric, NewSimulator, Run,
// MaxCCT and TotalBytes — bit for bit, over volume matrices with the shapes
// placements produce: dense, mostly zero, one sender, ties, mixed scales.
func TestRunAloneMatchesSimulatorRun(t *testing.T) {
	scheds := []struct {
		name string
		mk   func() coflow.Scheduler
	}{
		{"varys", func() coflow.Scheduler { return coflow.NewVarys() }},
		{"aalo", func() coflow.Scheduler { return coflow.NewAalo() }},
		{"sequential-by-dest", func() coflow.Scheduler { return coflow.SequentialByDest{} }},
		{"per-flow-fair", func() coflow.Scheduler { return coflow.PerFlowFair{} }},
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		vol := make([]int64, n*n)
		scale := int64(1) << uint(1+rng.Intn(30))
		for i := range vol {
			switch rng.Intn(4) {
			case 0: // no flow
			case 1:
				vol[i] = scale // ties
			default:
				vol[i] = rng.Int63n(scale)
			}
		}
		if rng.Intn(4) == 0 { // one sender only
			clear(vol[n:])
		}
		bw := []float64{0, 1, 1e6}[rng.Intn(3)]
		for _, sc := range scheds {
			tag := fmt.Sprintf("seed %d, %s, n=%d, bw=%g", seed, sc.name, n, bw)
			cct, bytes, err := netsim.RunAlone("job", n, vol, bw, sc.mk(), nil)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			cf, err := coflow.FromVolumes(0, "job", 0, n, vol)
			if err != nil {
				t.Fatal(err)
			}
			if len(cf.Flows) == 0 {
				if cct != 0 || bytes != 0 {
					t.Errorf("%s: no remote bytes, yet CCT %g and %g bytes", tag, cct, bytes)
				}
				continue
			}
			fabric, err := netsim.NewFabric(n, bw)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := netsim.NewSimulator(fabric, sc.mk()).Run([]*coflow.Coflow{cf})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if cct != rep.MaxCCT || bytes != rep.TotalBytes {
				t.Errorf("%s: RunAlone = (%v, %v), Simulator.Run = (%v, %v)", tag, cct, bytes, rep.MaxCCT, rep.TotalBytes)
			}
		}
	}
}

func TestRunAloneEdges(t *testing.T) {
	// Everything already at its destination: only the diagonal is set.
	local := []int64{7, 0, 0, 0, 9, 0, 0, 0, 3}
	if cct, bytes, err := netsim.RunAlone("local", 3, local, 0, coflow.NewVarys(), nil); err != nil || cct != 0 || bytes != 0 {
		t.Errorf("all-local matrix: (%g, %g, %v), want (0, 0, nil)", cct, bytes, err)
	}
	if _, _, err := netsim.RunAlone("short", 3, make([]int64, 8), 0, coflow.NewVarys(), nil); err == nil {
		t.Error("accepted 8 volumes for 3 nodes")
	}
	if _, _, err := netsim.RunAlone("empty", 0, nil, 0, coflow.NewVarys(), nil); err == nil {
		t.Error("accepted a fabric without ports")
	}
	// The probe observes the run and does not move it.
	vol := []int64{0, 5, 0, 2, 0, 8, 1, 0, 0}
	rec := telemetry.NewRecorder(telemetry.Config{})
	probed, _, err := netsim.RunAlone("probed", 3, vol, 1, coflow.NewVarys(), rec)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := netsim.RunAlone("probed", 3, vol, 1, coflow.NewVarys(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if probed != plain || rec.Summary().Makespan != plain {
		t.Errorf("probed CCT %v, recorder makespan %v, unprobed CCT %v", probed, rec.Summary().Makespan, plain)
	}
}
