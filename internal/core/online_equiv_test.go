package core

// Online engine equivalence: the streaming OnlineEngine (one resumable
// simulation session, O(J) simulator work) must reproduce the frozen
// probe-per-arrival reference (re-simulate history per arrival, O(J²))
// byte-identically — every CCT, the makespan, and the aggregates — across
// placement schedulers × network schedulers × co-optimize on/off × seeds,
// with and without injected port failures. This is the online counterpart of
// the netsim↔refsim golden suite.

import (
	"fmt"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/skew"
	"ccf/internal/workload"
)

// equivWorkload is a small deterministic workload so the ≥24-seed sweep
// stays fast; different seeds shift chunk jitter and therefore placements,
// arrival interleavings and tie-breaks.
func equivWorkload(t testing.TB, n int, zipf float64, seed uint64) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Nodes: n, CustomerTuples: 300, OrderTuples: 3_000,
		PayloadBytes: 1000, Zipf: zipf, Seed: seed, JitterFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// equivJobs builds one seeded job stream: staggered arrivals including a
// simultaneous pair so admission tie-breaks are exercised.
func equivJobs(t testing.TB, n int, seed int64) []OnlineJob {
	t.Helper()
	zipfs := []float64{0, 0.5, 1.0, 1.5}
	arrivals := []float64{0, 0.02 * float64(seed%5), 0.05, 0.05}
	jobs := make([]OnlineJob, 0, len(zipfs))
	for k, z := range zipfs {
		jobs = append(jobs, OnlineJob{
			Name:     fmt.Sprintf("job%d", k),
			Arrival:  arrivals[k],
			Workload: equivWorkload(t, n, z, uint64(seed)*31+uint64(k)),
		})
	}
	return jobs
}

func comparePlacedOnline(t *testing.T, tag string, got, ref *OnlineReport) {
	t.Helper()
	if got.Makespan != ref.Makespan {
		t.Errorf("%s: Makespan %v != %v", tag, got.Makespan, ref.Makespan)
	}
	if got.AvgCCT != ref.AvgCCT {
		t.Errorf("%s: AvgCCT %v != %v", tag, got.AvgCCT, ref.AvgCCT)
	}
	if got.MaxCCT != ref.MaxCCT {
		t.Errorf("%s: MaxCCT %v != %v", tag, got.MaxCCT, ref.MaxCCT)
	}
	if len(got.CCTs) != len(ref.CCTs) {
		t.Fatalf("%s: %d CCTs != %d", tag, len(got.CCTs), len(ref.CCTs))
	}
	for i := range ref.CCTs {
		if got.CCTs[i] != ref.CCTs[i] {
			t.Errorf("%s: CCT[%d] = %v, want %v", tag, i, got.CCTs[i], ref.CCTs[i])
		}
	}
}

// TestOnlineEngineMatchesReference is the tentpole acceptance test: ≥24
// seeds × {CCF, Mini, Hash} × {Varys, Aalo} × co-optimize on/off, engine vs
// probe reference, exact equality.
func TestOnlineEngineMatchesReference(t *testing.T) {
	const n, seeds = 6, 24
	placers := []struct {
		name string
		mk   func() placement.Scheduler
	}{
		{"ccf", func() placement.Scheduler { return placement.CCF{} }},
		{"mini", func() placement.Scheduler { return placement.Mini{} }},
		{"hash", func() placement.Scheduler { return placement.Hash{} }},
	}
	nets := []struct {
		name string
		mk   func() coflow.Scheduler // nil result = package default (Varys)
	}{
		{"varys", func() coflow.Scheduler { return nil }},
		{"aalo", func() coflow.Scheduler { return coflow.NewAalo() }},
	}
	for _, pl := range placers {
		for _, nt := range nets {
			for _, coopt := range []bool{false, true} {
				pl, nt, coopt := pl, nt, coopt
				t.Run(fmt.Sprintf("%s/%s/coopt=%v", pl.name, nt.name, coopt), func(t *testing.T) {
					for seed := int64(0); seed < seeds; seed++ {
						jobs := equivJobs(t, n, seed)
						for i := range jobs {
							jobs[i].Scheduler = pl.mk()
						}
						ref, refErr := RunOnlineReference(jobs, OnlineOptions{
							CoOptimize: coopt, NetworkScheduler: nt.mk(),
						})
						got, gotErr := RunOnline(jobs, OnlineOptions{
							CoOptimize: coopt, NetworkScheduler: nt.mk(),
						})
						tag := fmt.Sprintf("seed=%d", seed)
						if (refErr != nil) != (gotErr != nil) {
							t.Fatalf("%s: error mismatch: engine=%v reference=%v", tag, gotErr, refErr)
						}
						if refErr != nil {
							continue
						}
						comparePlacedOnline(t, tag, got, ref)
					}
				})
			}
		}
	}
}

// TestRunOnlineObliviousIsBlackBoxComposition pins the paper's "black-box
// composition" baseline: with CoOptimize off, RunOnline must be *exactly*
// per-job offline placement against an idle network (initial loads zero, or
// the job's own skew broadcasts) composed with one shared simulation of the
// resulting coflows.
func TestRunOnlineObliviousIsBlackBoxComposition(t *testing.T) {
	const n = 6
	for _, handleSkew := range []bool{false, true} {
		handleSkew := handleSkew
		t.Run(fmt.Sprintf("skew=%v", handleSkew), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				jobs := equivJobs(t, n, seed)
				if handleSkew {
					for i := range jobs {
						w, err := workload.Generate(workload.Config{
							Nodes: n, CustomerTuples: 300, OrderTuples: 3_000,
							PayloadBytes: 1000, Skew: 0.3, Seed: uint64(seed)*17 + uint64(i),
						})
						if err != nil {
							t.Fatal(err)
						}
						jobs[i].Workload = w
						jobs[i].HandleSkew = true
					}
				}
				got, err := RunOnline(jobs, OnlineOptions{CoOptimize: false})
				if err != nil {
					t.Fatal(err)
				}

				// Manual composition. Jobs here arrive in input order
				// (equivJobs produces non-decreasing arrivals), so input
				// index == arrival rank == coflow ID.
				var cfs []*coflow.Coflow
				for ji, job := range jobs {
					matrix := job.Workload.Chunks
					initial := &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
					var plan *skew.Plan
					if job.HandleSkew && job.Workload.SkewPartition >= 0 {
						plan = skew.PartialDuplication(job.Workload)
						matrix = plan.Adjusted
						copy(initial.Egress, plan.Initial.Egress)
						copy(initial.Ingress, plan.Initial.Ingress)
					}
					pl, err := placement.CCF{}.Place(matrix, initial)
					if err != nil {
						t.Fatal(err)
					}
					vol, err := partition.FlowVolumes(matrix, pl)
					if err != nil {
						t.Fatal(err)
					}
					if plan != nil {
						for i, b := range plan.BroadcastVolumes {
							vol[i] += b
						}
					}
					cf, err := coflow.FromVolumes(ji, job.Name, job.Arrival, n, vol)
					if err != nil {
						t.Fatal(err)
					}
					cfs = append(cfs, cf)
				}
				fab, err := netsim.NewFabric(n, 0)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := netsim.NewSimulator(fab, coflow.NewVarys()).Run(cfs)
				if err != nil {
					t.Fatal(err)
				}
				for ji := range jobs {
					want := rep.CCTs[ji] // missing entry = 0, the no-remote-bytes case
					if got.CCTs[ji] != want {
						t.Errorf("seed=%d: CCT[%d] = %v, want composition %v", seed, ji, got.CCTs[ji], want)
					}
				}
				if got.Makespan != rep.Makespan {
					t.Errorf("seed=%d: Makespan %v != composition %v", seed, got.Makespan, rep.Makespan)
				}
			}
		})
	}
}

// TestOnlineCoOptimizeSeesBacklogAtTimeZero is the Horizon zero-value
// regression: two jobs arriving at t=0 — the second job's placement must see
// the first job's full volume as backlog. Before Horizon got its NoHorizon
// sentinel, the reference probe set Horizon = 0, which meant "no horizon":
// the backlog probe simulated the first job to completion and reported an
// idle network.
func TestOnlineCoOptimizeSeesBacklogAtTimeZero(t *testing.T) {
	const n = 6
	w0 := equivWorkload(t, n, 1.0, 1)
	w1 := equivWorkload(t, n, 0.5, 2)
	eng, err := NewOnlineEngine(n, OnlineOptions{CoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	d0, err := eng.Submit(OnlineJob{Name: "a", Arrival: 0, Workload: w0})
	if err != nil {
		t.Fatal(err)
	}
	if d0.Backlog.Egress != nil {
		t.Errorf("first job saw a backlog: %+v", d0.Backlog)
	}
	d1, err := eng.Submit(OnlineJob{Name: "b", Arrival: 0, Workload: w1})
	if err != nil {
		t.Fatal(err)
	}
	var seen, want int64
	for p := 0; p < n; p++ {
		seen += d1.Backlog.Egress[p]
	}
	// The first job has moved nothing at t=0, so the backlog must be its
	// entire remote volume — placement-dependent, so recompute it from the
	// decision instead of hard-coding.
	vol, err := partition.FlowVolumes(w0.Chunks, d0.Placement)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vol {
		want += v
	}
	if want == 0 {
		t.Fatal("degenerate workload: first job has no remote bytes")
	}
	if seen != want {
		t.Errorf("second job at t=0 saw backlog %d, want the first job's full remote volume %d", seen, want)
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}

	// And the batch entry points agree with each other on the same stream.
	jobs := []OnlineJob{
		{Name: "a", Arrival: 0, Workload: w0},
		{Name: "b", Arrival: 0, Workload: w1},
	}
	ref, err := RunOnlineReference(jobs, OnlineOptions{CoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunOnline(jobs, OnlineOptions{CoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	comparePlacedOnline(t, "t0-pair", got, ref)
}

// TestOnlineZeroRemoteBytesJob pins the CCT-0 path: a job whose partitions
// are already resident where placement wants them produces a coflow with no
// flows, completes instantly, and reports CCT 0 through both entry points.
func TestOnlineZeroRemoteBytesJob(t *testing.T) {
	const n = 4
	m := partition.MustChunkMatrix(n, 1)
	m.H[0] = 1 << 20 // partition 0 lives entirely on node 0
	local := &workload.Workload{
		Config:        workload.Config{Nodes: n},
		Chunks:        m,
		SkewPartition: -1,
	}
	jobs := []OnlineJob{
		{Name: "local", Arrival: 0, Workload: local},
		{Name: "remote", Arrival: 0.01, Workload: equivWorkload(t, n, 1.0, 3)},
	}
	for _, coopt := range []bool{false, true} {
		ref, err := RunOnlineReference(jobs, OnlineOptions{CoOptimize: coopt})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunOnline(jobs, OnlineOptions{CoOptimize: coopt})
		if err != nil {
			t.Fatal(err)
		}
		if got.CCTs[0] != 0 {
			t.Errorf("coopt=%v: local job CCT = %v, want 0", coopt, got.CCTs[0])
		}
		if got.CCTs[1] <= 0 {
			t.Errorf("coopt=%v: remote job CCT = %v, want > 0", coopt, got.CCTs[1])
		}
		comparePlacedOnline(t, fmt.Sprintf("coopt=%v", coopt), got, ref)
	}
}

// TestOnlineEngineMatchesReferenceLongStream holds the equivalence through
// what a long-lived engine does and a four-job stream never reaches: the
// event-horizon loop (Varys, Aalo) or the dense one (FIFO, SCF, NCF), both
// releasing completed coflows to tombstones while later jobs still arrive —
// some onto an idle network, some onto a backlog. The reference retains
// everything and re-simulates history per arrival.
func TestOnlineEngineMatchesReferenceLongStream(t *testing.T) {
	const n, jobCount = 4, 90
	nets := []struct {
		name string
		mk   func() coflow.Scheduler
	}{
		{"varys", coflow.NewVarys},
		{"aalo", func() coflow.Scheduler { return coflow.NewAalo() }},
		{"fifo", coflow.NewFIFO},
		{"scf", coflow.NewSCF},
		{"ncf", coflow.NewNCF},
	}
	for _, nt := range nets {
		for _, coopt := range []bool{false, true} {
			nt, coopt := nt, coopt
			t.Run(fmt.Sprintf("%s/coopt=%v", nt.name, coopt), func(t *testing.T) {
				for seed := int64(0); seed < 3; seed++ {
					jobs := make([]OnlineJob, jobCount)
					probe := equivWorkload(t, n, 0.5, 1)
					solo, err := RunOnline([]OnlineJob{{Workload: probe}}, OnlineOptions{})
					if err != nil {
						t.Fatal(err)
					}
					at := 0.0
					for i := range jobs {
						// Bursts of three a fifth of a job apart, then a gap
						// long enough to drain.
						if i%3 == 0 {
							at += 4 * solo.AvgCCT
						} else {
							at += solo.AvgCCT / 5
						}
						jobs[i] = OnlineJob{
							Name: fmt.Sprintf("job%02d", i), Arrival: at,
							Workload: equivWorkload(t, n, float64(i%4)/2, uint64(seed)*1000+uint64(i)),
						}
					}
					ref, err := RunOnlineReference(jobs, OnlineOptions{CoOptimize: coopt, NetworkScheduler: nt.mk()})
					if err != nil {
						t.Fatal(err)
					}
					eng, err := NewOnlineEngine(n, OnlineOptions{CoOptimize: coopt, NetworkScheduler: nt.mk()})
					if err != nil {
						t.Fatal(err)
					}
					for _, job := range jobs {
						if _, err := eng.Submit(job); err != nil {
							t.Fatal(err)
						}
					}
					// Only the co-optimizing engine advances its session
					// between jobs, so only it can have released by now.
					if held := eng.ResidentCoflows(); coopt && held > jobCount/2 {
						t.Errorf("seed=%d: session still holds %d of %d coflows", seed, held, jobCount)
					}
					got, err := eng.Finish()
					if err != nil {
						t.Fatal(err)
					}
					comparePlacedOnline(t, fmt.Sprintf("seed=%d", seed), got, ref)
				}
			})
		}
	}
}
