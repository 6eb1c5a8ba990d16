package core

// The engine's same-instant backlog snapshot: a job that arrives at the
// engine clock is placed against the backlog the first probe at that clock
// read, with every admission since folded in, instead of a fresh O(flows)
// scan. The snapshot must read exactly what a scan would — across
// PlacementOnly admissions, a zero-remote-byte coflow that retires between
// two tied jobs, port failures whose edges land on the ties, and rejected
// jobs between two tied jobs — and the stream's final report must equal the
// probe-per-arrival reference.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/workload"
)

// batchEquivJobs builds one seeded stream with arrival ties (batch groups
// share a lifted clock), mixed placers, a PlacementOnly job, and a
// zero-remote-bytes job whose coflow retires on the very next advance.
func batchEquivJobs(t testing.TB, n int, seed int64) []OnlineJob {
	t.Helper()
	local := &workload.Workload{
		Config:        workload.Config{Nodes: n},
		Chunks:        partition.MustChunkMatrix(n, 1),
		SkewPartition: -1,
	}
	local.Chunks.H[0] = 1 << 20 // partition 0 lives entirely on node 0

	zipfs := []float64{0, 0.5, 1.0, 1.5}
	var jobs []OnlineJob
	arrival := 0.0
	for k := 0; k < 14; k++ {
		if k%4 == 3 {
			arrival += 0.01 * float64(seed%5+1) // ties inside groups of 3
		}
		job := OnlineJob{
			Name:     fmt.Sprintf("job%d", k),
			Arrival:  arrival,
			Workload: equivWorkload(t, n, zipfs[k%len(zipfs)], uint64(seed)*31+uint64(k)),
		}
		switch k % 3 {
		case 1:
			job.Scheduler = placement.Mini{}
		case 2:
			job.Scheduler = placement.Hash{}
		}
		if k == 6 {
			job.PlacementOnly = true
		}
		if k == 9 {
			// Hash pins partition 0 to node 0 where all its bytes live: a
			// coflow with no remote bytes, retired by the next advance.
			job.Workload = local
			job.Scheduler = placement.Hash{}
			job.PlacementOnly = false
		}
		jobs = append(jobs, job)
	}
	return jobs
}

// failingPlacer refuses every job: a rejection that comes after the job's
// backlog probe has run, with nothing admitted.
type failingPlacer struct{}

func (failingPlacer) Name() string { return "failing" }

func (failingPlacer) Place(*partition.ChunkMatrix, *partition.Loads) (*partition.Placement, error) {
	return nil, errors.New("refused")
}

// fixedPlacer returns one recorded placement, so the reference can be
// handed the engine's decision for a job it would place differently.
type fixedPlacer struct{ pl *partition.Placement }

func (fixedPlacer) Name() string { return "fixed" }

func (f fixedPlacer) Place(*partition.ChunkMatrix, *partition.Loads) (*partition.Placement, error) {
	return f.pl, nil
}

// TestOnlineAdmitBatchMatchesSequential admits batches of jobs that share an
// arrival and checks that each one is placed exactly as a sequential rescan
// before its Submit would place it.
func TestOnlineAdmitBatchMatchesSequential(t *testing.T) {
	const n, seeds = 4, 8
	t.Run("fault-free", func(t *testing.T) {
		checked := 0
		for seed := int64(0); seed < seeds; seed++ {
			opts := OnlineOptions{CoOptimize: true}
			jobs := batchEquivJobs(t, n, seed)
			// Two rejected jobs between tied jobs 4 and 5: one before its
			// probe, one after it.
			tie := jobs[4].Arrival
			stream := append(append(append([]OnlineJob{}, jobs[:5]...),
				OnlineJob{Name: "no-workload", Arrival: tie},
				OnlineJob{Name: "refused", Arrival: tie, Workload: jobs[5].Workload, Scheduler: failingPlacer{}},
			), jobs[5:]...)

			eng, err := NewOnlineEngine(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			eg, in := make([]int64, n), make([]int64, n)
			var admitted []OnlineJob
			prev := -1.0
			for i, job := range stream {
				tied := job.Arrival == prev
				if tied {
					if err := eng.BacklogInto(eg, in); err != nil {
						t.Fatal(err)
					}
				}
				dec, err := eng.Submit(job)
				if job.Name == "no-workload" || job.Name == "refused" {
					if err == nil {
						t.Fatalf("seed %d: %s admitted", seed, job.Name)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d: job %d: %v", seed, i, err)
				}
				prev = job.Arrival
				if tied && !job.PlacementOnly {
					checked++
					want := partition.Loads{Egress: eg, Ingress: in}
					if !reflect.DeepEqual(dec.Backlog, want) {
						t.Fatalf("seed %d: job %d (%s) at %g placed against %+v, a scan reads %+v",
							seed, i, job.Name, job.Arrival, dec.Backlog, want)
					}
				}
				if job.PlacementOnly {
					// The reference probes every job; hand it this one's
					// idle-network placement.
					job.Scheduler = fixedPlacer{dec.Placement}
				}
				admitted = append(admitted, job)
			}
			got, err := eng.Finish()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := RunOnlineReference(admitted, opts)
			if err != nil {
				t.Fatal(err)
			}
			comparePlacedOnline(t, fmt.Sprintf("seed %d", seed), got, ref)
		}
		// Nine probing jobs per stream share their predecessor's arrival.
		if checked != seeds*9 {
			t.Fatalf("checked %d tied probes, want %d", checked, seeds*9)
		}
	})
}

// TestOnlineBatchErrorMidBatch puts two rejected jobs at the head of every
// new instant: one refused before its backlog probe, one after it, so the
// snapshot the batch's first real job reads was taken for a job that was
// never admitted. Every decision and every digest must equal those of the
// same stream without the rejected jobs.
func TestOnlineBatchErrorMidBatch(t *testing.T) {
	const n = 4
	for seed := int64(0); seed < 8; seed++ {
		opts := OnlineOptions{CoOptimize: true}
		jobs := batchEquivJobs(t, n, seed)

		ref, err := NewOnlineEngine(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewOnlineEngine(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		rejected := 0
		for i, job := range jobs {
			if i > 0 && job.Arrival != jobs[i-1].Arrival {
				for _, bad := range []OnlineJob{
					{Name: "no-workload", Arrival: job.Arrival},
					{Name: "refused", Arrival: job.Arrival, Workload: job.Workload, Scheduler: failingPlacer{}},
				} {
					if _, err := eng.Submit(bad); err == nil {
						t.Fatalf("seed %d: %s before job %d admitted", seed, bad.Name, i)
					}
					rejected++
				}
			}
			want, err := ref.Submit(job)
			if err != nil {
				t.Fatalf("seed %d: reference job %d: %v", seed, i, err)
			}
			got, err := eng.Submit(job)
			if err != nil {
				t.Fatalf("seed %d: job %d: %v", seed, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: job %d decision diverged:\nwith rejects %+v\nwithout     %+v", seed, i, got, want)
			}
			if g, w := eng.StateDigest(), ref.StateDigest(); g != w {
				t.Fatalf("seed %d: digest after job %d: %016x, without rejects %016x", seed, i, g, w)
			}
		}
		// Three arrival steps per stream, two rejects at each.
		if rejected != 6 {
			t.Fatalf("seed %d: %d rejected jobs, want 6", seed, rejected)
		}
	}
}
