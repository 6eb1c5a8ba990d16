package service

// Image-restore equivalence: a shard restored from a state image (plus the
// WAL suffix behind it) is the shard that was killed. For every network
// scheduler × seed × kill scenario, an uninterrupted shard and a
// snapshot-killed-restored one must hand out byte-identical decisions for
// the rest of the stream and report equal state after every one of them.
// Everything is sequential and in-process: no sleeps, no timing.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ccf/internal/workload"
)

// imageScenario is one kill situation: a job stream for a seed, the engine
// mode, and where in the stream the snapshot is taken.
type imageScenario struct {
	name   string
	coOpt  bool
	jobs   func(seed uint64) []JobSpec
	cut    int // jobs admitted before the snapshot
	expect func(t *testing.T, sh *shard)
}

const imageNodes = 4

func imageGen(seed uint64, skew float64) *workload.Config {
	return &workload.Config{
		Nodes: imageNodes, CustomerTuples: 40, OrderTuples: 400, PayloadBytes: 1000,
		Zipf: 0.8, Skew: skew, Seed: seed, JitterFrac: 0.05,
	}
}

// imageStream builds n jobs; gap draws the time to the next arrival and
// decorate may adjust the spec (placement-only, placer).
func imageStream(seed uint64, n int, gap func(i int, rng *rand.Rand) float64, decorate func(i int, s *JobSpec)) []JobSpec {
	rng := rand.New(rand.NewSource(int64(seed)))
	jobs := make([]JobSpec, n)
	at := 0.0
	for i := range jobs {
		at += gap(i, rng)
		arrival := at
		jobs[i] = JobSpec{Name: fmt.Sprintf("s%d-j%03d", seed, i), Arrival: &arrival}
		if i%4 == 0 {
			rows := make([][]int64, imageNodes)
			for r := range rows {
				rows[r] = make([]int64, 2*imageNodes)
				for k := range rows[r] {
					rows[r][k] = 1e6 + rng.Int63n(8e6)
				}
			}
			jobs[i].Chunks = rows
		} else {
			jobs[i].Gen = imageGen(seed*1000+uint64(i), 0.3)
			jobs[i].HandleSkew = true
		}
		if decorate != nil {
			decorate(i, &jobs[i])
		}
	}
	return jobs
}

// Every fourth job moves on the order of a hundred megabytes at 128 MB/s
// per port — a few tenths of a second alone, and past Aalo's first 10 MB
// queue threshold — the rest a few hundred kilobytes. Arrivals 100 s apart
// find the network idle; arrivals 50 ms apart pile up.
var imageScenarios = []imageScenario{
	{
		name: "idle network", coOpt: true, cut: 44,
		jobs: func(seed uint64) []JobSpec {
			return imageStream(seed, 56, func(int, *rand.Rand) float64 { return 100 }, nil)
		},
		expect: func(t *testing.T, sh *shard) {
			// Everything before the cut finished long ago and most of it has
			// been released: the image is mainly tombstones.
			if r := sh.eng.ResidentCoflows(); r > 12 {
				t.Errorf("%d coflows resident on an idle network", r)
			}
		},
	},
	{
		name: "standing backlog", coOpt: true, cut: 40,
		jobs: func(seed uint64) []JobSpec {
			return imageStream(seed, 52, func(_ int, rng *rand.Rand) float64 { return 0.05 * rng.ExpFloat64() }, nil)
		},
		expect: func(t *testing.T, sh *shard) {
			if r := sh.eng.ResidentCoflows(); r < 3 {
				t.Errorf("only %d coflows in flight: no backlog to image", r)
			}
		},
	},
	{
		// The six jobs before the cut take the degraded path with explicit
		// later arrivals: the engine clock moves, the session's does not, and
		// their coflows sit queued ahead of it when the image is taken.
		name: "placement-only run", coOpt: true, cut: 40,
		jobs: func(seed uint64) []JobSpec {
			return imageStream(seed, 52,
				func(_ int, rng *rand.Rand) float64 { return 0.05 * rng.ExpFloat64() },
				func(i int, s *JobSpec) { s.PlacementOnly = i >= 34 && i < 40 })
		},
		expect: func(t *testing.T, sh *shard) {
			if r := sh.eng.ResidentCoflows(); r < 6 {
				t.Errorf("%d coflows resident, want the six queued ones at least", r)
			}
		},
	},
	{
		// Without co-optimization nothing advances the session before
		// Finish: every coflow ever admitted is still queued.
		name: "co-optimize off", coOpt: false, cut: 20,
		jobs: func(seed uint64) []JobSpec {
			return imageStream(seed, 32,
				func(_ int, rng *rand.Rand) float64 { return 0.05 * rng.ExpFloat64() },
				func(i int, s *JobSpec) { s.Placer = []string{"", "hash", "mini"}[i%3] })
		},
		expect: func(t *testing.T, sh *shard) {
			if r, want := sh.eng.ResidentCoflows(), int(sh.seq); r != want {
				t.Errorf("%d coflows resident, want all %d", r, want)
			}
		},
	},
}

// submitAndState submits one job and returns its decision as JSON with the
// shard's state right after it.
func submitAndState(t *testing.T, p *Pool, spec JobSpec) ([]byte, ShardState) {
	t.Helper()
	dec, err := p.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit %s: %v", spec.Name, err)
	}
	b, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	return b, poolStates(t, p)[0]
}

func TestImageRestoreEquivalence(t *testing.T) {
	const seeds = 8
	for _, sched := range []string{"varys", "aalo", "fifo", "scf", "ncf"} {
		for _, sc := range imageScenarios {
			sched, sc := sched, sc
			t.Run(sched+"/"+sc.name, func(t *testing.T) {
				t.Parallel()
				for seed := uint64(0); seed < seeds; seed++ {
					jobs := sc.jobs(seed)
					config := func(dir string) Config {
						return Config{
							Shards: 1, Nodes: imageNodes, Dir: dir, DegradeAfter: -1, SnapshotEvery: -1,
							Engine: EngineConfig{CoOptimize: sc.coOpt, NetworkScheduler: sched},
						}
					}

					// Uninterrupted reference.
					ref := startPool(t, config(t.TempDir()))
					wantDec := make([][]byte, len(jobs))
					wantState := make([]ShardState, len(jobs))
					for i := range jobs {
						wantDec[i], wantState[i] = submitAndState(t, ref, jobs[i])
					}
					ref.Kill()

					// Snapshot at the cut, journal a seed-dependent few more,
					// kill, restore: image plus WAL suffix.
					dir := t.TempDir()
					suffix := int(seed % 3)
					b1 := startPool(t, config(dir))
					for i := 0; i < sc.cut; i++ {
						submitAndState(t, b1, jobs[i])
					}
					sc.expect(t, b1.shards[0])
					if err := b1.SnapshotAll(context.Background()); err != nil {
						t.Fatal(err)
					}
					for i := sc.cut; i < sc.cut+suffix; i++ {
						submitAndState(t, b1, jobs[i])
					}
					b1.Kill()
					if snap, err := readSnapshotFile(snapshotPath(dir, 0)); err != nil || snap == nil || snap.Seq != uint64(sc.cut) {
						t.Fatalf("seed %d: snapshot on disk: %+v, %v; want one at seq %d", seed, snap, err, sc.cut)
					}

					b2 := startPool(t, config(dir))
					resumed := sc.cut + suffix
					if got := poolStates(t, b2)[0]; got != wantState[resumed-1] {
						t.Fatalf("seed %d: restored state %+v, uninterrupted shard had %+v", seed, got, wantState[resumed-1])
					}
					for i := resumed; i < len(jobs); i++ {
						dec, state := submitAndState(t, b2, jobs[i])
						if string(dec) != string(wantDec[i]) {
							t.Fatalf("seed %d: decision %d after restore at %d:\nwant %s\ngot  %s", seed, i, resumed, wantDec[i], dec)
						}
						if state != wantState[i] {
							t.Fatalf("seed %d: state after job %d: %+v, want %+v", seed, i, state, wantState[i])
						}
					}
					b2.Kill()
				}
			})
		}
	}
}

// TestRestoreSweepsStaleSnapshotTemps: a kill -9 in the middle of a snapshot
// write leaves its temp file behind; the next start removes it (and only
// it), with or without a committed snapshot beside it.
func TestRestoreSweepsStaleSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	cfg := detConfig(dir)
	cfg.Shards = 1
	stale := snapshotPath(dir, 0) + snapTempInfix + "123456"
	other := filepath.Join(dir, "shard-000.snapshot-notes")
	for round := 0; round < 2; round++ {
		for _, f := range []string{stale, other} {
			if err := os.WriteFile(f, []byte("half a snapshot"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		p := startPool(t, cfg)
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Fatalf("round %d: stale temp file survived the restart: %v", round, err)
		}
		if _, err := os.Stat(other); err != nil {
			t.Fatalf("round %d: unrelated file swept: %v", round, err)
		}
		runStream(t, p, detJobs(uint64(round), 4)[:5])
		if err := p.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardStateBoundedByLiveWork: 20 000 jobs onto an idle network through
// one journaling shard. What the shard holds and writes must follow what is
// in flight (nothing), not what it has served.
func TestShardStateBoundedByLiveWork(t *testing.T) {
	const nodes, total, window, releaseThreshold = 8, 20_000, 1000, 32
	dir := t.TempDir()
	p := startPool(t, Config{
		Shards: 1, Nodes: nodes, Dir: dir, DegradeAfter: -1,
		Engine: EngineConfig{CoOptimize: true, NetworkScheduler: "varys"},
	})
	defer p.Kill()
	sh := p.shards[0]
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int64, nodes)
	for r := range rows {
		rows[r] = make([]int64, nodes)
	}
	snapBytes := func() int64 {
		t.Helper()
		if err := p.SnapshotAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(snapshotPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	var first, last time.Duration
	var sizeEarly int64
	for i := 0; i < total; i++ {
		for r := range rows {
			for k := range rows[r] {
				rows[r][k] = 1e6 + rng.Int63n(64e6)
			}
		}
		arrival := float64(i+1) * 1000
		t0 := time.Now()
		if _, err := p.Submit(context.Background(), JobSpec{Name: "j", Arrival: &arrival, Chunks: rows}); err != nil {
			t.Fatal(err)
		}
		switch el := time.Since(t0); {
		case i < window:
			first += el
		case i >= total-window:
			last += el
		}
		// Sampled at a stride coprime to the snapshot period. A state request
		// is answered by the run loop between jobs (after any periodic
		// snapshot), which orders the loop's writes before the read.
		if i%97 == 0 {
			poolStates(t, p)
			if r := sh.eng.ResidentCoflows(); r > 1+releaseThreshold+1 {
				t.Fatalf("after %d jobs: %d coflows resident with at most 1 in flight", i+1, r)
			}
		}
		if i+1 == 2*window {
			sizeEarly = snapBytes()
		}
	}
	perJob := float64(snapBytes()-sizeEarly) / float64(total-2*window)
	if perJob > 40 {
		t.Errorf("snapshot grows %.1f bytes per retired job, want a 32-byte tombstone (≤ 40)", perJob)
	}
	if fi, err := os.Stat(walPath(dir, 0)); err != nil || fi.Size() != 0 {
		t.Errorf("journal after a snapshot: %v, %d bytes", err, fi.Size())
	}
	// The counts above are the assertion; the clock is a coarse guard that
	// nothing else grew with history (the spec-history daemon's last
	// thousand cost 29 times its first).
	t.Logf("%.1f snapshot bytes per retired job; first %d submits %v, last %d submits %v (%.2f×)",
		perJob, window, first, window, last, float64(last)/float64(first))
	if last > 3*first {
		t.Errorf("the last %d submits took %v, the first %d took %v: per-job cost grew with jobs served", window, last, window, first)
	}
}
