package service

// TestKillRestartDeterminism is the acceptance test for the crash-safety
// contract: a daemon killed mid-trace and restarted from its state directory
// must produce byte-identical decisions for the rest of the trace, for any
// kill point. Run A processes a job stream uninterrupted; run B processes
// the same stream but is Kill()ed (no final snapshot — recovery comes from
// the periodic snapshots plus the WAL) partway through and restored into a
// fresh pool. Every decision both runs made for the same job must marshal to
// the same JSON, and the final engine digests must agree.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"ccf/internal/workload"
)

// detJobs builds a deterministic ~40-job stream for one seed: mixed
// generated and explicit-chunk jobs, mixed placers, a few degraded and
// explicit-arrival submissions, keys spread across shards.
func detJobs(seed uint64, nodes int) []JobSpec {
	placers := []string{"", "hash", "mini"}
	jobs := make([]JobSpec, 0, 40)
	for i := 0; i < 40; i++ {
		spec := JobSpec{
			Name:   fmt.Sprintf("s%d-job-%02d", seed, i),
			Key:    fmt.Sprintf("key-%d", (seed+uint64(i)*7)%13),
			Placer: placers[i%len(placers)],
		}
		if i%4 == 3 {
			spec.PlacementOnly = true
		}
		if i%5 == 2 {
			// Explicit arrival far ahead of any shard clock, so it is taken
			// as-is; the rest use the "now" path (arrival = shard clock).
			a := float64(i) * 10
			spec.Arrival = &a
		}
		if i%3 == 0 {
			rows := make([][]int64, nodes)
			for r := range rows {
				row := make([]int64, 2*nodes)
				for k := range row {
					row[k] = int64(1000 + (seed*31+uint64(i*r+k)*17)%5000)
				}
				rows[r] = row
			}
			spec.Chunks = rows
		} else {
			spec.Gen = &workload.Config{
				Nodes:          nodes,
				CustomerTuples: 40,
				OrderTuples:    400,
				PayloadBytes:   1000,
				Zipf:           0.8,
				Seed:           seed*100 + uint64(i),
				JitterFrac:     0.05,
			}
		}
		jobs = append(jobs, spec)
	}
	return jobs
}

// runStream submits jobs sequentially through a pool and returns each
// decision marshaled to JSON (sequential submission keeps the arrival
// resolution deterministic, which is what the byte-identity claim is about).
func runStream(t *testing.T, p *Pool, jobs []JobSpec) [][]byte {
	t.Helper()
	ctx := context.Background()
	out := make([][]byte, 0, len(jobs))
	for i, spec := range jobs {
		dec, err := p.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		b, err := json.Marshal(dec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func detConfig(dir string) Config {
	return Config{
		Shards:        3,
		Nodes:         4,
		QueueDepth:    8,
		Dir:           dir,
		SnapshotEvery: 8,
		DegradeAfter:  -1, // wall-clock queue wait must not affect determinism runs
		Engine:        EngineConfig{CoOptimize: true, NetworkScheduler: "varys"},
	}
}

func startPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return p
}

func poolStates(t *testing.T, p *Pool) []ShardState {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	states, err := p.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return states
}

func TestKillRestartDeterminism(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			jobs := detJobs(seed, 4)
			kill := 15 + int(seed)%15 // vary the kill point with the seed

			// Run A: uninterrupted reference.
			ref := startPool(t, detConfig(t.TempDir()))
			refDecs := runStream(t, ref, jobs)
			refStates := poolStates(t, ref)
			if err := ref.Drain(context.Background()); err != nil {
				t.Fatalf("reference drain: %v", err)
			}

			// Run B: kill after `kill` jobs, restart from the same state dir,
			// finish the stream.
			dir := t.TempDir()
			b1 := startPool(t, detConfig(dir))
			gotDecs := runStream(t, b1, jobs[:kill])
			b1.Kill() // no final snapshot; recovery is journal-only

			b2 := startPool(t, detConfig(dir))
			gotDecs = append(gotDecs, runStream(t, b2, jobs[kill:])...)
			gotStates := poolStates(t, b2)
			if err := b2.Drain(context.Background()); err != nil {
				t.Fatalf("restarted drain: %v", err)
			}

			for i := range refDecs {
				if string(refDecs[i]) != string(gotDecs[i]) {
					t.Fatalf("decision %d diverged after kill at %d:\nref: %s\ngot: %s",
						i, kill, refDecs[i], gotDecs[i])
				}
			}
			for i := range refStates {
				if refStates[i] != gotStates[i] {
					t.Fatalf("shard %d state diverged: ref %+v got %+v", i, refStates[i], gotStates[i])
				}
			}
		})
	}
}

// TestRestartResumesSeq pins that a restart continues the WAL sequence
// instead of renumbering: the first post-restart decision on a shard carries
// seq = (jobs already on that shard) + 1.
func TestRestartResumesSeq(t *testing.T) {
	dir := t.TempDir()
	cfg := detConfig(dir)
	cfg.Shards = 1
	p := startPool(t, cfg)
	jobs := detJobs(3, 4)[:10]
	runStream(t, p, jobs)
	p.Kill()

	p2 := startPool(t, cfg)
	dec, err := p2.Submit(context.Background(), jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if dec.Seq != 11 {
		t.Fatalf("post-restart seq = %d, want 11", dec.Seq)
	}
	if err := p2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRestartReplaysWhatIntakeNowRefuses pins that generator validation is an
// intake rule only: a journal written by a daemon from before the rule holds
// records it acknowledged, and a restart must replay every one of them (and
// keep doing so) even though the same spec submitted today is a 400.
func TestRestartReplaysWhatIntakeNowRefuses(t *testing.T) {
	dir := t.TempDir()
	cfg := detConfig(dir)
	cfg.Shards = 1
	w, err := openWAL(walPath(dir, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	old := badGenConfigs[1:] // the first one killed the daemon that took it
	for i := range old {
		gen := old[i]
		gen.Nodes = cfg.Nodes
		arrival := float64(i)
		if err := w.AppendBatch(uint64(i+1), []JobSpec{{Name: "old", Arrival: &arrival, Gen: &gen}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	p := startPool(t, cfg)
	if _, err := p.Submit(context.Background(), JobSpec{Name: "x", Gen: &old[0]}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("resubmitting a replayed spec: %v, want ErrBadJob", err)
	}
	// A NaN arrival cannot come over HTTP (JSON has none) but can through the
	// API; the engine refuses it and the shard answers ErrBadJob, unjournaled.
	nan := math.NaN()
	if _, err := p.Submit(context.Background(), JobSpec{Name: "x", Arrival: &nan, Gen: &workload.Config{}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("NaN arrival: %v, want ErrBadJob", err)
	}
	dec, err := p.Submit(context.Background(), genSpec("new", 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(old) + 1); dec.Seq != want {
		t.Fatalf("seq after replay = %d, want %d", dec.Seq, want)
	}
	before := poolStates(t, p)[0]
	p.Kill()

	// The post-restore snapshot compacted the old records into an image; a
	// second restart loads it and replays only the new record behind it.
	p2 := startPool(t, cfg)
	if after := poolStates(t, p2)[0]; after != before {
		t.Fatalf("second restart: state %+v, want %+v", after, before)
	}
	if err := p2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesMismatchedConfig pins ErrSnapshotMismatch: a state
// directory written under one engine identity must not silently replay into
// another (the decisions would differ).
func TestRestoreRefusesMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := detConfig(dir)
	cfg.Shards = 1
	p := startPool(t, cfg)
	runStream(t, p, detJobs(1, 4)[:10])
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Engine.NetworkScheduler = "fifo"
	p2, err := NewPool(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Start(context.Background()); err == nil {
		t.Fatal("start with mismatched engine config succeeded")
	}
}

// TestNewPoolRejectsBadBandwidth: a NaN bandwidth would be written into the
// snapshot and then never equal itself on restart, and an infinite one
// stalls the fabric, so NewPool refuses both, and a negative one, up front.
func TestNewPoolRejectsBadBandwidth(t *testing.T) {
	for _, bw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		cfg := detConfig(t.TempDir())
		cfg.Engine.Bandwidth = bw
		if _, err := NewPool(cfg); err == nil {
			t.Errorf("NewPool accepted Engine.Bandwidth %g", bw)
		}
	}
}
