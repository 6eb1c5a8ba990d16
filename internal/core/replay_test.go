package core

// ReplayStream must be a pure re-packaging of the batch path: pulling the
// fbtrace stream through one live session — with sparse allocation and
// completed-coflow release on — yields the exact report a plain RunInto over
// the fully materialised trace produces. fbtrace assigns IDs in arrival
// order, so ID-order aggregation (the released path) is input-order
// aggregation and even the averaged fields match bit for bit.

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"ccf/internal/coflow"
	"ccf/internal/fbtrace"
	"ccf/internal/netsim"
)

func replaySchedulers() map[string]func() coflow.Scheduler {
	return map[string]func() coflow.Scheduler{
		"varys": coflow.NewVarys,
		"aalo":  func() coflow.Scheduler { return coflow.NewAalo() },
		"fifo":  coflow.NewFIFO,
	}
}

func TestReplayStreamMatchesBatch(t *testing.T) {
	for name, mk := range replaySchedulers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			for seed := uint64(0); seed < 8; seed++ {
				cfg := fbtrace.Config{
					Machines: 10, Coflows: 60,
					MeanInterarrivalSec: 0.2, Seed: seed,
				}
				if seed >= 4 {
					// A short trace densified ×50: 200 coflows arriving fifty
					// times as fast, so dozens are live at once.
					cfg.Coflows, cfg.MeanInterarrivalSec, cfg.Density = 4, 1, 50
				}
				cfs, err := fbtrace.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fab, err := netsim.NewFabric(cfg.Machines, 0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := netsim.NewSimulator(fab, mk()).Run(cfs)
				if err != nil {
					t.Fatal(err)
				}

				st, err := fbtrace.Stream(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ReplayStream(cfg.Machines, st, ReplayOptions{
					Scheduler:        mk(),
					EventHorizon:     true,
					ReleaseCompleted: true,
				})
				if err != nil {
					t.Fatal(err)
				}

				if got.Coflows != len(cfs) {
					t.Errorf("seed %d: replayed %d coflows, want %d", seed, got.Coflows, len(cfs))
				}
				if got.Makespan != want.Makespan {
					t.Errorf("seed %d: Makespan %v != %v", seed, got.Makespan, want.Makespan)
				}
				if got.AvgCCT != want.AvgCCT {
					t.Errorf("seed %d: AvgCCT %v != %v", seed, got.AvgCCT, want.AvgCCT)
				}
				if got.WeightedAvgCCT != want.WeightedAvgCCT {
					t.Errorf("seed %d: WeightedAvgCCT %v != %v", seed, got.WeightedAvgCCT, want.WeightedAvgCCT)
				}
				if got.MaxCCT != want.MaxCCT {
					t.Errorf("seed %d: MaxCCT %v != %v", seed, got.MaxCCT, want.MaxCCT)
				}
				if got.TotalBytes != want.TotalBytes {
					t.Errorf("seed %d: TotalBytes %v != %v", seed, got.TotalBytes, want.TotalBytes)
				}
				if got.Epochs != want.Epochs {
					t.Errorf("seed %d: Epochs %d != %d", seed, got.Epochs, want.Epochs)
				}
			}
		})
	}
}

// TestReplayStreamBoundsResidency pins the memory story: with release on,
// the session's high-water mark tracks trace *concurrency*, not length —
// a long sparse trace must never hold every coflow at once.
func TestReplayStreamBoundsResidency(t *testing.T) {
	for name, cfg := range map[string]fbtrace.Config{
		"sparse": {Machines: 12, Coflows: 400, MeanInterarrivalSec: 2, Seed: 5},
		// The same arrival rate reached by densifying a 4-coflow trace
		// ×1000: ten times the coflows, all replayed, as few resident.
		"x1000": {Machines: 12, Coflows: 4, MeanInterarrivalSec: 2000, Seed: 5, Density: 1000},
	} {
		st, err := fbtrace.Stream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := st.Total()
		rep, err := ReplayStream(cfg.Machines, st, ReplayOptions{
			Scheduler:        coflow.NewVarys(),
			EventHorizon:     true,
			ReleaseCompleted: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Coflows != total || rep.PeakResident >= total/2 {
			t.Errorf("%s: replayed %d of %d coflows at peak residency %d: release never bounded memory",
				name, rep.Coflows, total, rep.PeakResident)
		}
	}
}

func TestReplayStreamValidation(t *testing.T) {
	if _, err := ReplayStream(4, nil, ReplayOptions{}); err == nil {
		t.Error("accepted nil source")
	}
	if _, err := ReplayStream(0, &sliceSource{}, ReplayOptions{}); err == nil {
		t.Error("accepted 0-port fabric")
	}
	src := &sliceSource{cfs: []*coflow.Coflow{
		coflow.New(0, "a", 5, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 10}}),
		coflow.New(1, "b", 3, []coflow.Flow{{ID: 0, Src: 1, Dst: 0, Size: 10}}),
	}}
	if _, err := ReplayStream(2, src, ReplayOptions{}); err == nil {
		t.Error("accepted regressing arrivals")
	}
	// A NaN arrival used to spin the session to its epoch limit and +Inf to
	// fail as a dependency cycle; both are refused on sight.
	for _, tc := range []struct {
		arrival float64
		want    string
	}{{math.NaN(), "Advance(NaN)"}, {math.Inf(1), "non-finite arrival"}} {
		src := &sliceSource{cfs: []*coflow.Coflow{coflow.New(0, "a", tc.arrival, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 10}})}}
		if _, err := ReplayStream(2, src, ReplayOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("arrival %g: %v, want an error naming %q", tc.arrival, err, tc.want)
		}
	}
}

type sliceSource struct {
	cfs []*coflow.Coflow
	i   int
}

func (s *sliceSource) Next() (*coflow.Coflow, bool) {
	if s.i >= len(s.cfs) {
		return nil, false
	}
	c := s.cfs[s.i]
	s.i++
	return c, true
}

// BenchmarkReplayStream replays the streamed trace of the replay_trace
// benchmark workload (64 machines, 12 coflows densified ×100, Varys, the
// event-horizon loop, completed coflows released) through ReplayStream; one
// op is one full replay, its B/op and allocs/op the replay's allocation,
// generator included.
func BenchmarkReplayStream(b *testing.B) {
	cfg := fbtrace.Config{Machines: 64, Coflows: 12, MeanInterarrivalSec: 1, Seed: 42, Density: 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := fbtrace.Stream(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ReplayStream(cfg.Machines, st, ReplayOptions{
			Scheduler: coflow.NewVarys(), EventHorizon: true, ReleaseCompleted: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// timedSource hands out pre-drawn coflows and records the engine's time per
// coflow: from one Next's return to the next call, the advance and admit of
// the coflow just handed over (the replay_trace benchmark's op).
type timedSource struct {
	sliceSource
	lat []float64 // µs per coflow
	out time.Time // when the previous Next returned
}

func (s *timedSource) Next() (*coflow.Coflow, bool) {
	if !s.out.IsZero() {
		s.lat = append(s.lat, float64(time.Since(s.out).Nanoseconds())/1e3)
	}
	c, ok := s.sliceSource.Next()
	s.out = time.Now()
	return c, ok
}

// BenchmarkReplayEngine replays BenchmarkReplayStream's trace drawn by
// fbtrace.Generate before the timer, so the op is the engine alone — no
// producer on another core. It reports the engine's per-coflow time, p50 and
// p90 over every coflow of every op, in µs.
func BenchmarkReplayEngine(b *testing.B) {
	cfg := fbtrace.Config{Machines: 64, Coflows: 12, MeanInterarrivalSec: 1, Seed: 42, Density: 100}
	var lat []float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfs, err := fbtrace.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		src := &timedSource{sliceSource: sliceSource{cfs: cfs}, lat: lat}
		b.StartTimer()
		if _, err := ReplayStream(cfg.Machines, src, ReplayOptions{
			Scheduler: coflow.NewVarys(), EventHorizon: true, ReleaseCompleted: true}); err != nil {
			b.Fatal(err)
		}
		lat = src.lat
	}
	slices.Sort(lat)
	b.ReportMetric(lat[len(lat)/2], "p50-us/coflow")
	b.ReportMetric(lat[len(lat)*9/10], "p90-us/coflow")
}
