package main

// replay_trace: core.ReplayStream over a Facebook-like coflow trace at ×100
// density, Varys, event-horizon loop, completed coflows released. No service
// and no placement: only the sparse netsim loop, the sparse allocator and the
// trace generator. An op is one coflow.

import (
	"bytes"
	"math/rand"
	"time"

	"ccf/internal/coflow"
	"ccf/internal/core"
	"ccf/internal/fbtrace"
	"ccf/internal/netsim"
	"ccf/internal/trace"
)

// replayConfig sizes the workload. The trace itself is one fixed instance
// (fbtrace flow sizes are Pareto with α = 1.1: a fresh trace per seed would
// move every metric by tens of percent); the seed relabels the machines and
// jitters every flow size by up to ±1 %, so inputs differ per seed and the
// load they offer does not.
type replayConfig struct {
	machines int
	coflows  int // before density
	density  float64
}

func replayTrace() replayConfig {
	return replayConfig{machines: 64, coflows: 12, density: 100}
}

const replayBaseSeed = 42

func (c replayConfig) fb() fbtrace.Config {
	return fbtrace.Config{
		Machines: c.machines, Coflows: c.coflows, MeanInterarrivalSec: 1,
		Seed: replayBaseSeed, Density: c.density,
	}
}

type replayWorkload struct {
	cfg  replayConfig
	seed uint64
}

func newReplay(cfg replayConfig) *replayWorkload { return &replayWorkload{cfg: cfg} }

func (w *replayWorkload) tracks() []string { return []string{"replay"} }

func (w *replayWorkload) prepare(seed uint64) error {
	w.seed = seed
	return nil
}

// seededSource is the harness's CoflowSource around the streamer. It applies
// the seed (relabel, jitter) and takes the timestamps that split a replay
// into ops: time inside the streamer's Next is fbtrace's, time between two
// Next calls is the engine's advance + admit for the coflow just handed over,
// and the perturbation itself is charged to neither.
type seededSource struct {
	st     *fbtrace.Streamer
	perm   []int
	rng    *rand.Rand
	inNext time.Duration
	lat    []float64 // engine seconds per coflow
	out    time.Time // when the previous Next returned
}

func (w *replayWorkload) source() (*seededSource, error) {
	st, err := fbtrace.Stream(w.cfg.fb())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(w.seed)))
	return &seededSource{st: st, perm: rng.Perm(w.cfg.machines), rng: rng, lat: make([]float64, 0, st.Total())}, nil
}

// perturb applies the seed to one coflow before the engine sees it.
func (s *seededSource) perturb(c *coflow.Coflow) {
	for _, f := range c.Flows {
		f.Src, f.Dst = s.perm[f.Src], s.perm[f.Dst]
		f.Size *= 1 + 0.01*(2*s.rng.Float64()-1)
		f.Remaining = f.Size
	}
}

func (s *seededSource) Next() (*coflow.Coflow, bool) {
	in := time.Now()
	if !s.out.IsZero() {
		s.lat = append(s.lat, in.Sub(s.out).Seconds())
	}
	c, ok := s.st.Next()
	s.inNext += time.Since(in)
	if ok {
		s.perturb(c)
	}
	s.out = time.Now()
	return c, ok
}

// loadTrace is the set-up a ccfsim user pays to replay a trace file:
// generate, convert to the CoflowSim format, write, parse, build coflows.
func (w *replayWorkload) loadTrace() (coflows int, parse time.Duration, err error) {
	cfs, err := fbtrace.Generate(w.cfg.fb())
	if err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, fbtrace.ToTrace(w.cfg.machines, cfs)); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	tr, err := trace.Parse(&buf)
	if err != nil {
		return 0, 0, err
	}
	parse = time.Since(t0)
	return len(tr.Coflows()), parse, nil
}

func (w *replayWorkload) round(tr *tracer) (*roundResult, error) {
	res := &roundResult{extra: map[string]float64{}}
	t0 := time.Now()
	loaded, parse, err := w.loadTrace()
	if err != nil {
		return nil, err
	}
	res.setupS = time.Since(t0).Seconds()
	res.extra["parse_ms"] = float64(parse.Microseconds()) / 1e3

	src, err := w.source()
	if err != nil {
		return nil, err
	}
	var rep *core.ReplayReport
	begin := time.Now()
	if tr == nil {
		rep, err = core.ReplayStream(w.cfg.machines, src, core.ReplayOptions{
			Scheduler: coflow.NewVarys(), EventHorizon: true, ReleaseCompleted: true})
	} else {
		rep, err = w.walk(src, tr.tracks[0], res)
	}
	if err != nil {
		return nil, err
	}
	res.wallS = time.Since(begin).Seconds()
	res.clients = [][]float64{src.lat}
	res.extra["next_us_per_coflow"] = float64(src.inNext.Microseconds()) / float64(rep.Coflows)
	res.simCCT = rep.AvgCCT
	if rep.Coflows != src.st.Total() {
		res.failed = src.st.Total() - rep.Coflows
	}

	dg := newResultDigest()
	dg.i64(int64(loaded))
	dg.i64(int64(rep.Coflows))
	dg.i64(int64(rep.Epochs))
	dg.i64(int64(rep.PeakResident))
	for _, v := range []float64{rep.AvgCCT, rep.WeightedAvgCCT, rep.MaxCCT, rep.Makespan, rep.TotalBytes} {
		dg.f64(v)
	}
	res.digest = dg.sum()
	return res, nil
}

// timedScheduler is the timing decorator around a coflow scheduler: it
// forwards everything (including the sparse-allocation contract the
// event-horizon loop needs) and counts and times Allocate.
type timedScheduler struct {
	coflow.SparseAllocator
	calls int
	busy  time.Duration
}

func newTimedScheduler(s coflow.Scheduler) *timedScheduler {
	return &timedScheduler{SparseAllocator: s.(coflow.SparseAllocator)}
}

func (t *timedScheduler) Allocate(now float64, active []*coflow.Coflow, egCap, inCap []float64) {
	t0 := time.Now()
	t.SparseAllocator.Allocate(now, active, egCap, inCap)
	t.busy += time.Since(t0)
	t.calls++
}

// walk is the traced replay: the loop of core.ReplayStream composed from the
// same public netsim calls, with a span around each and the timing decorator
// around the scheduler. Its report must equal ReplayStream's, which the
// round digest checks.
func (w *replayWorkload) walk(src *seededSource, tk *track, res *roundResult) (*core.ReplayReport, error) {
	fabric, err := netsim.NewFabric(w.cfg.machines, 0)
	if err != nil {
		return nil, err
	}
	ts := newTimedScheduler(coflow.NewVarys())
	sim := netsim.NewSimulator(fabric, ts)
	sim.EventHorizon, sim.ReleaseCompleted = true, true
	ses, err := sim.Session()
	if err != nil {
		return nil, err
	}
	out := &core.ReplayReport{}
	live := 0
	for {
		t0 := time.Now()
		c, ok := src.Next()
		if !ok {
			break
		}
		t1 := time.Now()
		if err := ses.Advance(c.Arrival); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if err := ses.Admit(c); err != nil {
			return nil, err
		}
		t3 := time.Now()
		tk.span("fbtrace.next", "replay.op", c.Name, t0, t1.Sub(t0))
		tk.span("netsim.advance", "replay.op", c.Name, t1, t2.Sub(t1))
		tk.span("netsim.admit", "replay.op", c.Name, t2, t3.Sub(t2))
		tk.span("replay.op", "", c.Name, t0, t3.Sub(t0))
		out.Coflows++
		out.PeakResident = max(out.PeakResident, ses.AdmittedCount())
		live += ses.AdmittedCount()
	}
	t0 := time.Now()
	rep, err := ses.Finish()
	if err != nil {
		return nil, err
	}
	tk.span("netsim.finish", "", "tail", t0, time.Since(t0))
	out.AvgCCT, out.WeightedAvgCCT, out.MaxCCT = rep.AvgCCT, rep.WeightedAvgCCT, rep.MaxCCT
	out.Makespan, out.TotalBytes, out.Epochs = rep.Makespan, rep.TotalBytes, rep.Epochs
	res.extra["allocate_calls"] = float64(ts.calls)
	res.extra["allocate_us"] = float64(ts.busy.Microseconds())
	res.extra["epochs"] = float64(rep.Epochs)
	res.extra["live_coflows_mean"] = float64(live) / float64(max(1, out.Coflows))
	return out, nil
}
