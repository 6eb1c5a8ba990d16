// Package telemetry is the observability layer of the simulator: a
// netsim.Probe implementation that records (a) per-port utilization time
// series downsampled into a bounded ring, (b) per-coflow lifecycle events
// (arrival, first byte, preemption, failure hits, restarts, completion),
// and (c) a scheduler decision audit (priority-order snapshots captured via
// the optional coflow.Auditable interface).
//
// The recordings export as a Chrome trace-event file (loadable in Perfetto
// or chrome://tracing — one counter track per port, one duration track per
// coflow) and as JSONL metric lines, and reduce to derived summary metrics:
// peak/mean port utilization, per-coflow stretch (CCT over the coflow's
// isolated bandwidth-model lower bound), Jain's fairness index over CCTs,
// and queueing delay (first byte minus arrival).
//
// Overhead contract: telemetry is strictly opt-in. With Simulator.Probe nil
// the event loop takes one nil-check per hook site and nothing else — the
// disabled path stays bit-identical to internal/refsim and at 0 allocs/op
// (pinned by tests). With a Recorder attached, observation is read-only and
// never perturbs results (also pinned: enabled and disabled runs produce
// byte-identical reports); memory is bounded by the ring and event caps,
// with overflow counted, never silent.
package telemetry

import (
	"math"

	"ccf/internal/coflow"
)

// Config sets a Recorder's sampling. The zero value records one sample per
// scheduling epoch.
type Config struct {
	// Resolution is the target width, in simulated seconds, of one port
	// utilization sample. Zero (the default) records one sample per
	// scheduling epoch. In both modes the ring stays bounded: when it
	// fills, adjacent samples are merged pairwise (halving the effective
	// resolution), so the series always spans the whole run.
	Resolution float64
}

// The Recorder's memory bounds. Overflow is counted, never silent.
const (
	// MaxSamples bounds the utilization ring.
	MaxSamples = 2048
	// MaxEvents bounds the lifecycle event log. Overflow increments
	// Summary.TruncatedEvents instead of growing further.
	MaxEvents = 1 << 16
	// MaxAudits bounds the scheduler decision audit.
	MaxAudits = 4096
	// AuditDepth is how many leading coflow IDs one audit snapshot keeps.
	// Snapshots are recorded only when the visible prefix of the priority
	// order changes, not every epoch.
	AuditDepth = 8
)

// EventKind labels one coflow lifecycle event.
type EventKind uint8

const (
	// EvArrival: the coflow entered the active set.
	EvArrival EventKind = iota
	// EvFirstByte: the coflow first received a positive aggregate rate.
	EvFirstByte
	// EvPreempt: the coflow's aggregate rate dropped to zero while it was
	// still incomplete — the scheduler (or an outage) starved it.
	EvPreempt
	// EvResume: a previously preempted coflow received rate again.
	EvResume
	// EvFailureHit: a failure's down edge touched one of the coflow's
	// flows without voiding progress (RetransmitResume, or no progress).
	EvFailureHit
	// EvRestart: a failure voided one flow's progress; it re-sends from
	// byte zero.
	EvRestart
	// EvComplete: the coflow's last flow finished.
	EvComplete
)

// String names the kind for exports.
func (k EventKind) String() string {
	switch k {
	case EvArrival:
		return "arrival"
	case EvFirstByte:
		return "first-byte"
	case EvPreempt:
		return "preempt"
	case EvResume:
		return "resume"
	case EvFailureHit:
		return "failure-hit"
	case EvRestart:
		return "restart"
	case EvComplete:
		return "complete"
	}
	return "unknown"
}

// Event is one coflow lifecycle event.
type Event struct {
	T      float64
	Coflow int
	Kind   EventKind
}

// PortEvent is one failure edge on a port track.
type PortEvent struct {
	T    float64
	Port int
	Up   bool
}

// AuditSnap is one scheduler decision snapshot: the leading AuditDepth
// coflow IDs of the priority order at time T. A snapshot is recorded only
// when this prefix differs from the previous one.
type AuditSnap struct {
	T     float64
	Order []int
}

// UtilSample is one window of the per-port utilization series. The stored
// values are time-integrals over the window, so pairs of samples merge
// exactly when the ring downsamples.
type UtilSample struct {
	Start, Dur float64
	// egRate/inRate integrate the allocated per-port rate (bytes), and
	// egCap/inCap the effective per-port capacity (bytes), over the window.
	egRate, inRate []float64
	egCap, inCap   []float64
}

// EgressUtil returns the mean egress utilization of port p over the window,
// in [0,1] (0 when the port had no capacity, e.g. during an outage).
func (s *UtilSample) EgressUtil(p int) float64 {
	if s.egCap[p] <= 0 {
		return 0
	}
	return s.egRate[p] / s.egCap[p]
}

// IngressUtil is the ingress counterpart of EgressUtil.
func (s *UtilSample) IngressUtil(p int) float64 {
	if s.inCap[p] <= 0 {
		return 0
	}
	return s.inRate[p] / s.inCap[p]
}

// coflowTrack accumulates one coflow's lifecycle across the run.
type coflowTrack struct {
	id         int
	name       string
	arrival    float64 // admission time (dependency release included)
	firstByte  float64 // -1 until the first positive rate
	completion float64 // -1 until complete
	bytes      float64 // Σ flow sizes
	lower      float64 // isolated bandwidth-model CCT lower bound
	restarts   int
	preempts   int
	active     bool // had positive aggregate rate last epoch
	everActive bool
	admitted   bool
}

// Recorder implements netsim.Probe (asserted in the tests, which own the
// netsim dependency) and accumulates the telemetry of one run. A Recorder
// is single-run state: Begin/EndRun reset it, so reusing one across
// sequential runs records the last run. Not safe for concurrent use.
type Recorder struct {
	cfg   Config
	ports int
	res   float64 // current sample width (doubles on ring overflow)

	samples []UtilSample
	cur     *UtilSample // open accumulation window (grid mode)

	events     []Event
	portEvents []PortEvent
	audits     []AuditSnap
	aud        coflow.Auditable
	lastOrder  []int

	tracks  map[int]*coflowTrack
	ordered []*coflowTrack // input order, for deterministic export

	end          float64
	ran          bool
	truncEvents  int
	truncAudits  int
	epochs       int
	auditScratch []int
}

// NewRecorder builds a Recorder with the given configuration.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{cfg: cfg}
}

// BeginRun implements netsim.Probe: resets all state and precomputes each
// coflow's isolated bandwidth-model lower bound from the configured
// capacities (max over ports of the coflow's bytes through the port divided
// by the port's capacity).
func (r *Recorder) BeginRun(ports int, egCap, inCap []float64, coflows []*coflow.Coflow, sched coflow.Scheduler) {
	r.ports = ports
	r.res = r.cfg.Resolution
	r.samples = r.samples[:0]
	r.cur = nil
	r.events = r.events[:0]
	r.portEvents = r.portEvents[:0]
	r.audits = r.audits[:0]
	r.lastOrder = r.lastOrder[:0]
	r.end = 0
	r.ran = true
	r.truncEvents, r.truncAudits = 0, 0
	r.epochs = 0
	r.aud, _ = sched.(coflow.Auditable)

	r.tracks = make(map[int]*coflowTrack, len(coflows))
	r.ordered = r.ordered[:0]
	egLoad := make([]float64, ports)
	inLoad := make([]float64, ports)
	for _, c := range coflows {
		for p := range egLoad {
			egLoad[p], inLoad[p] = 0, 0
		}
		tr := &coflowTrack{
			id: c.ID, name: c.Name, arrival: c.Arrival,
			firstByte: -1, completion: -1,
		}
		for _, f := range c.Flows {
			tr.bytes += f.Size
			egLoad[f.Src] += f.Size
			inLoad[f.Dst] += f.Size
		}
		for p := 0; p < ports; p++ {
			if egCap[p] > 0 {
				if t := egLoad[p] / egCap[p]; t > tr.lower {
					tr.lower = t
				}
			}
			if inCap[p] > 0 {
				if t := inLoad[p] / inCap[p]; t > tr.lower {
					tr.lower = t
				}
			}
		}
		r.tracks[c.ID] = tr
		r.ordered = append(r.ordered, tr)
	}
}

// event appends a lifecycle event, honouring the bound.
func (r *Recorder) event(t float64, id int, kind EventKind) {
	if len(r.events) >= MaxEvents {
		r.truncEvents++
		return
	}
	r.events = append(r.events, Event{T: t, Coflow: id, Kind: kind})
}

// CoflowAdmitted implements netsim.Probe.
func (r *Recorder) CoflowAdmitted(now float64, c *coflow.Coflow) {
	tr := r.tracks[c.ID]
	if tr == nil || tr.admitted {
		return
	}
	tr.admitted = true
	tr.arrival = now
	r.event(now, c.ID, EvArrival)
}

// CoflowCompleted implements netsim.Probe.
func (r *Recorder) CoflowCompleted(now float64, c *coflow.Coflow) {
	tr := r.tracks[c.ID]
	if tr == nil || tr.completion >= 0 {
		return
	}
	tr.completion = now
	if tr.active {
		tr.active = false
	}
	r.event(now, c.ID, EvComplete)
}

// FailureEdge implements netsim.Probe.
func (r *Recorder) FailureEdge(now float64, port int, up bool) {
	r.portEvents = append(r.portEvents, PortEvent{T: now, Port: port, Up: up})
}

// FlowHit implements netsim.Probe.
func (r *Recorder) FlowHit(now float64, c *coflow.Coflow, _ *coflow.Flow, restarted bool) {
	kind := EvFailureHit
	if restarted {
		kind = EvRestart
		if tr := r.tracks[c.ID]; tr != nil {
			tr.restarts++
		}
	}
	r.event(now, c.ID, kind)
}

// EpochSample implements netsim.Probe: folds the epoch's per-port usage
// into the utilization ring, derives first-byte/preempt/resume edges from
// the coflows' aggregate rates, and snapshots the scheduler's priority
// order when it changed.
func (r *Recorder) EpochSample(now, dt float64, active []*coflow.Coflow, egUse, inUse, egCap, inCap []float64) {
	r.epochs++
	if dt > 0 {
		r.addWindow(now, dt, egUse, inUse, egCap, inCap)
	}

	// Lifecycle edges from aggregate rates. LiveFlows is borrowed storage;
	// it is only read within this call.
	for _, c := range active {
		tr := r.tracks[c.ID]
		if tr == nil {
			continue
		}
		rate := 0.0
		for _, f := range c.LiveFlows() {
			rate += f.Rate
		}
		switch {
		case rate > 0 && !tr.everActive:
			tr.everActive, tr.active = true, true
			tr.firstByte = now
			r.event(now, c.ID, EvFirstByte)
		case rate > 0 && !tr.active:
			tr.active = true
			r.event(now, c.ID, EvResume)
		case rate == 0 && tr.active:
			tr.active = false
			tr.preempts++
			r.event(now, c.ID, EvPreempt)
		}
	}

	// Decision audit: record the leading AuditDepth IDs when they change.
	if r.aud != nil {
		order := r.aud.PriorityOrder()
		depth := min(AuditDepth, len(order))
		ids := r.auditScratch[:0]
		for _, c := range order[:depth] {
			ids = append(ids, c.ID)
		}
		r.auditScratch = ids
		if !intsEqual(ids, r.lastOrder) {
			r.lastOrder = append(r.lastOrder[:0], ids...)
			if len(r.audits) >= MaxAudits {
				r.truncAudits++
			} else {
				r.audits = append(r.audits, AuditSnap{T: now, Order: append([]int(nil), ids...)})
			}
		}
	}
}

// EndRun implements netsim.Probe.
func (r *Recorder) EndRun(now float64) {
	r.flushCur()
	r.end = now
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Utilization ring.
// ---------------------------------------------------------------------------

// addWindow folds one epoch interval [now, now+dt) at the given per-port
// rates into the series: either as one sample per epoch (Resolution 0) or
// split across fixed-width grid buckets.
func (r *Recorder) addWindow(now, dt float64, egUse, inUse, egCap, inCap []float64) {
	if r.res <= 0 {
		s := r.newSample(now, dt)
		accumulate(s, dt, egUse, inUse, egCap, inCap)
		r.push(*s)
		return
	}
	t, rem := now, dt
	for rem > 1e-15 {
		if r.cur != nil && t >= r.cur.Start+r.res-1e-15 {
			r.flushCur()
		}
		if r.cur == nil {
			start := math.Floor(t/r.res) * r.res
			r.cur = r.newSample(start, r.res)
		}
		seg := r.cur.Start + r.res - t
		if seg > rem {
			seg = rem
		}
		accumulate(r.cur, seg, egUse, inUse, egCap, inCap)
		t += seg
		rem -= seg
	}
}

func (r *Recorder) newSample(start, dur float64) *UtilSample {
	return &UtilSample{
		Start: start, Dur: dur,
		egRate: make([]float64, r.ports), inRate: make([]float64, r.ports),
		egCap: make([]float64, r.ports), inCap: make([]float64, r.ports),
	}
}

// accumulate adds seg seconds at the given rates and capacities. The float64
// conversions round each product, so no architecture fuses it into the sum.
func accumulate(s *UtilSample, seg float64, egUse, inUse, egCap, inCap []float64) {
	for p := range s.egRate {
		s.egRate[p] += float64(egUse[p] * seg)
		s.inRate[p] += float64(inUse[p] * seg)
		s.egCap[p] += float64(egCap[p] * seg)
		s.inCap[p] += float64(inCap[p] * seg)
	}
}

func (r *Recorder) flushCur() {
	if r.cur == nil {
		return
	}
	s := *r.cur
	r.cur = nil
	r.push(s)
}

// push appends a finished sample, pair-merging the ring when it is full so
// the series keeps spanning the whole run at half the resolution.
func (r *Recorder) push(s UtilSample) {
	if len(r.samples) >= MaxSamples {
		r.mergePairs()
	}
	r.samples = append(r.samples, s)
}

func (r *Recorder) mergePairs() {
	w := 0
	for i := 0; i < len(r.samples); i += 2 {
		a := r.samples[i]
		if i+1 < len(r.samples) {
			b := r.samples[i+1]
			for p := range a.egRate {
				a.egRate[p] += b.egRate[p]
				a.inRate[p] += b.inRate[p]
				a.egCap[p] += b.egCap[p]
				a.inCap[p] += b.inCap[p]
			}
			a.Dur = b.Start + b.Dur - a.Start
		}
		r.samples[w] = a
		w++
	}
	r.samples = r.samples[:w]
	if r.res > 0 {
		r.res *= 2
	}
}

// Samples returns the recorded utilization windows in time order. The
// slice and its contents are owned by the Recorder.
func (r *Recorder) Samples() []UtilSample { return r.samples }

// Events returns the lifecycle event log in time order.
func (r *Recorder) Events() []Event { return r.events }

// PortEvents returns the failure edges in time order.
func (r *Recorder) PortEvents() []PortEvent { return r.portEvents }

// Audits returns the recorded scheduler decision snapshots in time order.
func (r *Recorder) Audits() []AuditSnap { return r.audits }
