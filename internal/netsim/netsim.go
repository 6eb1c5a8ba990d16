// Package netsim is the network substrate of the reproduction: a flow-level,
// event-driven simulator over the non-blocking switch abstraction used by
// Varys, Aalo and the paper — n machines, each with one ingress and one
// egress port of equal capacity, bandwidth contention only at ports, and a
// full-bisection core that never blocks.
//
// This replaces the CoflowSim back-end of the paper's evaluation. Time
// advances in fluid epochs: a coflow scheduler assigns per-flow rates, the
// engine jumps to the next flow completion or coflow arrival, transfers the
// bytes, and repeats. For a single coflow under MADD allocation the result
// equals the closed-form bandwidth model of the paper (CCT = max port load /
// port bandwidth), which is verified by tests.
package netsim

import (
	"errors"
	"fmt"
	"math"

	"ccf/internal/coflow"
)

// DefaultPortBandwidth is 128 MB/s per port, CoflowSim's default link speed
// (1 Gbps ≈ 125 MB/s rounded to CoflowSim's power-of-two constant).
const DefaultPortBandwidth = 128e6

// Fabric describes the non-blocking switch: every machine gets one ingress
// and one egress port. The paper's base model gives all ports the same
// normalized capacity; the heterogeneous constructor realises the R_l
// generalization of constraint (1.5) — per-link capacities.
type Fabric struct {
	Ports int
	// EgressCap and InCap are per-port capacities in bytes/sec.
	EgressCap  []float64
	IngressCap []float64
	// maxCap caches the largest port capacity for tolerance checks.
	maxCap float64
}

// NewFabric builds a uniform fabric with the CoflowSim default bandwidth
// when bw <= 0. A NaN or infinite bw is an error.
func NewFabric(ports int, bw float64) (Fabric, error) {
	if ports <= 0 {
		return Fabric{}, fmt.Errorf("netsim: ports must be positive, got %d", ports)
	}
	if math.IsNaN(bw) || math.IsInf(bw, 0) {
		return Fabric{}, fmt.Errorf("netsim: bandwidth must be finite, got %g", bw)
	}
	if bw <= 0 {
		bw = DefaultPortBandwidth
	}
	eg := make([]float64, ports)
	in := make([]float64, ports)
	for i := range eg {
		eg[i], in[i] = bw, bw
	}
	return Fabric{Ports: ports, EgressCap: eg, IngressCap: in, maxCap: bw}, nil
}

// NewHeterogeneousFabric builds a fabric with per-port capacities — the
// paper's "extended to complex network conditions by adding parameters to
// these two constraints" (§III.A footnote 4). Both slices must have the same
// positive length and positive finite entries.
func NewHeterogeneousFabric(egress, ingress []float64) (Fabric, error) {
	if len(egress) == 0 || len(egress) != len(ingress) {
		return Fabric{}, fmt.Errorf("netsim: capacity slices sized %d/%d; want equal and non-empty",
			len(egress), len(ingress))
	}
	f := Fabric{
		Ports:      len(egress),
		EgressCap:  append([]float64(nil), egress...),
		IngressCap: append([]float64(nil), ingress...),
	}
	for p := 0; p < f.Ports; p++ {
		if badCap(egress[p]) || badCap(ingress[p]) {
			return Fabric{}, fmt.Errorf("netsim: port %d capacity is not positive and finite (eg=%g in=%g)",
				p, egress[p], ingress[p])
		}
		if egress[p] > f.maxCap {
			f.maxCap = egress[p]
		}
		if ingress[p] > f.maxCap {
			f.maxCap = ingress[p]
		}
	}
	return f, nil
}

// badCap reports a capacity that is not a positive finite number.
func badCap(c float64) bool { return !(c > 0) || math.IsInf(c, 1) }

// Report summarises one simulation run.
type Report struct {
	// Makespan is the finish time of the last flow (seconds).
	Makespan float64
	// CCTs maps coflow ID to its completion time (seconds from arrival).
	CCTs map[int]float64
	// AvgCCT and MaxCCT aggregate over coflows.
	AvgCCT float64
	MaxCCT float64
	// WeightedAvgCCT equals AvgCCT: every coflow weighs 1; kept until bench/
	// stops reading it.
	WeightedAvgCCT float64
	// TotalBytes moved across the network, including bytes whose progress
	// a failure later voided — the wire traffic. For a run that finishes,
	// TotalBytes = Σ flow sizes + WastedBytes (byte conservation).
	TotalBytes float64
	// Epochs counts scheduler invocations (simulation cost metric).
	Epochs int
	// WastedBytes is the transfer progress voided by port failures (zero
	// in fault-free runs and under RetransmitResume).
	WastedBytes float64
	// Restarts maps coflow ID to the number of flow restarts failures
	// forced on it. Nil until a failure actually voids progress.
	Restarts map[int]int
	// Failures holds one outcome per configured PortFailure, in input
	// order. Empty when the simulator has no failures scheduled.
	Failures []FailureOutcome
}

// ErrStalled is returned when active flows exist but the scheduler assigns
// zero aggregate rate and no future arrival can unblock them — a
// non-work-conserving scheduler bug.
var ErrStalled = errors.New("netsim: simulation stalled with pending flows")

// completionEps treats a flow as finished when fewer than this many bytes
// remain, absorbing float rounding across epochs.
const completionEps = 1e-6

// Simulator runs a set of coflows over a fabric under a scheduler.
type Simulator struct {
	fabric Fabric
	sched  coflow.Scheduler
	// MaxEpochs bounds the event-loop iterations of one Run, Advance or
	// Finish (default 10 million) so scheduler bugs surface as errors
	// instead of livelocks.
	MaxEpochs int
	// Horizon, when >= 0, stops the simulation at that time instead of
	// running to completion; flow state (Remaining, Done) is left at the
	// horizon so callers can inspect the in-flight backlog. NewSimulator
	// initialises it to NoHorizon (-1), which runs to completion. A zero
	// horizon is a real stop-at-t=0: earlier revisions treated 0 as "no
	// horizon", which made a backlog probe for an arrival at t=0 silently
	// simulate to completion and report an empty network. Resumable
	// sessions (see Session) supersede horizon-limited runs for the online
	// co-optimizer; Horizon remains for one-shot what-if runs.
	Horizon float64
	// Events injects capacity changes (degradations, repairs) at given
	// times — the failure-injection hook. Events and the edges of Failures
	// apply as one time-sorted schedule (same-instant edges in input order,
	// events before failures); the event loop never steps across an edge.
	// A NaN time is an error, and so is a factor that leaves a port's
	// capacity negative, NaN or infinite.
	Events []CapacityEvent
	// Deps declares coflow dependencies by ID: a coflow becomes eligible
	// only once all listed predecessor coflows have completed (and its own
	// Arrival has passed). This models multi-stage analytical jobs — each
	// stage's shuffle coflow releases when the previous stage finishes.
	// Cycles and unknown IDs are reported as errors.
	Deps map[int][]int
	// Failures schedules port outages (capacity → 0 over an interval, or
	// forever). Unlike Events, a failure can void completed work per the
	// Retransmit policy; see PortFailure. When empty, the failure
	// machinery is entirely inert and the run is bit-identical to the
	// fault-free engine.
	Failures []PortFailure
	// Retransmit selects what a failure does to bytes already carried
	// through the failed port (default RetransmitRestart).
	Retransmit RetransmitPolicy
	// Probe, when non-nil, observes the run (see Probe). The nil default is
	// the fast path: no allocations, no extra float operations, bit-identical
	// to internal/refsim. A non-nil probe must never mutate simulator state;
	// the telemetry equivalence test pins that observing does not perturb.
	Probe Probe
	// EventHorizon restricts the event loop's flow passes to the coflows the
	// scheduler granted rates, for schedulers implementing
	// coflow.SparseAllocator (it does nothing for the others); off, the
	// passes visit every live flow. The allocator is the same either way —
	// it re-keys only the coflows that moved and skips blocked ones — so
	// with the flag on an epoch costs what changed rather than everything
	// active. Results are bit-identical either way (pinned by the horizon
	// equivalence suite and the failure golden), with Deps and Failures
	// included. See DESIGN.md §16.
	EventHorizon bool
	// ReleaseCompleted lets a session reduce completed coflows to four-word
	// tombstones (release.go) so a long-lived stream runs in memory bounded
	// by what is in flight: BacklogInto and Digest read the same either way,
	// AdmittedCount counts the coflows still held, and the CCT aggregates are
	// summed in coflow-ID order (per-coflow results stay in Report.CCTs).
	// Incompatible with Failures (recovery accounting needs the full coflow
	// population at the end of the run) and with negative flow sizes.
	ReleaseCompleted bool

	// scratch holds the per-run buffers so repeated Runs (parameter sweeps,
	// benchmarks) reuse storage instead of reallocating it. Simulators are
	// therefore not safe for concurrent Runs.
	scratch runScratch
	// ses is the simulator's single resumable session (see Session); Run and
	// RunInto drive it to completion in one call, Simulator.Session hands it
	// to the caller. Embedded so steady-state reuse allocates nothing.
	ses Session
}

// NoHorizon disables the simulation horizon (the NewSimulator default):
// runs proceed until every admitted coflow completes.
const NoHorizon = -1

// runScratch is the simulator's reusable per-run storage. Sized on first use
// and only ever grown; the event loop itself allocates nothing at steady
// state (the per-run CCT map entries are the one unavoidable exception, and
// RunInto lets callers recycle even those). The queue and active lists live on
// the Session, which is equally reused.
type runScratch struct {
	edges        []edge // the fabric schedule, sorted by time
	egFac, inFac []float64
	downCnt      []int // per-port count of outages covering now
	// egEff/inEff are the effective per-port capacities setPort keeps;
	// egCap/inCap are each epoch's copy of them, which Allocate may consume.
	egEff, inEff []float64
	egCap, inCap []float64
	egUse, inUse []float64 // fused rate-check accumulators
	completed    map[int]bool
	known        map[int]bool
}

// edge is one entry of the fabric schedule: a capacity event (fail < 0,
// carrying its factors) or the down or up edge of Simulator.Failures[fail].
// Simulator.Events and Simulator.Failures stay separate inputs because only a
// failure voids work and has an outcome; the loop walks both as one list.
type edge struct {
	time         float64
	port         int
	egFac, inFac float64
	up           bool
	fail         int
}

// setPort recomputes port p's effective capacities after an edge moved its
// factors or its outage count: configured × factor, or 0 while an outage
// covers the port.
func (sc *runScratch) setPort(f *Fabric, p int) {
	if sc.downCnt[p] > 0 {
		sc.egEff[p], sc.inEff[p] = 0, 0
		return
	}
	sc.egEff[p] = f.EgressCap[p] * sc.egFac[p]
	sc.inEff[p] = f.IngressCap[p] * sc.inFac[p]
}

// CapacityEvent rescales one port's capacities at a point in time. Factors
// multiply the port's *configured* capacity (not the current one), so a
// degradation (factor 0.5) followed by a repair (factor 1) is exact.
// A zero factor parks the port entirely; flows through it simply wait.
type CapacityEvent struct {
	Time          float64
	Port          int
	EgressFactor  float64
	IngressFactor float64
}

// NewSimulator wires a fabric and a scheduler.
func NewSimulator(f Fabric, s coflow.Scheduler) *Simulator {
	return &Simulator{fabric: f, sched: s, MaxEpochs: 10_000_000, Horizon: NoHorizon}
}

// Run simulates the given coflows to completion and fills in per-flow
// EndTime, per-coflow Completion, and the aggregate report. Coflows may
// arrive at different times; flows within a coflow start at its arrival.
// A coflow Session.Admit would refuse (a negative or -0 flow size, say)
// fails the whole run before any flow state is touched.
func (s *Simulator) Run(coflows []*coflow.Coflow) (*Report, error) {
	rep := &Report{}
	if err := s.RunInto(coflows, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// RunInto is Run with caller-owned Report storage: rep is reset (its CCTs
// map is cleared and reused) and filled in place, so steady-state repeat
// runs — benchmark loops, parameter sweeps — don't allocate a report per
// run. Internally it is one complete session (see Session): begin, admit
// every coflow, drive the event loop to the end, aggregate. The event loop
// itself lives in session.go; splitting run setup from the loop is what
// makes runs resumable, and a straight-through run is the degenerate session
// with a single Advance to +Inf.
func (s *Simulator) RunInto(coflows []*coflow.Coflow, rep *Report) error {
	ss := &s.ses
	if err := ss.begin(s, rep); err != nil {
		return err
	}
	if err := ss.admitBatch(coflows); err != nil {
		return err
	}
	// Dependency references are validated up front — unlike a streaming
	// session, the full coflow population is known before time starts.
	sc := &s.scratch
	if len(s.Deps) > 0 {
		if sc.known == nil {
			sc.known = make(map[int]bool, len(coflows))
		} else {
			clear(sc.known)
		}
		known := sc.known
		for _, c := range coflows {
			known[c.ID] = true
		}
		for id, deps := range s.Deps {
			if !known[id] {
				return fmt.Errorf("netsim: dependency declared for unknown coflow %d", id)
			}
			for _, dep := range deps {
				if !known[dep] {
					return fmt.Errorf("netsim: coflow %d depends on unknown coflow %d", id, dep)
				}
				if dep == id {
					return fmt.Errorf("netsim: coflow %d depends on itself", id)
				}
			}
		}
	}
	if s.Probe != nil {
		s.Probe.BeginRun(s.fabric.Ports, s.fabric.EgressCap, s.fabric.IngressCap, coflows, s.sched)
	}
	if len(ss.pending) > 0 {
		ss.now = ss.pending[0].Arrival
	}
	if err := ss.latch(ss.loop(math.Inf(1))); err != nil {
		return err
	}
	ss.finalize(coflows)
	return nil
}

// applyPortDown handles the down edge of a failure: void progress per the
// retransmission policy, account waste, and (under restart-delivered)
// re-enter delivered flows of in-flight coflows into their coflows' live
// sets. It visits every active coflow, granted or not: a preempted coflow
// keeps the progress it made while it was served.
func (s *Simulator) applyPortDown(e edge, now float64, active []*coflow.Coflow, rep *Report) {
	out := &rep.Failures[e.fail]
	for _, c := range active {
		for _, f := range c.LiveFlows() {
			if f.Src != e.port && f.Dst != e.port {
				continue
			}
			out.FlowsHit++
			// Under RetransmitResume transfers are checkpointed: nothing is
			// lost, flows wait out the outage, and the count alone records the
			// blast radius.
			restarted := false
			if prog := f.Size - f.Remaining; prog > 0 && s.Retransmit != RetransmitResume {
				out.WastedBytes += prog
				rep.WastedBytes += prog
				f.Remaining = f.Size
				// Voided progress changes the coflow's remaining-byte state, so
				// the allocator's priority-key cache must be invalidated.
				c.MarkSimMoved()
				bumpRestart(rep, c.ID)
				restarted = true
			}
			if s.Probe != nil {
				s.Probe.FlowHit(now, c, f, restarted)
			}
		}
	}
	if s.Retransmit != RetransmitRestartDelivered {
		return
	}
	// Receiver storage loss: deliveries INTO the failed port are gone and
	// must be re-sent. Flows sent FROM the port keep their delivery — the
	// data lives at the destination. Only in-flight coflows are affected;
	// completed ones are out of scope.
	for _, c := range active {
		for _, f := range c.Flows {
			if !f.Done || f.Dst != e.port || f.Size <= 0 {
				continue
			}
			out.FlowsHit++
			out.WastedBytes += f.Size
			rep.WastedBytes += f.Size
			f.Done = false
			f.Remaining = f.Size
			f.Rate = 0
			f.EndTime = 0
			c.Reactivate(f)
			bumpRestart(rep, c.ID)
			if s.Probe != nil {
				s.Probe.FlowHit(now, c, f, true)
			}
		}
	}
}

// finalizeFailures fills the recovery fields of each outcome after the run:
// whether every sized flow touching the port finished, and how long after
// the down edge the last one did.
func finalizeFailures(rep *Report, coflows []*coflow.Coflow) {
	for i := range rep.Failures {
		out := &rep.Failures[i]
		recovered := true
		var ttr float64
		for _, c := range coflows {
			for _, f := range c.Flows {
				if f.Size <= 0 || (f.Src != out.Port && f.Dst != out.Port) {
					continue
				}
				if !f.Done {
					recovered = false
					continue
				}
				if t := f.EndTime - out.Down; t > ttr {
					ttr = t
				}
			}
		}
		out.Recovered = recovered
		if recovered {
			out.TimeToRecovery = ttr
		}
	}
}

// ensurePorts sizes the per-port scratch for the fabric (grow-only).
func (sc *runScratch) ensurePorts(n int) {
	if len(sc.egFac) >= n {
		return
	}
	sc.egFac = make([]float64, n)
	sc.inFac = make([]float64, n)
	sc.egEff = make([]float64, n)
	sc.inEff = make([]float64, n)
	sc.egCap = make([]float64, n)
	sc.inCap = make([]float64, n)
	sc.egUse = make([]float64, n)
	sc.inUse = make([]float64, n)
	sc.downCnt = make([]int, n)
}
