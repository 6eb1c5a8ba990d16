package netsim

// Session is the resumable form of a simulation run: the same event loop
// RunInto drives to completion, parked between calls so callers can interleave
// time with decisions. Run/RunInto are now thin wrappers over a session that
// is begun, fed every coflow up front, and advanced to the end in one call;
// the online co-optimizer instead keeps ONE session alive across a whole job
// stream — Advance(t) moves the live simulation to the next arrival,
// BacklogInto reads the in-flight per-port bytes the placement model needs,
// Admit injects the newly-placed coflow, and Finish runs the tail and
// aggregates the report. That turns the per-arrival backlog probe from
// "re-simulate the entire admitted history from t=0" (O(J²) simulator work
// over J jobs, with a deep clone per arrival) into "advance the one live
// simulation since the previous arrival" — O(J) total and zero per-arrival
// cloning.
//
// Determinism contract: a session advanced through stops t₁ ≤ t₂ ≤ … that
// all land on epoch boundaries of the equivalent straight-through run —
// coflow arrivals (of coflows admitted at their arrival), capacity-event and
// failure-edge times, completions — and that admits each coflow no later
// than its arrival produces bit-identical flow states, CCTs and makespan to
// a single RunInto over the same coflows. The loop's float arithmetic is
// unchanged — an Advance stop bounds an epoch with the same `arrival - now`
// expression a pending arrival does in a straight-through run, and the stop
// never clamps `now` — so boundary stops land on the same floats either way
// (pinned by TestSessionMatchesRunInto and the online equivalence suite).
// The online engine only ever stops at arrivals, which are boundaries by
// construction. A stop strictly inside a fluid interval is still *semantically*
// exact (rates are constant across the split, so the same bytes move), but
// the split changes float rounding, so downstream times may drift by ulps
// relative to an unstopped run.
//
// Concurrency/lifecycle: a Simulator hosts one activity at a time. Starting a
// session abandons any previous session of that simulator, and calling
// Run/RunInto while a session is live corrupts the session's state (both
// share the simulator's scratch). Sessions are not safe for concurrent use.
//
// Probes keep firing across Advance boundaries: BeginRun once at session
// start (with the coflows admitted so far — none, for Simulator.Session),
// CoflowAdmitted/CoflowCompleted/EpochSample/FailureEdge as the loop crosses
// them regardless of which Advance call drives it, and EndRun at Finish.
// PortFailure windows that straddle arrivals apply exactly as in a
// straight-through run: the down/up edges are simulation events, not
// per-Advance state.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"ccf/internal/coflow"
)

// Session is a resumable simulation over a Simulator's fabric and scheduler.
// Obtain one from Simulator.Session; the zero value is not usable.
type Session struct {
	s   *Simulator
	rep *Report
	// ownRep backs sessions begun without caller-owned report storage
	// (Simulator.Session); reused across sessions so steady-state reuse
	// allocates nothing.
	ownRep Report

	now      float64
	iter     int // event-loop iterations consumed; see epochLimit
	pending  []*coflow.Coflow
	active   []*coflow.Coflow
	all      []*coflow.Coflow
	edges    []edge // unapplied suffix of the fabric schedule
	begun    bool
	finished bool
	err      error

	// sparse is set at begin when the simulator opts in (EventHorizon) and the
	// scheduler implements coflow.SparseAllocator: the loop's flow passes then
	// visit only the coflows its last Allocate granted.
	sparse bool
	sa     coflow.SparseAllocator
	// release mirrors Simulator.ReleaseCompleted for this session. Released
	// coflows leave `all` for `tombs` (release.go); rank[i] counts the
	// tombstones that precede all[i] in admission order, which is what lets
	// Digest walk both lists as the one admission sequence a never-releasing
	// session holds. Storage is reused across sessions; the flag gates
	// releasing.
	release bool
	rank    []int
	tombs   []tombstone
	leaving []leavingTomb
}

// Session begins a resumable simulation session on the simulator, abandoning
// any previous session. Coflows are injected with Admit and time advances
// with Advance/Finish. The simulator's Events, Failures, Retransmit and
// Probe configuration apply to the session; Deps are honored but, because
// coflows stream in, dependency references are only resolved against coflows
// admitted so far (an unresolvable dependency surfaces as a blocked-coflows
// error from Advance, not as an upfront validation error the way Run reports
// it).
func (s *Simulator) Session() (*Session, error) {
	ss := &s.ses
	if err := ss.begin(s, nil); err != nil {
		return nil, err
	}
	if s.Probe != nil {
		s.Probe.BeginRun(s.fabric.Ports, s.fabric.EgressCap, s.fabric.IngressCap, nil, s.sched)
	}
	return ss, nil
}

// begin resets the session for a new run: validates and stages the event and
// failure schedules, sizes the scratch, and resets the report. rep == nil
// selects the session-owned report.
func (ss *Session) begin(s *Simulator, rep *Report) error {
	ports := s.fabric.Ports
	sc := &s.scratch
	*ss = Session{
		s:       s,
		ownRep:  ss.ownRep,
		pending: ss.pending[:0],
		active:  ss.active[:0],
		all:     ss.all[:0],
		rank:    ss.rank[:0],
		tombs:   ss.tombs[:0],
		leaving: ss.leaving[:0],
		begun:   true,
	}
	if rep == nil {
		rep = &ss.ownRep
	}
	ss.rep = rep

	if sc.completed == nil {
		sc.completed = make(map[int]bool)
	} else {
		clear(sc.completed)
	}

	// The fabric schedule: every capacity event and both edges of every
	// failure in one list, stable-sorted by time so same-instant edges keep
	// input order (capacity events first, then failures, each down edge ahead
	// of its own up edge). A NaN time would sort anywhere and never come due.
	edges := sc.edges[:0]
	for _, ev := range s.Events {
		if ev.Port < 0 || ev.Port >= ports {
			return fmt.Errorf("netsim: capacity event targets port %d outside fabric of %d ports", ev.Port, ports)
		}
		// Refuse a NaN, negative or infinite factor, and a finite one whose
		// effective capacity (setPort's product) overflows.
		eg, in := s.fabric.EgressCap[ev.Port]*ev.EgressFactor, s.fabric.IngressCap[ev.Port]*ev.IngressFactor
		if !(ev.EgressFactor >= 0 && ev.IngressFactor >= 0 && eg <= math.MaxFloat64 && in <= math.MaxFloat64) {
			return fmt.Errorf("netsim: capacity event at t=%g gives port %d a negative or non-finite capacity (factors %g, %g)", ev.Time, ev.Port, ev.EgressFactor, ev.IngressFactor)
		}
		if math.IsNaN(ev.Time) {
			return fmt.Errorf("netsim: capacity event on port %d has NaN time", ev.Port)
		}
		edges = append(edges, edge{time: ev.Time, port: ev.Port, egFac: ev.EgressFactor, inFac: ev.IngressFactor, fail: -1})
	}
	for i, pf := range s.Failures {
		if pf.Port < 0 || pf.Port >= ports {
			return fmt.Errorf("netsim: failure targets port %d outside fabric of %d ports", pf.Port, ports)
		}
		if pf.Down < 0 {
			return fmt.Errorf("netsim: failure of port %d has negative down time %g", pf.Port, pf.Down)
		}
		if math.IsNaN(pf.Down) || math.IsNaN(pf.Up) {
			return fmt.Errorf("netsim: failure of port %d has NaN down or up time (down=%g up=%g)", pf.Port, pf.Down, pf.Up)
		}
		if math.IsInf(pf.Down, 1) {
			return fmt.Errorf("netsim: failure of port %d never goes down (down=%g)", pf.Port, pf.Down)
		}
		edges = append(edges, edge{time: pf.Down, port: pf.Port, fail: i})
		if !pf.Permanent() {
			edges = append(edges, edge{time: pf.Up, port: pf.Port, up: true, fail: i})
		}
	}
	slices.SortStableFunc(edges, func(a, b edge) int { return cmp.Compare(a.time, b.time) })
	sc.edges = edges
	ss.edges = edges
	// Every port starts at its configured capacity with no outage; a previous
	// run's factors and down-counters never leak into this one.
	sc.ensurePorts(ports)
	for p := 0; p < ports; p++ {
		sc.egFac[p], sc.inFac[p], sc.downCnt[p] = 1, 1, 0
		sc.setPort(&s.fabric, p)
	}
	ss.sa, _ = s.sched.(coflow.SparseAllocator)
	ss.sparse = s.EventHorizon && ss.sa != nil
	ss.release = s.ReleaseCompleted
	if ss.release && len(s.Failures) > 0 {
		return errors.New("netsim: ReleaseCompleted is incompatible with Failures (recovery accounting needs the full coflow set)")
	}

	*rep = Report{CCTs: rep.CCTs, Restarts: rep.Restarts, Failures: rep.Failures[:0]}
	if rep.CCTs == nil {
		rep.CCTs = make(map[int]float64)
	} else {
		clear(rep.CCTs)
	}
	if rep.Restarts != nil {
		clear(rep.Restarts)
	}
	for _, pf := range s.Failures {
		rep.Failures = append(rep.Failures, FailureOutcome{
			Port: pf.Port, Down: pf.Down, Up: pf.Up, Permanent: pf.Permanent(),
		})
	}
	return nil
}

// check gates the mutating session methods on lifecycle state.
func (ss *Session) check() error {
	if !ss.begun {
		return errors.New("netsim: session not started (obtain one from Simulator.Session)")
	}
	if ss.finished {
		return errors.New("netsim: session already finished")
	}
	return ss.err
}

// latch records a loop error so every later call reports it too: a session
// that errored mid-flight has inconsistent flow state and must be abandoned.
func (ss *Session) latch(err error) error {
	if err != nil {
		ss.err = err
	}
	return err
}

// Admit validates a coflow, resets its flow state, and queues it for
// admission at its Arrival time (or immediately, if the session has already
// advanced past it — the loop lifts the arrival to the current time, the
// same treatment a dependency-released coflow gets). Admitting c after
// advancing past c.Arrival therefore changes c's effective arrival; the
// online engine always admits at the arrival instant, where the two agree.
// Every session, releasing or not, refuses a non-finite arrival and a flow
// that leaves the fabric, loops to its own port, or has a NaN, infinite,
// negative or -0 size; Run refuses the same coflows.
func (ss *Session) Admit(c *coflow.Coflow) error {
	if err := ss.check(); err != nil {
		return err
	}
	return ss.latch(ss.admit(c))
}

// admit is Admit without the lifecycle gate, shared with RunInto's prologue.
func (ss *Session) admit(c *coflow.Coflow) error {
	if err := ss.validateAdmit(c); err != nil {
		return err
	}
	ss.stage(c)
	return nil
}

// validateAdmit checks a coflow's flows against the fabric without mutating
// any session or flow state, so batch admission can be all-or-nothing.
func (ss *Session) validateAdmit(c *coflow.Coflow) error {
	// A NaN arrival is never due and an infinite one never comes: both stall.
	if math.IsNaN(c.Arrival) || math.IsInf(c.Arrival, 0) {
		return fmt.Errorf("netsim: coflow %d has non-finite arrival %g", c.ID, c.Arrival)
	}
	ports := ss.s.fabric.Ports
	for _, f := range c.Flows {
		if f.Src < 0 || f.Src >= ports || f.Dst < 0 || f.Dst >= ports {
			return fmt.Errorf("netsim: flow %d of coflow %d uses port (%d→%d) outside fabric of %d ports",
				f.ID, c.ID, f.Src, f.Dst, ports)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("netsim: flow %d of coflow %d is a self-loop at port %d", f.ID, c.ID, f.Src)
		}
		// A NaN size never compares done and an infinite one never drains.
		if math.IsNaN(f.Size) || math.IsInf(f.Size, 0) {
			return fmt.Errorf("netsim: flow %d of coflow %d has non-finite size %g", f.ID, c.ID, f.Size)
		}
		// A negative (or -0) size would be born done with that size left
		// over, where a tombstone stands for flows that all ended at +0.
		if math.Signbit(f.Size) {
			return fmt.Errorf("netsim: flow %d of coflow %d has negative size %g", f.ID, c.ID, f.Size)
		}
	}
	return nil
}

// stage registers a validated coflow: reset its flow state and insert it
// into the arrival-sorted admission queue.
func (ss *Session) stage(c *coflow.Coflow) {
	for _, f := range c.Flows {
		f.Remaining = f.Size
		f.Done = f.Size <= 0
		f.Rate = 0
	}
	c.Completed = false
	c.SentBytes = 0
	c.BeginSim(ss.s.fabric.Ports)
	ss.all = append(ss.all, c)
	ss.rank = append(ss.rank, len(ss.tombs))
	ss.enqueue(c)
}

// enqueue inserts a coflow into the arrival-sorted admission queue; per-item
// insertion of a stable sort is itself stable, so batch admission (RunInto)
// and streaming admission order ties identically.
func (ss *Session) enqueue(c *coflow.Coflow) {
	p := append(ss.pending, c)
	for i := len(p) - 1; i > 0 && p[i].Arrival < p[i-1].Arrival; i-- {
		p[i], p[i-1] = p[i-1], p[i]
	}
	ss.pending = p
}

// admitBatch is RunInto's prologue. Validation is all-or-nothing: every
// coflow is checked against the fabric before any flow state is touched, so
// a bad coflow in the middle of the input admits nothing. The registered
// order and arrival-sorted queue are those of one Admit per coflow (stage
// inserts stably, ties keep input order).
func (ss *Session) admitBatch(cs []*coflow.Coflow) error {
	for _, c := range cs {
		if err := ss.validateAdmit(c); err != nil {
			return err
		}
	}
	for _, c := range cs {
		ss.stage(c)
	}
	return nil
}

// Advance runs the simulation up to time `to`: admissions, capacity events,
// failure edges and completions up to (and at) `to` all apply. Unlike the
// legacy Simulator.Horizon, Advance never rewrites the internal clock to the
// stop time — epochs land on exactly the floats a straight-through run
// produces, which is what makes a session bit-identical to RunInto.
func (ss *Session) Advance(to float64) error {
	if err := ss.check(); err != nil {
		return err
	}
	if math.IsNaN(to) {
		return errors.New("netsim: session cannot Advance(NaN)")
	}
	if to < ss.now-1e-12 {
		return fmt.Errorf("netsim: session cannot Advance(%g) behind current time %g", to, ss.now)
	}
	return ss.latch(ss.loop(to))
}

// Finish runs the session to completion and returns the aggregated report
// (owned by the session unless RunInto supplied storage; valid until the
// simulator's next run or session).
func (ss *Session) Finish() (*Report, error) {
	if err := ss.check(); err != nil {
		return nil, err
	}
	if err := ss.latch(ss.loop(math.Inf(1))); err != nil {
		return nil, err
	}
	ss.finalize(ss.all)
	return ss.rep, nil
}

// Now returns the session's current simulation time.
func (ss *Session) Now() float64 { return ss.now }

// AdmittedCount returns how many admitted coflows the session holds —
// pending, active, or completed: every coflow ever admitted, less those a
// ReleaseCompleted session has already reduced to tombstones.
func (ss *Session) AdmittedCount() int { return len(ss.all) }

// CompletedCount returns how many admitted coflows have completed so far.
func (ss *Session) CompletedCount() int {
	if ss.rep == nil {
		return 0
	}
	return len(ss.rep.CCTs)
}

// Digest fingerprints the session's deterministic simulation state with
// FNV-1a over the clock and every admitted coflow's flow progress (remaining
// bytes, done flags, completion state), in admission order. Two sessions that
// took the same admissions and boundary stops digest identically — whether or
// not either released completed coflows, since a tombstone keeps exactly what
// a completed coflow contributes; the service layer uses this to prove a
// snapshot-restored engine resumed byte-identical state.
func (ss *Session) Digest() uint64 {
	h := fnv1a(fnvOffset64)
	h.mix(math.Float64bits(ss.now))
	h.mix(uint64(len(ss.all) + len(ss.tombs)))
	ti := 0
	for i, c := range ss.all {
		for ; ti < ss.rank[i]; ti++ {
			h.tomb(&ss.tombs[ti])
		}
		h.mix(uint64(c.ID))
		h.mix(math.Float64bits(c.Arrival))
		if c.Completed {
			h.mix(1)
			h.mix(math.Float64bits(c.Completion))
		} else {
			h.mix(0)
		}
		h.mix(uint64(len(c.Flows)))
		for _, f := range c.Flows {
			h.mix(math.Float64bits(f.Remaining))
			if f.Done {
				h.mix(1)
			} else {
				h.mix(0)
			}
		}
	}
	for ; ti < len(ss.tombs); ti++ {
		h.tomb(&ss.tombs[ti])
	}
	return uint64(h)
}

// Report exposes the session's running report: CCTs of coflows completed so
// far, epoch and byte counters, failure outcomes. Read-only; Makespan and
// the CCT aggregates are only filled by Finish.
func (ss *Session) Report() *Report { return ss.rep }

// BacklogInto writes the per-port remaining bytes of every unfinished flow
// the session knows about — in flight or still queued — into the
// caller's slices (len == fabric ports). This is the network state the
// online co-optimizer feeds to placement as the initial-load term v⁰.
func (ss *Session) BacklogInto(egress, ingress []int64) error {
	if !ss.begun {
		return errors.New("netsim: session not started (obtain one from Simulator.Session)")
	}
	if err := ss.err; err != nil {
		return err
	}
	ports := ss.s.fabric.Ports
	if len(egress) != ports || len(ingress) != ports {
		return fmt.Errorf("netsim: backlog slices sized %d/%d, want %d", len(egress), len(ingress), ports)
	}
	for p := 0; p < ports; p++ {
		egress[p], ingress[p] = 0, 0
	}
	// Unfinished flows live only in pending and active coflows (a completed
	// coflow has none, and nothing resurrects one), so the probe costs what is
	// in flight, not what was ever admitted. Integer sums: order-free, exact.
	for _, cs := range [2][]*coflow.Coflow{ss.pending, ss.active} {
		for _, c := range cs {
			for _, f := range c.LiveFlows() {
				r := int64(f.Remaining + 0.5)
				egress[f.Src] += r
				ingress[f.Dst] += r
			}
		}
	}
	return nil
}

// depsDone reports whether every declared predecessor of c has completed.
func (s *Simulator) depsDone(c *coflow.Coflow, completed map[int]bool) bool {
	for _, dep := range s.Deps[c.ID] {
		if !completed[dep] {
			return false
		}
	}
	return true
}

// epochLimit is the iteration count at which the loop entry now starting
// gives up. MaxEpochs is a budget per entry (one Run, Advance or Finish), not
// per session: a long-lived session otherwise spends it on work it has served
// and then fails every call, restarts included, since the image carries iter.
// Saturates, because a restored iter may be anything up to MaxInt.
func (ss *Session) epochLimit() int {
	if ss.s.MaxEpochs > math.MaxInt-ss.iter {
		return math.MaxInt
	}
	return ss.iter + ss.s.MaxEpochs
}

// loop is the event loop: fluid epochs between completions, arrivals,
// capacity events and failure edges, stopping once `now` reaches `stop` (or
// the legacy Simulator.Horizon) or the session drains. Run-local state lives
// on the session so the loop can park and resume; it is allocation-free at
// steady state. Three of its stanzas do less than a full scan, each exactly
// (DESIGN.md §16): admission reads only the arrived prefix of the sorted
// queue, the retirement scan runs only when a coflow can have finished, and
// under EventHorizon the flow passes visit only the coflows the scheduler
// granted.
func (ss *Session) loop(stop float64) error {
	s := ss.s
	sc := &s.scratch
	rep := ss.rep
	ports := s.fabric.Ports
	hz := s.Horizon
	completed := sc.completed
	egEff, inEff := sc.egEff[:ports], sc.inEff[:ports]
	egCap, inCap := sc.egCap[:ports], sc.inCap[:ports]
	egUse, inUse := sc.egUse[:ports], sc.inUse[:ports]

	now := ss.now
	pending, active, edges := ss.pending, ss.active, ss.edges
	// save parks the loop state back in the session; called (not deferred —
	// a deferred closure would allocate) before every exit.
	save := func() {
		ss.now, ss.pending, ss.active, ss.edges = now, pending, active, edges
	}

	// scanRetire arms the retirement scan: at entry (a resumed loop re-checks
	// once), and on the only transitions that can finish a coflow — an advance
	// pass that completed a flow, and an admission (a coflow without live
	// flows finishes on its admission epoch). Failure edges only un-finish
	// flows, so a scan skipped is a scan that would have found nothing.
	scanRetire := true
	limit := ss.epochLimit()
	for {
		if ss.iter >= limit {
			save()
			return fmt.Errorf("netsim: exceeded %d epochs (scheduler %q livelock?)", s.MaxEpochs, s.sched.Name())
		}
		ss.iter++
		// Admit arrivals (time reached and dependencies completed) and apply
		// due schedule edges. The queue is sorted by arrival, so the coflows
		// whose time has come are a prefix: walking it admits the coflows a
		// scan of the whole queue would, in the same order. Coflows still
		// blocked on a dependency stay, in order, and the gap closes in place —
		// the queue keeps its base pointer, so enqueue never reallocates at
		// steady state. A dependency-gated coflow's Arrival is advanced to its
		// release time so its CCT measures active transfer.
		w, i := 0, 0
		for ; i < len(pending) && pending[i].Arrival <= now+1e-12; i++ {
			c := pending[i]
			if !s.depsDone(c, completed) {
				pending[w] = c
				w++
				continue
			}
			if c.Arrival < now {
				c.Arrival = now
			}
			active = append(active, c)
			scanRetire = true
			if s.Probe != nil {
				s.Probe.CoflowAdmitted(now, c)
			}
		}
		if w < i {
			n := w + copy(pending[w:], pending[i:])
			clear(pending[n:]) // do not pin admitted coflows behind the queue's end
			pending = pending[:n]
		}
		// A capacity event sets its port's factors; a failure's down edge
		// voids progress per the retransmission policy (and may re-enter
		// delivered flows into their coflows' live sets). Either way the port's
		// effective capacity is recomputed from what the edge left behind.
		for len(edges) > 0 && edges[0].time <= now+1e-12 {
			e := edges[0]
			edges = edges[1:]
			switch {
			case e.fail < 0:
				sc.egFac[e.port], sc.inFac[e.port] = e.egFac, e.inFac
			case e.up:
				sc.downCnt[e.port]--
			default:
				sc.downCnt[e.port]++
				s.applyPortDown(e, now, active, rep)
			}
			sc.setPort(&s.fabric, e.port)
			if e.fail >= 0 && s.Probe != nil {
				s.Probe.FailureEdge(now, e.port, e.up)
			}
		}
		// Retire completed coflows (O(1) per coflow via the live-flow cache).
		if scanRetire {
			scanRetire = false
			liveCF := active[:0]
			for _, c := range active {
				if c.Finished() {
					if !c.Completed {
						c.Completed = true
						c.Completion = now
						if len(s.Deps) > 0 {
							completed[c.ID] = true
						}
						cct, err := c.CCT()
						if err != nil {
							save()
							return err
						}
						rep.CCTs[c.ID] = cct
						if s.Probe != nil {
							s.Probe.CoflowCompleted(now, c)
						}
					}
					continue
				}
				liveCF = append(liveCF, c)
			}
			clear(active[len(liveCF):]) // do not pin retired coflows behind the live end
			active = liveCF
			if ss.release {
				ss.releaseCompleted()
			}
		}

		if hz >= 0 && now >= hz-1e-12 {
			now = hz
			break
		}
		if now >= stop-1e-12 {
			break
		}
		if len(active) == 0 {
			if len(pending) == 0 {
				break
			}
			// Jump to the first eligible (dependency-satisfied) arrival.
			next := math.Inf(1)
			for _, c := range pending {
				if s.depsDone(c, completed) {
					next = c.Arrival
					break // pending stays sorted by arrival
				}
			}
			if math.IsInf(next, 1) {
				save()
				return fmt.Errorf("netsim: %d coflows blocked on dependencies that can never complete (cycle?)", len(pending))
			}
			if hz >= 0 && next >= hz {
				now = hz
				break
			}
			if next > stop {
				break
			}
			// A dependency released mid-run has an arrival in the past;
			// time never rewinds — re-run admission at the current time.
			if next > now {
				now = next
			}
			continue
		}

		// Scheduling epoch.
		rep.Epochs++
		copy(egCap, egEff)
		copy(inCap, inEff)
		clear(egUse)
		clear(inUse)
		s.sched.Allocate(now, active, egCap, inCap)

		// One fused pass over the live flows in (active coflow, live flow)
		// order: validate rates, accumulate per-port usage, and find the time
		// to the next completion. Under EventHorizon only the coflows the
		// scheduler granted, which alone carry rates, are visited: a flow left
		// out has rate 0, which adds +0.0 to sums that start at +0 and never
		// see a negative term (no bit changes), never bounds dt, and moves no
		// bytes.
		// The granted coflows are visited in the full pass's order, so every
		// sum below rounds as the full pass rounds it.
		every := !ss.sparse || ss.sa.LastGrantDense()
		dt := math.Inf(1)
		for _, c := range active {
			if !every && !c.SimGranted() {
				continue
			}
			for _, f := range c.LiveFlows() {
				if f.Rate < 0 {
					save()
					return fmt.Errorf("netsim: scheduler %q set negative rate %g on flow %d", s.sched.Name(), f.Rate, f.ID)
				}
				egUse[f.Src] += f.Rate
				inUse[f.Dst] += f.Rate
				if f.Rate > 0 {
					if t := f.Remaining / f.Rate; t < dt {
						dt = t
					}
				}
			}
		}
		// Port capacity check with 0.1% tolerance for float accumulation —
		// keeps every scheduler honest under the property tests. The limit is
		// rounded before tolAbs is added (float64 stops a fused multiply-add).
		const tolAbs = 1e-9
		tol := 1 + 1e-3
		for p := 0; p < ports; p++ {
			egLim := float64(egEff[p] * tol)
			inLim := float64(inEff[p] * tol)
			if egUse[p] > egLim+tolAbs || inUse[p] > inLim+tolAbs {
				save()
				return fmt.Errorf("netsim: scheduler %q oversubscribed port %d (eg=%.3g/%.3g in=%.3g/%.3g)",
					s.sched.Name(), p, egUse[p], egLim, inUse[p], inLim)
			}
		}

		// ... or next eligible arrival or schedule edge, whichever first.
		// Dependency-gated coflows release at a completion, which is
		// already a dt boundary, so only dependency-satisfied arrivals
		// bound the step.
		for _, c := range pending {
			if s.depsDone(c, completed) {
				if t := c.Arrival - now; t >= 0 && t < dt {
					dt = t
				}
				break
			}
		}
		if len(edges) > 0 {
			if t := edges[0].time - now; t < dt {
				dt = t
			}
		}
		if hz >= 0 && now+dt > hz {
			dt = hz - now
		}
		// An Advance stop bounds the epoch exactly the way a pending arrival
		// does (same expression, same comparison), so a session stopping at
		// an arrival takes the very float step the straight-through run —
		// which has that arrival in pending — takes.
		if t := stop - now; t >= 0 && t < dt {
			dt = t
		}
		if math.IsInf(dt, 1) {
			save()
			return fmt.Errorf("%w: %d coflows active under scheduler %q", ErrStalled, len(active), s.sched.Name())
		}
		if s.Probe != nil {
			s.Probe.EpochSample(now, dt, active, egUse, inUse, egEff, inEff)
		}

		// Advance over the same coflows. Each is marked moved for the
		// allocator's key cache (marking one that did not move only recomputes
		// the key it already had); one that lost a flow compacts its live-flow
		// cache once, after its flows, and arms the retirement scan.
		now += dt
		for _, c := range active {
			if !every && !c.SimGranted() {
				continue
			}
			c.MarkSimMoved()
			lost := false
			for _, f := range c.LiveFlows() {
				if f.Rate <= 0 {
					continue
				}
				moved := f.Rate * dt
				if moved > f.Remaining {
					moved = f.Remaining
				}
				f.Remaining -= moved
				c.SentBytes += moved
				rep.TotalBytes += moved
				if f.Remaining <= completionEps {
					f.Remaining = 0
					f.Done = true
					f.EndTime = now
					lost = true
				}
			}
			if lost {
				c.RefreshSim()
				scanRetire = true
			}
		}
	}
	save()
	return nil
}

// finalize fills the aggregate report fields from the session's end state:
// makespan, CCT aggregates summed in the given coflow order (input order for
// RunInto, admission order for Finish — deterministic either way), failure
// recovery outcomes, and the probe's EndRun.
func (ss *Session) finalize(coflows []*coflow.Coflow) {
	rep := ss.rep
	rep.Makespan = ss.now
	if len(ss.tombs) > 0 {
		ss.finalizeReleased()
		return
	}
	for _, c := range coflows {
		cct, ok := rep.CCTs[c.ID]
		if !ok {
			continue
		}
		rep.AvgCCT += cct
		if cct > rep.MaxCCT {
			rep.MaxCCT = cct
		}
	}
	if len(rep.CCTs) > 0 {
		rep.AvgCCT /= float64(len(rep.CCTs))
	}
	rep.WeightedAvgCCT = rep.AvgCCT
	if len(rep.Failures) > 0 {
		finalizeFailures(rep, coflows)
	}
	if ss.s.Probe != nil {
		ss.s.Probe.EndRun(ss.now)
	}
	ss.finished = true
}

// finalizeReleased aggregates a session that released completed coflows: the
// coflow objects are gone, so the CCT sums run over rep.CCTs in ascending
// coflow-ID order (deterministic, and equal to the input-order sum whenever
// IDs are assigned in arrival order — the trace replay and online engine
// convention). Failures are excluded from releasing sessions at begin, so no
// recovery pass runs.
func (ss *Session) finalizeReleased() {
	rep := ss.rep
	ids := make([]int, 0, len(rep.CCTs))
	for id := range rep.CCTs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		cct := rep.CCTs[id]
		rep.AvgCCT += cct
		if cct > rep.MaxCCT {
			rep.MaxCCT = cct
		}
	}
	if len(ids) > 0 {
		rep.AvgCCT /= float64(len(ids))
	}
	rep.WeightedAvgCCT = rep.AvgCCT
	if ss.s.Probe != nil {
		ss.s.Probe.EndRun(ss.now)
	}
	ss.finished = true
}
