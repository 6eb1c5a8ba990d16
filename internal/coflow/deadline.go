package coflow

// Deadline-aware coflow scheduling — the second half of Varys (SIGCOMM'14):
// besides minimising CCT, Varys guarantees admitted coflows complete within
// their deadlines. A coflow is admitted iff, at arrival, the rates required
// to finish exactly at its deadline fit into the capacity left after all
// earlier reservations; admitted coflows then receive exactly those rates
// (minimum-allocation keeps slack for future arrivals), while rejected and
// best-effort (deadline-less) coflows share the leftovers max-min fairly.

import "math"

// admission state of a coflow within one simulation.
type admission int

const (
	undecided admission = iota
	admitted
	rejected
)

// Deadline is the Varys deadline-mode scheduler. It is stateful (admission
// decisions persist across epochs) and therefore NOT reusable across
// simulator runs — create a fresh instance per Run.
type Deadline struct {
	state map[int]admission

	scratch allocScratch
	ord     orderState
}

// NewVarysDeadline returns a fresh deadline-mode scheduler.
func NewVarysDeadline() *Deadline {
	return &Deadline{state: make(map[int]admission)}
}

// Name implements Scheduler.
func (d *Deadline) Name() string { return "varys-deadline" }

// Admitted reports the admission decision for a coflow ID (false for
// rejected, undecided, or unknown IDs).
func (d *Deadline) Admitted(id int) bool { return d.state[id] == admitted }

// PriorityOrder implements Auditable: the arrival-ordered reservation order
// the last Allocate served (admission runs down this list).
func (d *Deadline) PriorityOrder() []*Coflow { return d.ord.order }

// Allocate implements Scheduler. Arrival order is static per coflow, so the
// serving order is re-sorted only when the active-set membership changes.
func (d *Deadline) Allocate(now float64, active []*Coflow, egCap, inCap []float64) {
	resetRates(active)
	d.scratch.ensure(len(egCap))
	if d.ord.sync(active) {
		for _, c := range d.ord.order {
			c.schedKey = c.Arrival
		}
		sortByKey(d.ord.order, false)
	}

	for _, c := range d.ord.order {
		if c.Deadline <= 0 {
			continue // best effort: served by the backfill below
		}
		switch d.state[c.ID] {
		case rejected:
			continue // also backfill-only
		case undecided:
			if d.admit(c, now, egCap, inCap) {
				d.state[c.ID] = admitted
			} else {
				d.state[c.ID] = rejected
				continue
			}
		}
		// Admitted: reserve exactly the finish-at-deadline rates.
		timeLeft := c.Arrival + c.Deadline - now
		if timeLeft <= 0 {
			// Past due (should not happen for truly admitted coflows, but
			// float drift can leave crumbs): drain at full MADD speed.
			maddAllocate(c, egCap, inCap, &d.scratch)
			continue
		}
		for _, f := range c.Flows {
			if f.Done {
				continue
			}
			r := f.Remaining / timeLeft
			// Defensive cap against accumulated float error.
			r = math.Min(r, math.Min(egCap[f.Src], inCap[f.Dst]))
			if r < 0 {
				r = 0
			}
			f.Rate += r
			egCap[f.Src] -= r
			inCap[f.Dst] -= r
		}
	}
	// Leftover capacity serves rejected and best-effort coflows — and
	// opportunistically accelerates everyone (finishing early never breaks
	// a deadline).
	waterFill(activeFlows(active, &d.scratch), egCap, inCap, &d.scratch)
}

// CapacityChanged implements CapacityObserver. Losing (or regaining) port
// capacity invalidates every standing admission decision: rates that fit
// before a failure may no longer fit, and a coflow rejected under degraded
// capacity may fit once the port recovers. All decisions revert to
// undecided so the next Allocate re-runs admission against the current
// capacities; coflows past their deadline fail re-admission and fall back
// to best-effort backfill.
func (d *Deadline) CapacityChanged(now float64) {
	for id := range d.state {
		d.state[id] = undecided
	}
}

// admit checks whether finish-at-deadline rates fit the residual capacity.
func (d *Deadline) admit(c *Coflow, now float64, egCap, inCap []float64) bool {
	timeLeft := c.Arrival + c.Deadline - now
	if timeLeft <= 0 {
		return false
	}
	// Accumulate the per-port required rates into the dense scratch, like
	// demandInto but for Remaining/timeLeft.
	s := &d.scratch
	flows := c.Flows
	var egPorts, inPorts []int
	if c.sim.valid {
		flows, egPorts, inPorts = c.sim.live, c.sim.egPorts, c.sim.inPorts
		for _, f := range flows {
			s.egNeed[f.Src] += f.Remaining / timeLeft
			s.inNeed[f.Dst] += f.Remaining / timeLeft
		}
	} else {
		egT, inT := s.egTouched[:0], s.inTouched[:0]
		for _, f := range flows {
			if f.Done {
				continue
			}
			if s.egCnt[f.Src] == 0 {
				egT = append(egT, f.Src)
			}
			s.egCnt[f.Src]++
			s.egNeed[f.Src] += f.Remaining / timeLeft
			if s.inCnt[f.Dst] == 0 {
				inT = append(inT, f.Dst)
			}
			s.inCnt[f.Dst]++
			s.inNeed[f.Dst] += f.Remaining / timeLeft
		}
		s.egTouched, s.inTouched = egT, inT
		egPorts, inPorts = egT, inT
	}
	const tol = 1 + 1e-9
	ok := true
	for _, p := range egPorts {
		if s.egNeed[p] > egCap[p]*tol {
			ok = false
			break
		}
	}
	if ok {
		for _, p := range inPorts {
			if s.inNeed[p] > inCap[p]*tol {
				ok = false
				break
			}
		}
	}
	clearDemand(s, egPorts, inPorts)
	return ok
}

// DeadlineStats summarises deadline outcomes after a simulation: which
// coflows with deadlines completed in time.
type DeadlineStats struct {
	WithDeadline int
	Met          int
	Admitted     int
}

// MetFraction returns Met/WithDeadline (1 when no coflow had a deadline).
func (s DeadlineStats) MetFraction() float64 {
	if s.WithDeadline == 0 {
		return 1
	}
	return float64(s.Met) / float64(s.WithDeadline)
}

// CollectDeadlineStats inspects completed coflows against their deadlines.
// Pass the scheduler to also count admissions; nil is allowed.
func CollectDeadlineStats(coflows []*Coflow, d *Deadline) DeadlineStats {
	var s DeadlineStats
	for _, c := range coflows {
		if c.Deadline <= 0 {
			continue
		}
		s.WithDeadline++
		if c.Completed {
			if cct, err := c.CCT(); err == nil && cct <= c.Deadline*(1+1e-9) {
				s.Met++
			}
		}
		if d != nil && d.Admitted(c.ID) {
			s.Admitted++
		}
	}
	return s
}
