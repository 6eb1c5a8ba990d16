// Package refsim is a frozen, unoptimized copy of the event-driven simulator
// and the coflow schedulers as they existed before the allocation-free hot
// path landed in internal/netsim and internal/coflow. It exists for one
// purpose: the golden equivalence tests pin that the optimized simulator
// produces bit-identical Reports (CCTs, makespan, epoch counts, byte totals)
// to this reference on randomized workloads.
//
// Nothing here should ever be optimized or "cleaned up" — any change to the
// numerical behaviour of the production path must either reproduce these
// results exactly or consciously retire this package along with the
// equivalence guarantee. The implementation allocates freely (per-epoch maps,
// slices, sorts), which is exactly what the production path no longer does.
package refsim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

// ErrStalled mirrors netsim.ErrStalled for the reference loop.
var ErrStalled = errors.New("refsim: simulation stalled with pending flows")

// completionEps matches the production simulator's completion tolerance.
const completionEps = 1e-6

// Simulator is the reference twin of netsim.Simulator: same fields, same
// semantics, pre-optimization implementation.
type Simulator struct {
	Fabric    netsim.Fabric
	Sched     coflow.Scheduler
	MaxEpochs int
	Horizon   float64
	Events    []netsim.CapacityEvent
	Deps      map[int][]int
}

// NewSimulator wires a fabric and a scheduler with the production default
// epoch bound.
func NewSimulator(f netsim.Fabric, s coflow.Scheduler) *Simulator {
	return &Simulator{Fabric: f, Sched: s, MaxEpochs: 10_000_000}
}

// Run is a verbatim copy of the pre-optimization netsim.(*Simulator).Run.
func (s *Simulator) Run(coflows []*coflow.Coflow) (*netsim.Report, error) {
	for _, c := range coflows {
		for _, f := range c.Flows {
			if f.Src < 0 || f.Src >= s.Fabric.Ports || f.Dst < 0 || f.Dst >= s.Fabric.Ports {
				return nil, fmt.Errorf("refsim: flow %d of coflow %d uses port (%d→%d) outside fabric of %d ports",
					f.ID, c.ID, f.Src, f.Dst, s.Fabric.Ports)
			}
			if f.Src == f.Dst {
				return nil, fmt.Errorf("refsim: flow %d of coflow %d is a self-loop at port %d", f.ID, c.ID, f.Src)
			}
			f.Remaining = f.Size
			f.Done = f.Size <= 0
			f.Rate = 0
		}
		c.Completed = false
		c.SentBytes = 0
	}

	pending := append([]*coflow.Coflow(nil), coflows...)
	sort.SliceStable(pending, func(a, b int) bool { return pending[a].Arrival < pending[b].Arrival })

	// Dependency bookkeeping.
	completed := make(map[int]bool, len(coflows))
	if len(s.Deps) > 0 {
		known := make(map[int]bool, len(coflows))
		for _, c := range coflows {
			known[c.ID] = true
		}
		for id, deps := range s.Deps {
			if !known[id] {
				return nil, fmt.Errorf("refsim: dependency declared for unknown coflow %d", id)
			}
			for _, dep := range deps {
				if !known[dep] {
					return nil, fmt.Errorf("refsim: coflow %d depends on unknown coflow %d", id, dep)
				}
				if dep == id {
					return nil, fmt.Errorf("refsim: coflow %d depends on itself", id)
				}
			}
		}
	}
	depsDone := func(c *coflow.Coflow) bool {
		for _, dep := range s.Deps[c.ID] {
			if !completed[dep] {
				return false
			}
		}
		return true
	}

	events := append([]netsim.CapacityEvent(nil), s.Events...)
	sort.SliceStable(events, func(a, b int) bool { return events[a].Time < events[b].Time })
	for _, ev := range events {
		if ev.Port < 0 || ev.Port >= s.Fabric.Ports {
			return nil, fmt.Errorf("refsim: capacity event targets port %d outside fabric of %d ports", ev.Port, s.Fabric.Ports)
		}
		if ev.EgressFactor < 0 || ev.IngressFactor < 0 {
			return nil, fmt.Errorf("refsim: capacity event at t=%g has negative factor", ev.Time)
		}
	}
	egFac := make([]float64, s.Fabric.Ports)
	inFac := make([]float64, s.Fabric.Ports)
	for p := range egFac {
		egFac[p], inFac[p] = 1, 1
	}

	var active []*coflow.Coflow
	now := 0.0
	if len(pending) > 0 {
		now = pending[0].Arrival
	}
	rep := &netsim.Report{CCTs: make(map[int]float64, len(coflows))}

	egCap := make([]float64, s.Fabric.Ports)
	inCap := make([]float64, s.Fabric.Ports)

	for epoch := 0; ; epoch++ {
		if epoch >= s.MaxEpochs {
			return nil, fmt.Errorf("refsim: exceeded %d epochs (scheduler %q livelock?)", s.MaxEpochs, s.Sched.Name())
		}
		// Admit arrivals (time reached and dependencies completed) and
		// apply due capacity events.
		stillPending := pending[:0]
		for _, c := range pending {
			if c.Arrival <= now+1e-12 && depsDone(c) {
				if c.Arrival < now {
					c.Arrival = now
				}
				active = append(active, c)
				continue
			}
			stillPending = append(stillPending, c)
		}
		pending = stillPending
		for len(events) > 0 && events[0].Time <= now+1e-12 {
			ev := events[0]
			events = events[1:]
			egFac[ev.Port] = ev.EgressFactor
			inFac[ev.Port] = ev.IngressFactor
		}
		// Retire completed coflows.
		live := active[:0]
		for _, c := range active {
			if coflowDone(c) {
				if !c.Completed {
					c.Completed = true
					c.Completion = now
					completed[c.ID] = true
					cct, err := c.CCT()
					if err != nil {
						return nil, err
					}
					rep.CCTs[c.ID] = cct
				}
				continue
			}
			live = append(live, c)
		}
		active = live

		if s.Horizon > 0 && now >= s.Horizon-1e-12 {
			now = s.Horizon
			break
		}
		if len(active) == 0 {
			if len(pending) == 0 {
				break
			}
			next := math.Inf(1)
			for _, c := range pending {
				if depsDone(c) {
					next = c.Arrival
					break // pending stays sorted by arrival
				}
			}
			if math.IsInf(next, 1) {
				return nil, fmt.Errorf("refsim: %d coflows blocked on dependencies that can never complete (cycle?)", len(pending))
			}
			if s.Horizon > 0 && next >= s.Horizon {
				now = s.Horizon
				break
			}
			if next > now {
				now = next
			}
			continue
		}

		// Scheduling epoch.
		rep.Epochs++
		for p := 0; p < s.Fabric.Ports; p++ {
			egCap[p] = s.Fabric.EgressCap[p] * egFac[p]
			inCap[p] = s.Fabric.IngressCap[p] * inFac[p]
		}
		s.Sched.Allocate(now, active, egCap, inCap)
		if err := s.checkRates(active, egFac, inFac); err != nil {
			return nil, err
		}

		// Time to next completion at current rates.
		dt := math.Inf(1)
		for _, c := range active {
			for _, f := range c.Flows {
				if f.Done || f.Rate <= 0 {
					continue
				}
				if t := f.Remaining / f.Rate; t < dt {
					dt = t
				}
			}
		}
		for _, c := range pending {
			if depsDone(c) {
				if t := c.Arrival - now; t >= 0 && t < dt {
					dt = t
				}
				break
			}
		}
		if len(events) > 0 {
			if t := events[0].Time - now; t < dt {
				dt = t
			}
		}
		if s.Horizon > 0 && now+dt > s.Horizon {
			dt = s.Horizon - now
		}
		if math.IsInf(dt, 1) {
			return nil, fmt.Errorf("%w: %d coflows active under scheduler %q", ErrStalled, len(active), s.Sched.Name())
		}

		// Advance.
		now += dt
		for _, c := range active {
			for _, f := range c.Flows {
				if f.Done || f.Rate <= 0 {
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
				}
			}
		}
	}

	rep.Makespan = now
	for _, cct := range rep.CCTs {
		rep.AvgCCT += cct
		if cct > rep.MaxCCT {
			rep.MaxCCT = cct
		}
	}
	if len(rep.CCTs) > 0 {
		rep.AvgCCT /= float64(len(rep.CCTs))
	}
	return rep, nil
}

// checkRates is the reference copy of the per-epoch capacity validator.
func (s *Simulator) checkRates(active []*coflow.Coflow, egFac, inFac []float64) error {
	eg := make([]float64, s.Fabric.Ports)
	in := make([]float64, s.Fabric.Ports)
	for _, c := range active {
		for _, f := range c.Flows {
			if f.Done {
				continue
			}
			if f.Rate < 0 {
				return fmt.Errorf("refsim: scheduler %q set negative rate %g on flow %d", s.Sched.Name(), f.Rate, f.ID)
			}
			eg[f.Src] += f.Rate
			in[f.Dst] += f.Rate
		}
	}
	const tolAbs = 1e-9
	tol := 1 + 1e-3
	for p := 0; p < s.Fabric.Ports; p++ {
		egLim := float64(s.Fabric.EgressCap[p] * egFac[p] * tol)
		inLim := float64(s.Fabric.IngressCap[p] * inFac[p] * tol)
		if eg[p] > egLim+tolAbs || in[p] > inLim+tolAbs {
			return fmt.Errorf("refsim: scheduler %q oversubscribed port %d (eg=%.3g/%.3g in=%.3g/%.3g)",
				s.Sched.Name(), p, eg[p], egLim, in[p], inLim)
		}
	}
	return nil
}

func coflowDone(c *coflow.Coflow) bool {
	for _, f := range c.Flows {
		if !f.Done {
			return false
		}
	}
	return true
}
