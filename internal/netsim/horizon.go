package netsim

// Event-horizon simulation: the sparse variant of the session event loop,
// engaged by Simulator.EventHorizon for schedulers that implement
// coflow.SparseAllocator on runs without Deps (DESIGN.md §16).
//
// The dense loop already jumps epoch-to-event — dt is the minimum over flow
// completions, arrivals, capacity events and failure edges — so the sparse
// loop cannot (and does not) skip epochs. What it changes is the cost *per*
// epoch, from O(pending + live flows) to O(coflows that changed):
//
//   - admission pops the eligible prefix of the arrival-sorted queue instead
//     of rescanning (and re-copying) the whole pending list every epoch.
//     With the queue sorted by arrival, the eligible set is exactly a
//     prefix, so the admissions and their order are the dense ones;
//   - the retirement scan runs only on epochs that could have produced a
//     newly-finished coflow: after an advance with completions, or after an
//     admission (a zero-flow coflow finishes on its admission epoch).
//     Nothing else finishes a coflow — failure edges only un-finish flows —
//     so skipped scans are scans that would have found nothing;
//   - the fused rate/usage/dt pass and the advance pass iterate only the
//     coflows the scheduler granted rates (SimGranted/LastGrantDense).
//     Ungranted flows carry rate 0: the dense pass adds 0.0 to the port
//     sums (exact — the sums start at +0 and never see negative terms, so
//     no term changes any bit) and moves no bytes for them. The iteration
//     order over granted flows — active order × live order — is the dense
//     flat-list order restricted to the granted set, so every float
//     accumulation (egUse/inUse, SentBytes, TotalBytes) rounds identically;
//   - the time to the next completion comes from a min-heap of projected
//     completion times (completionHeap below). Only rate-carrying flows
//     enter the heap — zero-rate flows (e.g. on fully failed ports) never
//     do. The heap is rebuilt each epoch: under the bit-identity contract
//     every granted flow's rate is freshly computed each epoch (MADD's τ
//     and water-filling's α drift as bytes move), so no projection survives
//     an epoch. The win is that only granted flows are projected at all.
//
// With Failures configured the flow passes fall back to the dense flat-list
// scans: restart-delivered reactivation appends to the *global* live list
// tail, which breaks the grouped-by-coflow ordering identity the granted
// iteration relies on. Scheduler-side sparsity (key caches, blocked skips,
// prefix admission, gated retirement) still applies.

import (
	"fmt"
	"math"
)

// completionEntry is one projected flow completion: at = now + rel with
// rel = Remaining/Rate. rel is carried alongside because (now + rel) - now
// is not rel in floats — the heap orders by absolute projection and the
// loop recovers the exact relative step from the stored rel.
type completionEntry struct {
	at  float64
	rel float64
}

// completionHeap is a binary min-heap of projected flow-completion times,
// keyed on the absolute projection. Grow-only storage; reset per epoch.
type completionHeap struct {
	ent []completionEntry
}

func (h *completionHeap) reset() { h.ent = h.ent[:0] }

func (h *completionHeap) len() int { return len(h.ent) }

// push inserts a projection. Callers must never push zero-rate flows: a
// flow with no rate has no projected completion (rel would be +Inf) and
// must not bound the epoch.
func (h *completionHeap) push(at, rel float64) {
	h.ent = append(h.ent, completionEntry{at: at, rel: rel})
	i := len(h.ent) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.ent[p].at <= h.ent[i].at {
			break
		}
		h.ent[p], h.ent[i] = h.ent[i], h.ent[p]
		i = p
	}
}

// pop removes the minimum-projection entry.
func (h *completionHeap) pop() {
	n := len(h.ent) - 1
	h.ent[0] = h.ent[n]
	h.ent = h.ent[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.ent[l].at < h.ent[m].at {
			m = l
		}
		if r < n && h.ent[r].at < h.ent[m].at {
			m = r
		}
		if m == i {
			return
		}
		h.ent[i], h.ent[m] = h.ent[m], h.ent[i]
		i = m
	}
}

// minRel returns the exact minimum relative time-to-completion among the
// pushed entries (+Inf when empty), consuming the minimal tie set. Float
// addition is monotone (rel₁ ≤ rel₂ ⟹ now+rel₁ ≤ now+rel₂), so the flow
// with the globally minimal rel projects onto the minimal absolute time;
// taking the min rel over the entries tied at that projection therefore
// recovers the bit-exact dense dt = min(Remaining/Rate).
func (h *completionHeap) minRel() float64 {
	if len(h.ent) == 0 {
		return math.Inf(1)
	}
	minAt := h.ent[0].at
	rel := h.ent[0].rel
	h.pop()
	for len(h.ent) > 0 && h.ent[0].at == minAt {
		if h.ent[0].rel < rel {
			rel = h.ent[0].rel
		}
		h.pop()
	}
	return rel
}

// loopSparse is the event-horizon event loop. It mirrors Session.loop
// stanza-for-stanza — every float expression, comparison and accumulation
// order is the dense one — with the per-epoch scans restricted to changed
// state as described in the file comment. Deviations from the dense body
// are commented inline with their exactness argument.
func (ss *Session) loopSparse(stop float64) error {
	s := ss.s
	sc := &s.scratch
	rep := ss.rep
	ports := s.fabric.Ports
	hz := s.Horizon
	sa := ss.sa
	egFac, inFac := sc.egFac[:ports], sc.inFac[:ports]
	egCap, inCap := sc.egCap[:ports], sc.inCap[:ports]
	egUse, inUse := sc.egUse[:ports], sc.inUse[:ports]
	downCnt := sc.downCnt[:ports]
	failEv := sc.failEv
	haveFail := ss.haveFail
	heap := &sc.horizon

	now := ss.now
	pending, active, liveFlows := ss.pending, ss.active, ss.live
	events, nextFail := ss.events, ss.nextFail
	save := func() {
		ss.now, ss.pending, ss.active, ss.live = now, pending, active, liveFlows
		ss.events, ss.nextFail = events, nextFail
	}

	// scanRetire arms the retirement scan. It starts armed (a resumed loop
	// re-checks once, exactly as the dense loop would on its first
	// iteration) and re-arms on the only transitions that can finish a
	// coflow: advance completions and admissions.
	scanRetire := true
	limit := ss.epochLimit()
	for {
		if ss.iter >= limit {
			save()
			return fmt.Errorf("netsim: exceeded %d epochs (scheduler %q livelock?)", s.MaxEpochs, s.sched.Name())
		}
		ss.iter++
		// Admissions: with no Deps, the eligible coflows are exactly the
		// arrival-sorted queue's prefix with Arrival ≤ now — same test, same
		// order, same arrival lift as the dense scan, without touching the
		// ineligible suffix.
		for len(pending) > 0 && pending[0].Arrival <= now+1e-12 {
			c := pending[0]
			pending = pending[1:]
			if c.Arrival < now {
				c.Arrival = now
			}
			active = append(active, c)
			if haveFail {
				liveFlows = append(liveFlows, c.LiveFlows()...)
			}
			scanRetire = true
			if s.Probe != nil {
				s.Probe.CoflowAdmitted(now, c)
			}
		}
		for len(events) > 0 && events[0].Time <= now+1e-12 {
			ev := events[0]
			events = events[1:]
			egFac[ev.Port] = ev.EgressFactor
			inFac[ev.Port] = ev.IngressFactor
		}
		for nextFail < len(failEv) && failEv[nextFail].time <= now+1e-12 {
			tr := failEv[nextFail]
			nextFail++
			if tr.up {
				downCnt[tr.port]--
			} else {
				downCnt[tr.port]++
				liveFlows = s.applyPortDown(tr, now, active, liveFlows, rep)
			}
			if s.Probe != nil {
				s.Probe.FailureEdge(now, tr.port, tr.up)
			}
			if ss.obs != nil {
				ss.obs.CapacityChanged(now)
			}
		}
		// Retirement, gated: coflows finish only through advance completions
		// or (zero-flow coflows) admission, both of which arm the scan; a
		// skipped scan is one the dense loop runs and finds nothing in.
		if scanRetire {
			scanRetire = false
			liveCF := active[:0]
			for _, c := range active {
				if c.Finished() {
					if !c.Completed {
						c.Completed = true
						c.Completion = now
						cct, err := c.CCT()
						if err != nil {
							save()
							return err
						}
						rep.CCTs[c.ID] = cct
						if ss.release {
							ss.keepWeight(c)
						}
						if s.Probe != nil {
							s.Probe.CoflowCompleted(now, c)
						}
					}
					continue
				}
				liveCF = append(liveCF, c)
			}
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
			// No Deps: the first eligible arrival is the queue head.
			next := pending[0].Arrival
			if hz >= 0 && next >= hz {
				now = hz
				break
			}
			if next > stop {
				break
			}
			if next > now {
				now = next
			}
			continue
		}

		// Scheduling epoch: identical capacity setup; Allocate runs the
		// scheduler's sparse path (key caches, blocked skips, granted set).
		rep.Epochs++
		for p := 0; p < ports; p++ {
			egCap[p] = s.fabric.EgressCap[p] * egFac[p]
			inCap[p] = s.fabric.IngressCap[p] * inFac[p]
			egUse[p], inUse[p] = 0, 0
		}
		if haveFail {
			for p, d := range downCnt {
				if d > 0 {
					egCap[p], inCap[p] = 0, 0
				}
			}
		}
		s.sched.Allocate(now, active, egCap, inCap)

		// Fused pass + completion heap. Without failures, iterate the
		// granted coflows in active order (the dense flat order restricted
		// to rate-carrying flows); with failures, the dense flat list.
		dt := math.Inf(1)
		heap.reset()
		grantDense := sa.LastGrantDense()
		if haveFail {
			for _, f := range liveFlows {
				if f.Rate < 0 {
					save()
					return fmt.Errorf("netsim: scheduler %q set negative rate %g on flow %d", s.sched.Name(), f.Rate, f.ID)
				}
				egUse[f.Src] += f.Rate
				inUse[f.Dst] += f.Rate
				if f.Rate > 0 {
					rel := f.Remaining / f.Rate
					heap.push(now+rel, rel)
				}
			}
		} else {
			for _, c := range active {
				if !grantDense && !c.SimGranted() {
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
						rel := f.Remaining / f.Rate
						heap.push(now+rel, rel)
					}
				}
			}
		}
		if t := heap.minRel(); t < dt {
			dt = t
		}
		const tolAbs = 1e-9
		tol := 1 + 1e-3
		for p := 0; p < ports; p++ {
			egLim := s.fabric.EgressCap[p] * egFac[p] * tol
			inLim := s.fabric.IngressCap[p] * inFac[p] * tol
			if haveFail && downCnt[p] > 0 {
				egLim, inLim = 0, 0
			}
			if egUse[p] > egLim+tolAbs || inUse[p] > inLim+tolAbs {
				save()
				return fmt.Errorf("netsim: scheduler %q oversubscribed port %d (eg=%.3g/%.3g in=%.3g/%.3g)",
					s.sched.Name(), p, egUse[p], egLim, inUse[p], inLim)
			}
		}

		// Epoch bounds: first pending arrival (the queue head — no Deps),
		// capacity events, failure edges, horizon, stop. Same expressions
		// and comparisons as the dense loop.
		if len(pending) > 0 {
			if t := pending[0].Arrival - now; t >= 0 && t < dt {
				dt = t
			}
		}
		if len(events) > 0 {
			if t := events[0].Time - now; t < dt {
				dt = t
			}
		}
		if nextFail < len(failEv) {
			if t := failEv[nextFail].time - now; t < dt {
				dt = t
			}
		}
		if hz >= 0 && now+dt > hz {
			dt = hz - now
		}
		if t := stop - now; t >= 0 && t < dt {
			dt = t
		}
		if math.IsInf(dt, 1) {
			save()
			return fmt.Errorf("%w: %d coflows active under scheduler %q", ErrStalled, len(active), s.sched.Name())
		}
		if s.Probe != nil {
			probeEg, probeIn := sc.probeEg[:ports], sc.probeIn[:ports]
			for p := 0; p < ports; p++ {
				probeEg[p] = s.fabric.EgressCap[p] * egFac[p]
				probeIn[p] = s.fabric.IngressCap[p] * inFac[p]
				if haveFail && downCnt[p] > 0 {
					probeEg[p], probeIn[p] = 0, 0
				}
			}
			s.Probe.EpochSample(now, dt, active, egUse, inUse, probeEg, probeIn)
		}

		// Advance over the same flow sequence the fused pass used; moved
		// coflows are marked for the scheduler's key caches.
		now += dt
		dirty := sc.dirty[:0]
		if haveFail {
			for _, f := range liveFlows {
				if f.Rate <= 0 {
					continue
				}
				moved := f.Rate * dt
				if moved > f.Remaining {
					moved = f.Remaining
				}
				f.Remaining -= moved
				f.Coflow.SentBytes += moved
				f.Coflow.MarkSimMoved()
				rep.TotalBytes += moved
				if f.Remaining <= completionEps {
					f.Remaining = 0
					f.Done = true
					f.EndTime = now
					if len(dirty) == 0 || dirty[len(dirty)-1] != f.Coflow {
						dirty = append(dirty, f.Coflow)
					}
				}
			}
			sc.dirty = dirty
			if len(dirty) > 0 {
				scanRetire = true
				for _, c := range dirty {
					c.RefreshSim()
				}
				w := 0
				for _, f := range liveFlows {
					if !f.Done {
						liveFlows[w] = f
						w++
					}
				}
				liveFlows = liveFlows[:w]
			}
		} else {
			for _, c := range active {
				if !grantDense && !c.SimGranted() {
					continue
				}
				// Every iterated live flow carries rate here (MADD grants
				// all live flows of a served coflow; a dense backfill grants
				// every unfrozen flow at least the first level's α), so the
				// coflow's key-relevant state is guaranteed to move.
				c.MarkSimMoved()
				for _, f := range c.LiveFlows() {
					if f.Rate <= 0 {
						continue
					}
					moved := f.Rate * dt
					if moved > f.Remaining {
						moved = f.Remaining
					}
					f.Remaining -= moved
					f.Coflow.SentBytes += moved
					rep.TotalBytes += moved
					if f.Remaining <= completionEps {
						f.Remaining = 0
						f.Done = true
						f.EndTime = now
						if len(dirty) == 0 || dirty[len(dirty)-1] != f.Coflow {
							dirty = append(dirty, f.Coflow)
						}
					}
				}
			}
			sc.dirty = dirty
			if len(dirty) > 0 {
				scanRetire = true
				for _, c := range dirty {
					c.RefreshSim()
				}
			}
		}
	}
	save()
	return nil
}
