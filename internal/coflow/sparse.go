package coflow

// Incremental allocation: orderedMADD.Allocate, the one allocator behind the
// five ordered schedulers — Varys/SEBF, FIFO, SCF, NCF and Aalo — costs what
// *changed* since the last epoch, not everything active (DESIGN.md §16), and
// reports the coflows it granted so the engine can restrict its own flow
// passes to them (netsim.Simulator.EventHorizon).
//
// Every shortcut below is a proof-carrying no-op against the from-scratch
// epoch (re-key everything, sort, MADD every coflow, backfill), which
// internal/refsim keeps frozen as the reference:
//
//   - priority keys are cached per coflow and recomputed only when the
//     engine marked the coflow moved (bytes advanced, a flow completed or
//     was reactivated, a failure voided progress). A clean coflow's key is
//     a pure function of unchanged state, so the cached float is the bit
//     a full re-key would have produced;
//   - the persistent order is re-sorted only when membership changed or a
//     recomputed key differs from its cached value. Sorting an
//     already-sorted slice is the identity permutation, so skipping it is
//     exact;
//   - a coflow whose port set touches a port with no residual capacity is
//     skipped before demand accumulation: maddAllocate's blocked branch
//     (the early break over the same port sets) has no state effects, so
//     not calling it at all is exact. The last blocking port is memoized,
//     making the re-check O(1) while the port stays saturated;
//   - past the memo, the blocked test may scan the saturated ports instead
//     of the coflow's port set. serve lists every port with capacity ≤ 0
//     when it starts and, after each grant, adds the served coflow's ports
//     the grant drove to ≤ 0. That keeps the list exactly {p : cap[p] ≤ 0}
//     without duplicates: the served coflow was not blocked, so all its
//     ports were above 0 before the grant; a grant changes only its own
//     ports; and grants only subtract. "Some port of the coflow is on the
//     list" (egCnt[p] > 0, the port-set membership) is then the same
//     boolean as "some port of the set has capacity ≤ 0", so each side
//     walks whichever of the two is shorter;
//   - the work-conserving backfill is skipped whenever any coflow was
//     blocked: that coflow's live flows sit unfrozen on a port with
//     capacity ≤ 0, MADD grants only ever subtract capacity, so
//     water-filling's first level computes α ≤ 0 and freezes everything
//     without granting — a pure no-op on rates and capacities;
//   - rate resets walk only the coflows granted rates by the previous
//     Allocate (writing 0 over 0 is the identity). When the backfill ran,
//     every active coflow was granted, and the reset zeroes every flow of
//     the active set. Done flows dropped from the live cache may keep a
//     stale Rate that a full reset would have zeroed; no reader observes
//     done flows' rates (the engine and telemetry iterate live flows only).
//
// The engine's half of the contract: start every coflow's cache (BeginSim)
// before it reaches Allocate, call MarkSimMoved on every coflow whose
// progress state changes — marking one that did not move only recomputes
// the key it already had — and, to restrict its flow passes to rate-carrying
// coflows, read SimGranted/LastGrantDense.

// SparseAllocator is implemented by schedulers that report which coflows
// their last Allocate granted rates. netsim.Session restricts its flow
// passes to those coflows (Simulator.EventHorizon) only for schedulers that
// implement this interface; for the rest the flag is inert.
type SparseAllocator interface {
	Scheduler
	// LastGrantDense reports whether the last Allocate's backfill granted
	// rates across the whole active set (so the engine must scan every live
	// flow rather than just the granted coflows). When it reports false,
	// exactly the coflows with SimGranted carry nonzero rates.
	LastGrantDense() bool
}

// MarkSimMoved records that the coflow's progress state (remaining bytes,
// live-flow set, or sent bytes) changed, invalidating any cached priority
// key. The event engine calls it on every coflow its advance pass visits.
func (c *Coflow) MarkSimMoved() { c.sim.moved = true }

// SimGranted reports whether the last Allocate granted this coflow nonzero
// rates. Meaningful only between Allocate calls.
func (c *Coflow) SimGranted() bool { return c.sim.granted }

// blockedOn reports whether maddAllocate would find one of the coflow's
// ports with no residual capacity — exactly its blocked condition, computed
// over the same cached port sets — without touching scratch state. The
// blocking port is memoized (validated against the live port counts, since
// completions can drop a port from the set) so steady-state re-checks of a
// still-blocked coflow cost O(1). Past the memo, each side walks whichever
// is shorter: the saturated ports satEg/satIn (exactly the ports with
// capacity ≤ 0, kept by serve), asking whether the coflow has a live flow
// there, or the coflow's port set, asking whether its capacity is ≤ 0.
func (c *Coflow) blockedOn(egCap, inCap []float64, satEg, satIn []int) bool {
	if h := c.sim.blockEg; h >= 0 && c.sim.egCnt[h] > 0 && egCap[h] <= 0 {
		return true
	}
	if h := c.sim.blockIn; h >= 0 && c.sim.inCnt[h] > 0 && inCap[h] <= 0 {
		return true
	}
	if p := blockingPort(c.sim.egPorts, c.sim.egCnt, egCap, satEg); p >= 0 {
		c.sim.blockEg = p
		return true
	}
	if p := blockingPort(c.sim.inPorts, c.sim.inCnt, inCap, satIn); p >= 0 {
		c.sim.blockIn = p
		return true
	}
	return false
}

// blockingPort returns a port of ports (a coflow's port set on one side,
// with its live-flow counts cnt) whose capacity is ≤ 0, or -1 if there is
// none; sat must list exactly the side's ports with capacity ≤ 0. cnt spans
// the ports the coflow's cache was begun with, which a caller may have
// sized below the capacity slice.
func blockingPort(ports, cnt []int, capacity []float64, sat []int) int {
	if len(sat) < len(ports) {
		for _, p := range sat {
			if p < len(cnt) && cnt[p] > 0 {
				return p
			}
		}
		return -1
	}
	for _, p := range ports {
		if capacity[p] <= 0 {
			return p
		}
	}
	return -1
}

// sparseState is the per-scheduler half of the incremental bookkeeping: the
// coflows granted rates by the last Allocate (for the O(granted) rate reset)
// and whether the backfill went dense.
type sparseState struct {
	granted []*Coflow
	dense   bool
}

// reset zeroes the rates the previous Allocate assigned: the granted
// coflows' live flows, or the dense reset when the backfill granted
// everywhere. Identical to resetRates where observable — flows outside the
// granted set already carry rate 0 (writing 0 over 0 is the identity).
// A session zeroes every rate when it stages or restores a coflow, so a new
// run starts from that state.
func (sp *sparseState) reset(active []*Coflow) {
	if sp.dense {
		sp.dense = false
		resetRates(active)
		for _, c := range sp.granted {
			c.sim.granted = false
		}
	} else {
		for _, c := range sp.granted {
			c.sim.granted = false
			for _, f := range c.sim.live {
				f.Rate = 0
			}
		}
	}
	clear(sp.granted)
	sp.granted = sp.granted[:0]
}

// serve runs the MADD pass over the priority order with the blocked-coflow
// skip, recording grants. Returns whether any coflow was blocked (which
// makes the work-conserving backfill a guaranteed no-op; see file comment).
// It lists the saturated ports once, then adds those each grant saturates.
// The lists borrow s's touched-port buffers, which hold every port without
// reallocating (each list has no duplicates); their owner, waterFill, runs
// after serve and starts them empty.
func (sp *sparseState) serve(order []*Coflow, egCap, inCap []float64, s *allocScratch) (anyBlocked bool) {
	satEg, satIn := saturated(s.egTouched[:0], egCap), saturated(s.inTouched[:0], inCap)
	for _, c := range order {
		if c.blockedOn(egCap, inCap, satEg, satIn) {
			anyBlocked = true
			continue
		}
		maddAllocate(c, egCap, inCap, s)
		c.sim.granted = true
		sp.granted = append(sp.granted, c)
		for _, p := range c.sim.egPorts {
			if egCap[p] <= 0 {
				satEg = append(satEg, p)
			}
		}
		for _, p := range c.sim.inPorts {
			if inCap[p] <= 0 {
				satIn = append(satIn, p)
			}
		}
	}
	return anyBlocked
}

// saturated appends to sat the ports whose capacity is ≤ 0.
func saturated(sat []int, capacity []float64) []int {
	for p, c := range capacity {
		if c <= 0 {
			sat = append(sat, p)
		}
	}
	return sat
}

// LastGrantDense implements SparseAllocator.
func (o *orderedMADD) LastGrantDense() bool { return o.sparse.dense }

// Allocate re-keys the coflows that moved, re-sorts when membership or a key
// changed, serves the order with MADD rates skipping blocked coflows, and
// backfills unless the backfill is provably a no-op (see the file comment).
func (o *orderedMADD) Allocate(_ float64, active []*Coflow, egCap, inCap []float64) {
	o.sparse.reset(active)
	o.scratch.ensure(len(egCap))
	memb := o.ord.sync(active)
	if memb || o.dynamic {
		changed := memb
		for _, c := range o.ord.order {
			if c.sim.keyed && !c.sim.moved {
				continue
			}
			k := o.key(c, &o.scratch)
			c.sim.moved, c.sim.keyed = false, true
			if k != c.schedKey {
				c.schedKey = k
				changed = true
			}
		}
		if changed {
			sortByKey(o.ord.order, o.tieArrival)
		}
	}
	anyBlocked := o.sparse.serve(o.ord.order, egCap, inCap, &o.scratch)
	if o.backfill && !anyBlocked {
		waterFill(activeFlows(active, &o.scratch), egCap, inCap, &o.scratch)
		o.sparse.dense = true
	}
}
