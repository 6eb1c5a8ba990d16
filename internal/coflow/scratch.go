package coflow

// Allocation-free scratch state for the scheduling hot path.
//
// Every scheduler used to rebuild map[int]float64 demand maps, map[int]int
// fairness counters, and fresh order slices on every epoch — millions of
// heap allocations per simulation. The schedulers now own an allocScratch
// (or borrow one from a pool, for the stateless baselines) whose dense
// per-port buffers are sized once to the fabric and *reset* between uses by
// walking only the ports actually touched. Combined with the per-coflow
// live-flow caches (see Coflow.BeginSim), a steady-state scheduling epoch
// performs zero heap allocations — property-tested to be bit-identical to
// the retained map-based implementation in internal/refsim.

import (
	"slices"
	"sync"
)

// allocScratch holds the dense per-port buffers one scheduler needs for one
// epoch. All slices are sized to the fabric's port count by ensure and are
// zero/empty between uses (each consumer clears exactly what it touched).
// Not safe for concurrent use.
type allocScratch struct {
	// need accumulates per-port remaining bytes (maddAllocate, Bottleneck
	// keys); cnt counts unfrozen flows per port (waterFill, and doubles as
	// its "port already touched" marker).
	egNeed, inNeed []float64
	egCnt, inCnt   []int
	// touched lists the ports with a non-zero cnt entry so clearing is
	// O(ports touched), not O(ports). Before the backfill, the serving
	// pass borrows them as its saturated-port lists (sparseState.serve).
	egTouched, inTouched []int
	// flows is the reusable flow-list buffer activeFlows fills; the
	// destination filter and waterFill compact it in place.
	flows []*Flow
}

// ensure sizes the per-port buffers for a fabric of n ports, growing (never
// shrinking) so a scratch can serve fabrics of different sizes in turn.
func (s *allocScratch) ensure(n int) {
	if len(s.egNeed) >= n {
		return
	}
	s.egNeed = make([]float64, n)
	s.inNeed = make([]float64, n)
	s.egCnt = make([]int, n)
	s.inCnt = make([]int, n)
	if cap(s.egTouched) < n {
		s.egTouched = make([]int, 0, n)
		s.inTouched = make([]int, 0, n)
	}
}

// scratchPool serves the stateless value-type schedulers (PerFlowFair,
// SequentialByDest) that cannot own a scratch across calls without an API
// break. Get/Put is allocation-free at steady state.
var scratchPool = sync.Pool{New: func() any { return new(allocScratch) }}

// orderState keeps a scheduler's priority order alive across epochs so the
// full active set is not re-copied (and, for static-key policies, not even
// re-sorted) every epoch. A membership change keeps the survivors in their
// sorted relative order and appends the arrivals, so the re-sort that
// follows moves only the arrivals and the keys that drifted.
type orderState struct {
	order []*Coflow // the persistent, sorted serving order
	prev  []*Coflow // last epoch's active set, for membership detection
}

// sync reports whether the active-set membership changed since the previous
// epoch and, if it did, brings both buffers up to the current set in
// O(live + changed): order drops the departed coflows, keeping the others in
// place, and gains the arrivals at its end in active order. The comparison
// is element-wise pointer identity: the simulator compacts its active slice
// in place, so positions shift exactly when membership changes.
func (st *orderState) sync(active []*Coflow) bool {
	if slices.Equal(st.prev, active) {
		return false
	}
	for _, c := range active {
		c.sim.listed = true
	}
	kept := st.order[:0] // survivors in their old order, then the arrivals
	for _, from := range [2][]*Coflow{st.order, active} {
		for _, c := range from {
			if c.sim.listed {
				c.sim.listed = false
				kept = append(kept, c)
			}
		}
	}
	st.order = shrink(st.order, kept)
	st.prev = shrink(st.prev, append(st.prev[:0], active...))
	return true
}

// shrink returns next, a reslice of the reused buffer old, after clearing the
// pointers old held past next's end, so that a buffer which shrinks does not
// keep what it dropped reachable from its spare capacity.
func shrink[T any](old, next []*T) []*T {
	if len(next) < len(old) {
		clear(old[len(next):])
	}
	return next
}

// keyLess is the shared order predicate: schedKey, then (optionally) arrival,
// then ID. With unique coflow IDs this is a strict total order, so any
// correct sort yields the same unique permutation the original
// sort.SliceStable produced.
func keyLess(a, b *Coflow, tieArrival bool) bool {
	if a.schedKey != b.schedKey {
		return a.schedKey < b.schedKey
	}
	if tieArrival && a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// sortByKey insertion-sorts the order buffer by keyLess. Insertion sort is
// deliberate: it allocates nothing (sort.Slice's reflect.Swapper does), and
// the buffer is persistent across epochs — after orderState.sync it is the
// previous sorted order with the arrivals appended — so it is almost always
// already sorted or off by the arrivals and a few drifted keys, the
// adaptive case.
func sortByKey(order []*Coflow, tieArrival bool) {
	for i := 1; i < len(order); i++ {
		c := order[i]
		j := i - 1
		for j >= 0 && keyLess(c, order[j], tieArrival) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = c
	}
}
