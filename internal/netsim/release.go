package netsim

// Releasing completed coflows (Simulator.ReleaseCompleted): a long-lived
// session keeps in memory what is in flight, not what it ever admitted.
//
// Once complete, a coflow takes part in nothing but Session.Digest, and
// there it contributes its ID, arrival, completion and flow count — every
// flow of it digests as (+0 bytes remaining, done). A tombstone keeps those
// four words, so a releasing session digests bit for bit like one that
// retains everything; the digest is sequential (FNV-1a in admission order)
// and pinned by the service's goldens, which is why 32 bytes per retired
// coflow stay behind instead of nothing.

import "math"

// tombstone is what a released coflow leaves in the session.
type tombstone struct {
	id         int
	arrival    float64
	completion float64
	flows      int
}

// leavingTomb is a coflow on its way out of `all`: its tombstone and the
// number of older tombstones that precede it in admission order.
type leavingTomb struct {
	tombstone
	rank int
}

// releaseSlack is how many completed coflows a session tolerates before it
// compacts; with the half-of-resident rule below it makes a release
// amortised O(1) per coflow.
const releaseSlack = 32

// releaseCompleted reduces completed coflows to tombstones once more than
// releaseSlack of them, and more than half the resident list, are complete.
func (ss *Session) releaseCompleted() {
	done := len(ss.rep.CCTs) - len(ss.tombs)
	if done <= releaseSlack || done <= len(ss.all)/2 {
		return
	}
	ss.releaseAll()
}

// releaseAll reduces every completed resident coflow to a tombstone. The
// tombstone list stays in admission order: a leaving coflow is spliced in
// behind the rank[i] older tombstones that were admitted before it. Usually
// that is the tail and the splice is an append; a long-lived coflow that
// outlasted younger ones moves only the tombstones of those younger ones.
func (ss *Session) releaseAll() {
	out := ss.leaving[:0]
	w := 0
	for i, c := range ss.all {
		if c.Completed {
			out = append(out, leavingTomb{
				tombstone{id: c.ID, arrival: c.Arrival, completion: c.Completion, flows: len(c.Flows)},
				ss.rank[i],
			})
			continue
		}
		ss.all[w], ss.rank[w] = c, ss.rank[i]+len(out)
		w++
	}
	clear(ss.all[w:]) // do not pin released coflows (and their flows) in memory
	ss.all, ss.rank, ss.leaving = ss.all[:w], ss.rank[:w], out

	old := len(ss.tombs)
	for range out {
		ss.tombs = append(ss.tombs, tombstone{})
	}
	// Back to front: leaver k lands behind its rank older tombstones and the
	// k leavers before it; the older tombstones behind it shift up by k+1.
	for k := len(out) - 1; k >= 0; k-- {
		at := out[k].rank
		copy(ss.tombs[at+k+1:], ss.tombs[at:old])
		ss.tombs[at+k] = out[k].tombstone
		old = at
	}
}

// fnv1a is the running state of the 64-bit FNV-1a hash Session.Digest folds
// its words into, eight little-endian bytes per word.
type fnv1a uint64

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	mask64      = 1<<64 - 1
	// Folding a zero byte multiplies the state by the prime, so the word 0
	// multiplies it by A = prime⁸, and the word 1 — one byte 1, seven bytes
	// 0 — takes x to (x ⊕ 1)·A. All arithmetic is mod 2⁶⁴.
	fnvA = fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 *
		fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 & mask64
	// A done flow is the words 0, 1: F(x) = (x·A ⊕ 1)·A = x·A² ± A, plus
	// when x is even. F flips the parity of x (A is odd), so two flows are
	// G(x) = (x·A² ± A)·A² ∓ A = x·A⁴ ± (A³ − A) and G keeps it: k pairs of
	// flows are x·Bᵏ ± C·(1 + B + … + Bᵏ⁻¹) with the sign of the first.
	fnvB = fnvA * fnvA * fnvA * fnvA & mask64
	fnvC = (fnvA*fnvA*fnvA - fnvA) & mask64
)

// fnvPow[k] is prime^k: what k zero bytes multiply the state by.
var fnvPow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime64
	}
	return pow
}()

// mix folds one word. Its zero high bytes — most of a count, an ID or a
// flag — are folded in one multiplication.
func (h *fnv1a) mix(v uint64) {
	x := uint64(*h)
	k := 8
	for ; v != 0; k-- {
		x = (x ^ v&0xff) * fnvPrime64
		v >>= 8
	}
	*h = fnv1a(x * fnvPow[k])
}

// doneFlows folds n flows that ended done with +0 bytes remaining — per flow
// the words 0 and 1, exactly what Digest folds for a resident flow in that
// state — in O(log n): Bᵏ and the geometric sum by repeated squaring (see the
// constants). The cost of a tombstone must not depend on a flow count an
// image may have forged.
func (h *fnv1a) doneFlows(n int) {
	x := uint64(*h)
	sign := 1 - 2*(x&1)              // ±1 mod 2⁶⁴: what ⊕ 1 adds to a state of x's parity
	pow, sum := uint64(1), uint64(0) // Bᵉ and 1 + … + Bᵉ⁻¹ for the e pairs folded so far
	q, r := uint64(fnvB), uint64(1)  // the same for a block of m = 1, 2, 4, … pairs
	for k := uint(n) / 2; k > 0; k >>= 1 {
		if k&1 == 1 {
			pow, sum = pow*q, sum*q+r
		}
		q, r = q*q, r*(q+1)
	}
	x = x*pow + sign*fnvC*sum
	if n&1 == 1 {
		x = (x*fnvA ^ 1) * fnvA
	}
	*h = fnv1a(x)
}

// tomb folds a released coflow exactly as Digest folds a resident completed
// one: the header words, then its flows, all done.
func (h *fnv1a) tomb(t *tombstone) {
	h.mix(uint64(t.id))
	h.mix(math.Float64bits(t.arrival))
	h.mix(1)
	h.mix(math.Float64bits(t.completion))
	h.mix(uint64(t.flows))
	h.doneFlows(t.flows)
}
