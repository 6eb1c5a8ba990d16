// Package coflow implements the coflow abstraction of Chowdhury & Stoica
// (HotNets'12) and the schedulers the paper builds on: a coflow is a group
// of parallel flows sharing a performance goal, and the metric of interest
// is the coflow completion time (CCT) — the finish time of the slowest flow
// — rather than any individual flow's completion.
//
// Flows are modelled at the fluid level over the non-blocking switch of
// Varys: each of the n machines has one ingress and one egress port of equal
// capacity, and contention happens only at ports. Schedulers assign rates;
// the event engine in internal/netsim advances time between completions.
//
// The scheduling epoch is the hottest path in the repository (every figure
// of the paper is millions of epochs), so the schedulers are allocation-free
// at steady state: dense per-port scratch buffers instead of per-epoch maps
// (see allocScratch), per-coflow live-flow caches maintained incrementally
// as flows complete (see Coflow.BeginSim), and one incremental allocator for
// the five ordered schedulers that re-keys only the coflows that moved and
// re-sorts only when membership or keys change (sparse.go). The schedulers
// serve only coflows whose cache a simulation started. The pre-optimized
// implementation is retained in internal/refsim and the two are pinned
// bit-identical by the equivalence tests in internal/netsim.
package coflow

import (
	"fmt"
	"math"
	"strings"
)

// Flow is one point-to-point transfer within a coflow, the 3-tuple
// [src, dst, volume] of the paper plus simulation state. It holds no
// pointers, so the GC never scans a coflow's flow block.
type Flow struct {
	ID   int
	Src  int     // egress port index
	Dst  int     // ingress port index
	Size float64 // bytes

	Remaining float64 // bytes left to transfer
	Rate      float64 // current rate, bytes/sec; set by schedulers
	Done      bool
	EndTime   float64 // simulation time the flow finished (valid once Done)
}

// Coflow is a set of parallel flows released together (the paper assumes
// all flows of an operator's shuffle start at the same time; the engine
// also supports staggered arrivals for the online schedulers).
type Coflow struct {
	ID      int
	Name    string
	Arrival float64 // seconds
	Flows   []*Flow

	// SentBytes accumulates bytes transferred so far; Aalo's D-CLAS uses it
	// to infer priority without prior knowledge.
	SentBytes float64
	// Completion is the CCT end time (valid once Completed).
	Completion float64
	Completed  bool

	// sim is the live-flow cache maintained by the event engine between
	// BeginSim and the end of a run; see BeginSim for the contract.
	sim simCache
	// schedKey is the current priority key (Γ for SEBF, remaining bytes
	// for SCF, queue index for Aalo, ...). It is owned by whichever
	// scheduler is driving this coflow; schedulers must not interleave
	// Allocate calls over the same coflows.
	schedKey float64
}

// simCache caches which flows of a coflow are still moving bytes and which
// ports they touch, so schedulers don't rescan the full flow list every
// epoch. egPorts/inPorts hold exactly the ports with at least one live
// flow, and egCnt/inCnt the per-port live-flow counts that make completion
// updates O(1) per flow; all four are carved from one []int.
type simCache struct {
	live             []*Flow // non-done flows, preserving Flows order; cap ≥ len(Flows)
	egPorts, inPorts []int   // ports with ≥1 live flow (unordered); cap = len(egCnt)
	egCnt, inCnt     []int   // per-port live-flow counts, len ≥ fabric ports

	// Incremental-allocation bookkeeping; see sparse.go. moved marks that
	// the coflow's progress state changed since its priority key was last
	// computed; keyed marks schedKey as a valid cache of that key; granted
	// marks that the last Allocate assigned this coflow nonzero rates;
	// blockEg/blockIn memoize the last port the coflow was found blocked on
	// (-1 when none), so re-checking a still-blocked coflow is O(1) instead
	// of O(ports touched). listed is orderState.sync's "in the active set"
	// mark, set and cleared within one call.
	moved, keyed, granted, listed bool
	blockEg, blockIn              int
}

// BeginSim (re)builds the live-flow cache for a simulation over a fabric of
// the given port count. The event engine calls it once per run after
// resetting flow state; from then on the cache is kept consistent by calling
// RefreshSim after marking flows Done. The schedulers, RefreshSim,
// Reactivate, LiveFlows and Finished read only the cache, so a coflow must
// have begun a simulation before it reaches any of them, and code that flips
// Flow.Done by hand without RefreshSim leaves the cache stale. The caches
// are sized once (see simCache), so only a first BeginSim allocates.
func (c *Coflow) BeginSim(ports int) {
	c.sim.moved = true
	c.sim.keyed = false
	c.sim.granted = false
	c.sim.blockEg, c.sim.blockIn = -1, -1
	if cap(c.sim.live) < len(c.Flows) {
		c.sim.live = make([]*Flow, 0, len(c.Flows))
	}
	c.sim.live = c.sim.live[:0]
	if len(c.sim.egCnt) < ports {
		buf := make([]int, 4*ports)
		c.sim.egCnt, c.sim.inCnt = buf[:ports:ports], buf[ports:2*ports:2*ports]
		c.sim.egPorts, c.sim.inPorts = buf[2*ports:2*ports:3*ports], buf[3*ports:3*ports:4*ports]
	}
	clear(c.sim.egCnt)
	clear(c.sim.inCnt)
	c.sim.egPorts, c.sim.inPorts = c.sim.egPorts[:0], c.sim.inPorts[:0]
	for _, f := range c.Flows {
		if f.Done {
			continue
		}
		c.sim.live = append(c.sim.live, f)
		if c.sim.egCnt[f.Src] == 0 {
			c.sim.egPorts = append(c.sim.egPorts, f.Src)
		}
		c.sim.egCnt[f.Src]++
		if c.sim.inCnt[f.Dst] == 0 {
			c.sim.inPorts = append(c.sim.inPorts, f.Dst)
		}
		c.sim.inCnt[f.Dst]++
	}
}

// RefreshSim drops flows that completed since the last refresh from the
// live-flow cache, updating the per-port counts and port sets incrementally.
// Batched by design: the engine calls it once per coflow per epoch (only for
// coflows that had completions), so a burst of simultaneous completions
// costs one compaction pass, not one per flow.
func (c *Coflow) RefreshSim() {
	w := 0
	for _, f := range c.sim.live {
		if !f.Done {
			c.sim.live[w] = f
			w++
			continue
		}
		c.sim.egCnt[f.Src]--
		if c.sim.egCnt[f.Src] == 0 {
			c.sim.egPorts = removePort(c.sim.egPorts, f.Src)
		}
		c.sim.inCnt[f.Dst]--
		if c.sim.inCnt[f.Dst] == 0 {
			c.sim.inPorts = removePort(c.sim.inPorts, f.Dst)
		}
	}
	c.sim.live = c.sim.live[:w]
}

// Reactivate re-enters a previously-Done flow of this coflow into the
// live-flow cache, used by the failure model when a retransmission policy
// voids already-delivered bytes. The caller must reset the flow's progress
// state (Done, Remaining, Rate) before calling; Reactivate only repairs the
// cache: it re-appends the flow to the live list and restores the per-port
// counts and port sets. Appending (rather than re-sorting into Flows order)
// is deliberate — live-flow order never affects scheduler results, and the
// equivalence-pinned fault-free paths never call Reactivate. This list is
// also the only place the engine's flow passes find a resurrected flow: it is
// visited at the end of its coflow.
func (c *Coflow) Reactivate(f *Flow) {
	c.sim.moved = true
	c.sim.live = append(c.sim.live, f)
	if c.sim.egCnt[f.Src] == 0 {
		c.sim.egPorts = append(c.sim.egPorts, f.Src)
	}
	c.sim.egCnt[f.Src]++
	if c.sim.inCnt[f.Dst] == 0 {
		c.sim.inPorts = append(c.sim.inPorts, f.Dst)
	}
	c.sim.inCnt[f.Dst]++
}

// Auditable is implemented by schedulers that maintain an explicit serving
// order (Varys/SEBF, FIFO, SCF, NCF, Aalo's D-CLAS queues).
// Telemetry probes use it to snapshot the decision the scheduler just made —
// which coflow is being served first and why a later one is starved.
type Auditable interface {
	// PriorityOrder returns the current serving order, highest priority
	// first. The slice is owned by the scheduler: read-only, valid only
	// until the next Allocate, and must be copied if retained. It reflects
	// the order used by the most recent Allocate call.
	PriorityOrder() []*Coflow
}

// removePort swap-removes p from the port set. Port-set order never affects
// results (it feeds max/min reductions and existence checks only).
func removePort(ports []int, p int) []int {
	for i, q := range ports {
		if q == p {
			ports[i] = ports[len(ports)-1]
			return ports[:len(ports)-1]
		}
	}
	return ports
}

// LiveFlows returns the cached non-done flows in Flows order, or nil before
// the coflow's first BeginSim. The returned slice is owned by the coflow:
// read-only, and invalidated by the next RefreshSim.
func (c *Coflow) LiveFlows() []*Flow { return c.sim.live }

// Finished reports, in O(1), whether every flow the live-flow cache tracks
// is done. Valid only after BeginSim.
func (c *Coflow) Finished() bool { return len(c.sim.live) == 0 }

// New builds a coflow from flow volumes. Zero-size flows are dropped. Only
// ID, Src, Dst and Size are read; the surviving flows are counted first and
// carved from one pointer-free block, so flows may be a caller's reused buffer.
func New(id int, name string, arrival float64, flows []Flow) *Coflow {
	c := &Coflow{ID: id, Name: name, Arrival: arrival}
	count := 0
	for i := range flows {
		if !(flows[i].Size <= 0) { // the skip rule below: NaN survives
			count++
		}
	}
	if count == 0 {
		return c
	}
	block := make([]Flow, count)
	c.Flows = make([]*Flow, count)
	k := 0
	for i := range flows {
		f := &flows[i]
		if f.Size <= 0 {
			continue
		}
		nf := &block[k]
		*nf = Flow{ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size, Remaining: f.Size}
		c.Flows[k] = nf
		k++
	}
	return c
}

// FromVolumes builds a coflow from an n×n volume matrix (bytes from i to j,
// row-major), skipping the diagonal and zero entries. The flows are counted
// first and carved from one allocation.
func FromVolumes(id int, name string, arrival float64, n int, vol []int64) (*Coflow, error) {
	if len(vol) != n*n {
		return nil, fmt.Errorf("coflow: volume matrix has %d entries, want %d", len(vol), n*n)
	}
	c := &Coflow{ID: id, Name: name, Arrival: arrival}
	count := 0
	for i := 0; i < n; i++ {
		for j, v := range vol[i*n : (i+1)*n] {
			if i != j && v > 0 {
				count++
			}
		}
	}
	if count == 0 {
		return c, nil
	}
	flows := make([]Flow, count)
	c.Flows = make([]*Flow, count)
	fid := 0
	for i := 0; i < n; i++ {
		for j, v := range vol[i*n : (i+1)*n] {
			if i == j || v <= 0 {
				continue
			}
			f := &flows[fid]
			*f = Flow{ID: fid, Src: i, Dst: j, Size: float64(v), Remaining: float64(v)}
			c.Flows[fid] = f
			fid++
		}
	}
	return c, nil
}

// TotalBytes returns the sum of flow sizes.
func (c *Coflow) TotalBytes() float64 {
	var s float64
	for _, f := range c.Flows {
		s += f.Size
	}
	return s
}

// RemainingBytes returns the bytes the coflow still has to move.
func (c *Coflow) RemainingBytes() float64 {
	var s float64
	for _, f := range c.Flows {
		if !f.Done {
			s += f.Remaining
		}
	}
	return s
}

// Width returns the number of flows (Aalo/NCF use it).
func (c *Coflow) Width() int { return len(c.Flows) }

// Bottleneck returns Γ, the maximum over ports of the coflow's remaining
// bytes traversing that port. Under exclusive use of the fabric with port
// capacity R, the minimum CCT is Γ/R — the quantity SEBF orders by and the
// bandwidth model of the paper's model (1.2).
func (c *Coflow) Bottleneck(n int) float64 {
	eg := make([]float64, n)
	in := make([]float64, n)
	var g float64
	for _, f := range c.Flows {
		if f.Done {
			continue
		}
		eg[f.Src] += f.Remaining
		in[f.Dst] += f.Remaining
		if eg[f.Src] > g {
			g = eg[f.Src]
		}
		if in[f.Dst] > g {
			g = in[f.Dst]
		}
	}
	return g
}

// bottleneckScratch computes the same Γ as Bottleneck without allocating:
// per-port sums accumulate in dense scratch (in the same flow order, so the
// floats round identically) and the max over final per-port sums equals the
// running max over prefix sums because remaining bytes are non-negative.
func (c *Coflow) bottleneckScratch(s *allocScratch) float64 {
	_, egPorts, inPorts := c.demandInto(s)
	var g float64
	for _, p := range egPorts {
		if s.egNeed[p] > g {
			g = s.egNeed[p]
		}
	}
	for _, p := range inPorts {
		if s.inNeed[p] > g {
			g = s.inNeed[p]
		}
	}
	clearDemand(s, egPorts, inPorts)
	return g
}

// demandInto accumulates the coflow's per-port remaining-byte demand into
// the dense scratch buffers and returns the live flows plus the port sets,
// straight from the live-flow cache (exactly the key sets the old demand
// maps had). Callers must clearDemand the returned port sets before the
// scratch is used again.
func (c *Coflow) demandInto(s *allocScratch) (flows []*Flow, egPorts, inPorts []int) {
	for _, f := range c.sim.live {
		s.egNeed[f.Src] += f.Remaining
		s.inNeed[f.Dst] += f.Remaining
	}
	return c.sim.live, c.sim.egPorts, c.sim.inPorts
}

// clearDemand zeroes exactly the scratch entries demandInto touched.
func clearDemand(s *allocScratch, egPorts, inPorts []int) {
	for _, p := range egPorts {
		s.egNeed[p] = 0
	}
	for _, p := range inPorts {
		s.inNeed[p] = 0
	}
}

// CCT returns the coflow completion time (relative to arrival). Asking for
// the CCT of a coflow that has not completed is an error, not a panic, so
// engines that hit an inconsistent state can propagate it.
func (c *Coflow) CCT() (float64, error) {
	if !c.Completed {
		return 0, fmt.Errorf("coflow: CCT of incomplete coflow %d (%s)", c.ID, c.Name)
	}
	return c.Completion - c.Arrival, nil
}

// Scheduler assigns rates to the active flows each scheduling epoch.
//
// egCap/inCap hold the per-port capacities (bytes/sec) the scheduler may
// hand out this epoch; implementations must ensure the sum of rates over
// each egress/ingress port does not exceed the respective capacity. Every
// scheduler here is work-conserving up to its policy: it should leave a
// port idle only when no active flow can use it.
type Scheduler interface {
	Name() string
	// Allocate sets Rate on every non-done flow of the active coflows
	// (flows it declines to serve must get rate 0, not stale values).
	Allocate(now float64, active []*Coflow, egCap, inCap []float64)
}

// ---------------------------------------------------------------------------
// Allocation helpers shared by the schedulers.
// ---------------------------------------------------------------------------

// resetRates zeroes all rates so schedulers start from a clean slate.
func resetRates(active []*Coflow) {
	for _, c := range active {
		for _, f := range c.Flows {
			f.Rate = 0
		}
	}
}

// maddAllocate implements Varys' Minimum Allocation for Desired Duration:
// the coflow's flows all finish together at τ = max over its ports of
// remaining/capacity, so flow f gets rate remaining_f/τ. Rates are deducted
// from the residual capacities. Returns the τ achieved (+Inf if a needed
// port has no capacity, in which case no rates are assigned).
func maddAllocate(c *Coflow, egCap, inCap []float64, s *allocScratch) float64 {
	flows, egPorts, inPorts := c.demandInto(s)
	tau := 0.0
	blocked := false
	for _, p := range egPorts {
		if egCap[p] <= 0 {
			blocked = true
			break
		}
		if t := s.egNeed[p] / egCap[p]; t > tau {
			tau = t
		}
	}
	if !blocked {
		for _, p := range inPorts {
			if inCap[p] <= 0 {
				blocked = true
				break
			}
			if t := s.inNeed[p] / inCap[p]; t > tau {
				tau = t
			}
		}
	}
	clearDemand(s, egPorts, inPorts)
	if blocked {
		return math.Inf(1)
	}
	if tau == 0 {
		return 0
	}
	for _, f := range flows {
		if f.Done {
			continue
		}
		r := f.Remaining / tau
		f.Rate += r
		egCap[f.Src] -= r
		inCap[f.Dst] -= r
	}
	return tau
}

// waterFill distributes the residual capacity max-min fairly across the
// given flows (progressive filling). Rates are added on top of any rates
// already assigned and deducted from the capacities. flows is the caller's
// scratch: the flows not yet frozen are kept as its prefix, compacted in
// place in their original order, so its contents are undefined on return.
//
// Each level grants every unfrozen flow the common increment α, the least
// residual ÷ unfrozen count over the ports in use, then freezes the flows on
// saturated ports. The per-port counts are built once and decremented as
// flows freeze, so a level costs O(unfrozen flows + ports in use). The grant
// and freeze passes visit the unfrozen flows in their original order, so
// every sum rounds as it would in a walk over all of them.
func waterFill(flows []*Flow, egCap, inCap []float64, s *allocScratch) {
	egT, inT := s.egTouched[:0], s.inTouched[:0]
	live := flows[:0]
	for _, f := range flows {
		if f.Done {
			continue
		}
		live = append(live, f)
		if s.egCnt[f.Src] == 0 {
			egT = append(egT, f.Src)
		}
		s.egCnt[f.Src]++
		if s.inCnt[f.Dst] == 0 {
			inT = append(inT, f.Dst)
		}
		s.inCnt[f.Dst]++
	}
	for len(live) > 0 {
		alpha := math.Inf(1)
		egT, alpha = tightest(egT, egCap, s.egCnt, alpha)
		inT, alpha = tightest(inT, inCap, s.inCnt, alpha)
		if math.IsInf(alpha, 1) || alpha <= 0 {
			break // no capacity left anywhere: grant nothing more
		}
		for _, f := range live {
			f.Rate += alpha
			egCap[f.Src] -= alpha
			inCap[f.Dst] -= alpha
		}
		// Freeze flows on saturated ports.
		const eps = 1e-12
		w := 0
		for _, f := range live {
			if egCap[f.Src] <= eps || inCap[f.Dst] <= eps {
				s.egCnt[f.Src]--
				s.inCnt[f.Dst]--
				continue
			}
			live[w] = f
			w++
		}
		if w == len(live) {
			// Defensive: guarantee progress even with degenerate float
			// behaviour by freezing the first flow on the fullest port.
			best, bestCap := 0, math.Inf(1)
			for i, f := range live {
				if c := math.Min(egCap[f.Src], inCap[f.Dst]); c < bestCap {
					best, bestCap = i, c
				}
			}
			s.egCnt[live[best].Src]--
			s.inCnt[live[best].Dst]--
			w = best + copy(live[best:], live[best+1:])
		}
		live = live[:w]
	}
	for _, p := range egT {
		s.egCnt[p] = 0
	}
	for _, p := range inT {
		s.inCnt[p] = 0
	}
	s.egTouched, s.inTouched = egT, inT
}

// tightest drops the ports left without unfrozen flows from ports, keeping
// the rest in order, and lowers alpha to the least residual ÷ unfrozen count
// among them.
func tightest(ports []int, capacity []float64, cnt []int, alpha float64) ([]int, float64) {
	w := 0
	for _, p := range ports {
		if cnt[p] == 0 {
			continue
		}
		ports[w] = p
		w++
		if a := capacity[p] / float64(cnt[p]); a < alpha {
			alpha = a
		}
	}
	return ports[:w], alpha
}

// activeFlows flattens the live flows of the active coflows into the
// scratch flow buffer, preserving (coflow, flow) order.
func activeFlows(active []*Coflow, s *allocScratch) []*Flow {
	out := s.flows[:0]
	for _, c := range active {
		out = append(out, c.sim.live...)
	}
	s.flows = shrink(s.flows, out)
	return out
}

// ---------------------------------------------------------------------------
// Schedulers.
// ---------------------------------------------------------------------------

// orderedMADD is the shared engine of the priority-ordered schedulers: it
// serves coflows in priority order, giving each MADD rates from the residual
// capacity, then backfills leftovers max-min fairly across all remaining
// flows (work conservation, as in Varys).
//
// The serving order persists across epochs. Policies with static keys
// (arrival time, width) re-sort only when the active-set membership changes;
// dynamic policies (Γ, remaining bytes, bytes sent) recompute the keys of the
// coflows the engine marked moved, once per epoch — not once per comparison,
// as the pre-optimized code did. A membership change keeps the survivors in
// their previous order and appends the arrivals (orderState.sync), so the
// insertion sort only moves arrivals and drifted keys.
type orderedMADD struct {
	name string
	// key computes the coflow's priority (smaller serves first; ties break
	// by coflow ID, or by arrival then ID under tieArrival).
	key func(c *Coflow, s *allocScratch) float64
	// dynamic marks keys that drift as bytes move, forcing a per-epoch
	// re-key of the moved coflows even with unchanged membership.
	dynamic  bool
	backfill bool
	// tieArrival serves equal keys FIFO (Aalo's order within a queue).
	tieArrival bool

	scratch allocScratch
	ord     orderState
	// sparse holds the grant bookkeeping of the incremental Allocate (see
	// sparse.go, where Allocate lives).
	sparse sparseState
}

func (o *orderedMADD) Name() string { return o.name }

// PriorityOrder implements Auditable: the persistent serving order the last
// Allocate used (SEBF's Γ order, FIFO's arrival order, ...).
func (o *orderedMADD) PriorityOrder() []*Coflow { return o.ord.order }

// NewVarys returns the Varys scheduler: Smallest Effective Bottleneck First
// ordering with MADD allocation and work-conserving backfill (SIGCOMM'14).
func NewVarys() Scheduler {
	return &orderedMADD{
		name:     "varys-sebf",
		key:      func(c *Coflow, s *allocScratch) float64 { return c.bottleneckScratch(s) },
		dynamic:  true,
		backfill: true,
	}
}

// NewFIFO returns first-come-first-served coflow scheduling with MADD rates,
// ties by ID. FIFO-LM of Qiu et al. without the multiplexing.
func NewFIFO() Scheduler {
	return &orderedMADD{
		name:     "fifo",
		key:      func(c *Coflow, _ *allocScratch) float64 { return c.Arrival },
		backfill: true,
	}
}

// NewSCF returns Smallest (remaining) Coflow First — the size-based
// counterpart of SEBF.
func NewSCF() Scheduler {
	return &orderedMADD{
		name: "scf",
		key: func(c *Coflow, _ *allocScratch) float64 {
			var r float64
			for _, f := range c.sim.live {
				r += f.Remaining
			}
			return r
		},
		dynamic:  true,
		backfill: true,
	}
}

// NewNCF returns Narrowest Coflow First (fewest flows first).
func NewNCF() Scheduler {
	return &orderedMADD{
		name:     "ncf",
		key:      func(c *Coflow, _ *allocScratch) float64 { return float64(len(c.Flows)) },
		backfill: true,
	}
}

// NewAalo returns Aalo's D-CLAS (SIGCOMM'15): coflows are binned by bytes
// sent so far into discretized priority queues with geometrically growing
// thresholds; lower queues get strict priority, FIFO within a queue, MADD
// rates, leftover capacity backfilled.
func NewAalo() Scheduler {
	return &orderedMADD{
		name:       "aalo-dclas",
		key:        dclasQueue,
		dynamic:    true,
		backfill:   true,
		tieArrival: true,
	}
}

// D-CLAS thresholds, Aalo's defaults: queue 0 holds coflows that have sent
// under 10 MB, and each further queue's bound is ten times the previous.
const (
	dclasFirstThreshold = 10e6
	dclasMultiplier     = 10
)

// dclasQueue is Aalo's key: the index of the D-CLAS queue the coflow's
// SentBytes fall in.
func dclasQueue(c *Coflow, _ *allocScratch) float64 {
	q := 0
	th := dclasFirstThreshold
	for c.SentBytes >= th && q < 32 {
		th *= dclasMultiplier
		q++
	}
	return float64(q)
}

// PerFlowFair ignores coflow boundaries entirely and shares every port
// max-min fairly across individual flows — the TCP-like baseline coflow
// papers compare against.
type PerFlowFair struct{}

// Name implements Scheduler.
func (PerFlowFair) Name() string { return "per-flow-fair" }

// Allocate implements Scheduler.
func (PerFlowFair) Allocate(_ float64, active []*Coflow, egCap, inCap []float64) {
	resetRates(active)
	s := scratchPool.Get().(*allocScratch)
	s.ensure(len(egCap))
	waterFill(activeFlows(active, s), egCap, inCap, s)
	scratchPool.Put(s)
}

// SequentialByDest reproduces the uncoordinated "worst schedule" of the
// paper's Figure 2(a): senders flush data one destination at a time in
// destination index order, so a single ingress link is contended while the
// others idle. Only flows towards the lowest-indexed destination with
// pending traffic receive bandwidth each epoch.
type SequentialByDest struct{}

// Name implements Scheduler.
func (SequentialByDest) Name() string { return "sequential-by-dest" }

// Allocate implements Scheduler.
func (SequentialByDest) Allocate(_ float64, active []*Coflow, egCap, inCap []float64) {
	resetRates(active)
	s := scratchPool.Get().(*allocScratch)
	s.ensure(len(egCap))
	flows := activeFlows(active, s)
	cur := -1
	for _, f := range flows {
		if cur == -1 || f.Dst < cur {
			cur = f.Dst
		}
	}
	subset := flows[:0]
	for _, f := range flows {
		if f.Dst == cur {
			subset = append(subset, f)
		}
	}
	waterFill(subset, egCap, inCap, s)
	scratchPool.Put(s)
}

// Schedulers is the one table of coflow-scheduler names, in the order the
// chaos sweep and the telemetry experiment run them. New builds a fresh
// instance on every call: the ordered schedulers carry per-simulation state
// and must never be shared between engines. Read-only.
var Schedulers = []struct {
	Name string
	New  func() Scheduler
}{
	{"varys", NewVarys},
	{"fifo", NewFIFO},
	{"scf", NewSCF},
	{"ncf", NewNCF},
	{"aalo", NewAalo},
	{"per-flow-fair", func() Scheduler { return PerFlowFair{} }},
	{"sequential-by-dest", func() Scheduler { return SequentialByDest{} }},
}

// ByName returns a fresh instance of the scheduler the table names name.
func ByName(name string) (Scheduler, error) {
	for _, s := range Schedulers {
		if s.Name == name {
			return s.New(), nil
		}
	}
	return nil, fmt.Errorf("unknown coflow scheduler %q (want %s)", name, Names())
}

// Names lists the table's names in table order, comma-separated.
func Names() string {
	names := make([]string, len(Schedulers))
	for i, s := range Schedulers {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}
