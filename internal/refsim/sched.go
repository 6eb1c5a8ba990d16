package refsim

// Frozen pre-optimization copies of the internal/coflow schedulers. They
// operate on the same coflow.Coflow/Flow types as the production schedulers
// so an equivalence test can run either implementation over the same
// workload. Map-based demand accounting, per-epoch order slices, and
// sort.SliceStable are all retained on purpose.

import (
	"math"
	"sort"

	"ccf/internal/coflow"
)

// resetRates zeroes all rates so schedulers start from a clean slate.
func resetRates(active []*coflow.Coflow) {
	for _, c := range active {
		for _, f := range c.Flows {
			f.Rate = 0
		}
	}
}

// maddAllocate is the reference Minimum Allocation for Desired Duration.
func maddAllocate(c *coflow.Coflow, egCap, inCap []float64) float64 {
	egNeed := map[int]float64{}
	inNeed := map[int]float64{}
	for _, f := range c.Flows {
		if f.Done {
			continue
		}
		egNeed[f.Src] += f.Remaining
		inNeed[f.Dst] += f.Remaining
	}
	tau := 0.0
	for p, need := range egNeed {
		if egCap[p] <= 0 {
			return math.Inf(1)
		}
		if t := need / egCap[p]; t > tau {
			tau = t
		}
	}
	for p, need := range inNeed {
		if inCap[p] <= 0 {
			return math.Inf(1)
		}
		if t := need / inCap[p]; t > tau {
			tau = t
		}
	}
	if tau == 0 {
		return 0
	}
	for _, f := range c.Flows {
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

// waterFill is the reference progressive-filling max-min allocator.
func waterFill(flows []*coflow.Flow, egCap, inCap []float64) {
	st := make([]fillState, len(flows))
	unfrozen := 0
	for _, f := range flows {
		if !f.Done {
			unfrozen++
		}
	}
	for i, f := range flows {
		if f.Done {
			st[i].frozen = true
		}
	}
	for unfrozen > 0 {
		egCnt := map[int]int{}
		inCnt := map[int]int{}
		for i, f := range flows {
			if st[i].frozen {
				continue
			}
			egCnt[f.Src]++
			inCnt[f.Dst]++
		}
		alpha := math.Inf(1)
		for p, cnt := range egCnt {
			if a := egCap[p] / float64(cnt); a < alpha {
				alpha = a
			}
		}
		for p, cnt := range inCnt {
			if a := inCap[p] / float64(cnt); a < alpha {
				alpha = a
			}
		}
		if math.IsInf(alpha, 1) || alpha <= 0 {
			for i := range st {
				st[i].frozen = true
			}
			break
		}
		for i, f := range flows {
			if st[i].frozen {
				continue
			}
			f.Rate += alpha
			egCap[f.Src] -= alpha
			inCap[f.Dst] -= alpha
		}
		const eps = 1e-12
		newUnfrozen := 0
		for i, f := range flows {
			if st[i].frozen {
				continue
			}
			if egCap[f.Src] <= eps || inCap[f.Dst] <= eps {
				st[i].frozen = true
			} else {
				newUnfrozen++
			}
		}
		if newUnfrozen == unfrozen {
			freezeTightest(flows, st, egCap, inCap)
			newUnfrozen = unfrozen - 1
		}
		unfrozen = newUnfrozen
	}
}

type fillState struct{ frozen bool }

func freezeTightest(flows []*coflow.Flow, st []fillState, egCap, inCap []float64) {
	best, bestCap := -1, math.Inf(1)
	for i, f := range flows {
		if st[i].frozen {
			continue
		}
		c := math.Min(egCap[f.Src], inCap[f.Dst])
		if c < bestCap {
			best, bestCap = i, c
		}
	}
	if best >= 0 {
		st[best].frozen = true
	}
}

// activeFlows flattens the non-done flows of the active coflows.
func activeFlows(active []*coflow.Coflow) []*coflow.Flow {
	var out []*coflow.Flow
	for _, c := range active {
		for _, f := range c.Flows {
			if !f.Done {
				out = append(out, f)
			}
		}
	}
	return out
}

// orderedMADD is the reference priority-ordered scheduler engine.
type orderedMADD struct {
	name     string
	less     func(a, b *coflow.Coflow, n int) bool
	backfill bool
}

func (o orderedMADD) Name() string { return o.name }

func (o orderedMADD) Allocate(_ float64, active []*coflow.Coflow, egCap, inCap []float64) {
	resetRates(active)
	n := len(egCap)
	order := append([]*coflow.Coflow(nil), active...)
	sort.SliceStable(order, func(a, b int) bool { return o.less(order[a], order[b], n) })
	for _, c := range order {
		maddAllocate(c, egCap, inCap)
	}
	if o.backfill {
		waterFill(activeFlows(active), egCap, inCap)
	}
}

// NewVarys returns the reference SEBF+MADD scheduler.
func NewVarys() coflow.Scheduler {
	return orderedMADD{
		name: "ref-varys-sebf",
		less: func(a, b *coflow.Coflow, n int) bool {
			ga, gb := a.Bottleneck(n), b.Bottleneck(n)
			if ga != gb {
				return ga < gb
			}
			return a.ID < b.ID
		},
		backfill: true,
	}
}

// NewFIFO returns the reference arrival-ordered scheduler.
func NewFIFO() coflow.Scheduler {
	return orderedMADD{
		name: "ref-fifo",
		less: func(a, b *coflow.Coflow, _ int) bool {
			if a.Arrival != b.Arrival {
				return a.Arrival < b.Arrival
			}
			return a.ID < b.ID
		},
		backfill: true,
	}
}

// NewSCF returns the reference smallest-remaining-coflow-first scheduler.
func NewSCF() coflow.Scheduler {
	return orderedMADD{
		name: "ref-scf",
		less: func(a, b *coflow.Coflow, _ int) bool {
			ra, rb := a.RemainingBytes(), b.RemainingBytes()
			if ra != rb {
				return ra < rb
			}
			return a.ID < b.ID
		},
		backfill: true,
	}
}

// NewNCF returns the reference narrowest-coflow-first scheduler.
func NewNCF() coflow.Scheduler {
	return orderedMADD{
		name: "ref-ncf",
		less: func(a, b *coflow.Coflow, _ int) bool {
			wa, wb := a.Width(), b.Width()
			if wa != wb {
				return wa < wb
			}
			return a.ID < b.ID
		},
		backfill: true,
	}
}

// Aalo is the reference D-CLAS scheduler.
type Aalo struct {
	FirstThreshold float64
	Multiplier     float64
}

// NewAalo returns a reference Aalo with the paper defaults.
func NewAalo() *Aalo { return &Aalo{FirstThreshold: 10e6, Multiplier: 10} }

// Name implements coflow.Scheduler.
func (a *Aalo) Name() string { return "ref-aalo-dclas" }

func (a *Aalo) queueOf(c *coflow.Coflow) int {
	q := 0
	th := a.FirstThreshold
	for c.SentBytes >= th && q < 32 {
		th *= a.Multiplier
		q++
	}
	return q
}

// Allocate implements coflow.Scheduler.
func (a *Aalo) Allocate(_ float64, active []*coflow.Coflow, egCap, inCap []float64) {
	resetRates(active)
	order := append([]*coflow.Coflow(nil), active...)
	sort.SliceStable(order, func(x, y int) bool {
		qx, qy := a.queueOf(order[x]), a.queueOf(order[y])
		if qx != qy {
			return qx < qy
		}
		if order[x].Arrival != order[y].Arrival {
			return order[x].Arrival < order[y].Arrival
		}
		return order[x].ID < order[y].ID
	})
	for _, c := range order {
		maddAllocate(c, egCap, inCap)
	}
	waterFill(activeFlows(active), egCap, inCap)
}

// PerFlowFair is the reference coflow-agnostic max-min baseline.
type PerFlowFair struct{}

// Name implements coflow.Scheduler.
func (PerFlowFair) Name() string { return "ref-per-flow-fair" }

// Allocate implements coflow.Scheduler.
func (PerFlowFair) Allocate(_ float64, active []*coflow.Coflow, egCap, inCap []float64) {
	resetRates(active)
	waterFill(activeFlows(active), egCap, inCap)
}

// SequentialByDest is the reference uncoordinated worst-schedule baseline.
type SequentialByDest struct{}

// Name implements coflow.Scheduler.
func (SequentialByDest) Name() string { return "ref-sequential-by-dest" }

// Allocate implements coflow.Scheduler.
func (SequentialByDest) Allocate(_ float64, active []*coflow.Coflow, egCap, inCap []float64) {
	resetRates(active)
	flows := activeFlows(active)
	cur := -1
	for _, f := range flows {
		if cur == -1 || f.Dst < cur {
			cur = f.Dst
		}
	}
	if cur == -1 {
		return
	}
	var subset []*coflow.Flow
	for _, f := range flows {
		if f.Dst == cur {
			subset = append(subset, f)
		}
	}
	waterFill(subset, egCap, inCap)
}
