package coflow

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// churnScheduler is one persistent-order scheduler under the churn oracle,
// with the function that recomputes a coflow's priority key from scratch.
type churnScheduler struct {
	name       string
	sched      Scheduler
	tieArrival bool
	key        func(c *Coflow, s *allocScratch) float64
}

// orderedSchedulers builds the five persistent-order schedulers.
var orderedSchedulers = []func() Scheduler{NewVarys, NewFIFO, NewSCF, NewNCF, NewAalo}

func newChurnScheduler(mk func() Scheduler) churnScheduler {
	o := mk().(*orderedMADD)
	return churnScheduler{o.name, o, o.tieArrival, o.key}
}

// markModes are the two ways an engine marks coflows moved: only the
// coflows it touched, as the EventHorizon loop's granted-only passes do, or
// every active coflow on every epoch, as the full-pass loop does.
var markModes = []struct {
	name  string
	every bool
}{{"sparse", false}, {"full", true}}

// churnCoflow builds a one-to-four-flow coflow with small integer sizes (so
// bottleneck, size, width and queue keys tie often) and starts its cache.
func churnCoflow(rn *rand.Rand, id int, now float64, ports int) *Coflow {
	flows := make([]Flow, 1+rn.Intn(4))
	for i := range flows {
		flows[i] = Flow{ID: i, Src: rn.Intn(ports), Dst: rn.Intn(ports), Size: float64(1+rn.Intn(4)) * 4e6}
	}
	c := New(id, "", now, flows)
	for _, f := range c.Flows {
		f.Remaining = f.Size
	}
	c.BeginSim(ports)
	return c
}

// churnProgress moves bytes on a few live coflows the way the engine does:
// remaining bytes fall, sent bytes grow, some flows finish (never a coflow's
// last), and every touched coflow is marked moved.
func churnProgress(rn *rand.Rand, active []*Coflow) {
	for k := 0; k < len(active)/8+1; k++ {
		c := active[rn.Intn(len(active))]
		live := c.LiveFlows()
		f := live[rn.Intn(len(live))]
		if len(live) > 1 && rn.Intn(3) == 0 {
			c.SentBytes += f.Remaining
			f.Remaining, f.Done = 0, true
			c.RefreshSim()
		} else {
			moved := f.Remaining * float64(rn.Intn(4)) / 8
			f.Remaining -= moved
			c.SentBytes += moved
		}
		c.MarkSimMoved()
	}
}

// TestPersistentOrderUnderChurn drives every persistent-order scheduler
// through seeded epochs of random admissions, completions and key-moving
// progress with up to 300 live coflows, under both marking modes. After every
// Allocate each coflow's cached key must equal a fresh recomputation and
// PriorityOrder must equal the active set stably sorted by keyLess — the
// unique order, however the scheduler carried it from the previous epoch.
func TestPersistentOrderUnderChurn(t *testing.T) {
	const ports, epochs, maxLive = 16, 600, 300
	for i, mk := range orderedSchedulers {
		t.Run(mk().Name(), func(t *testing.T) {
			for _, mode := range markModes {
				t.Run(mode.name, func(t *testing.T) {
					cs := newChurnScheduler(mk)
					rn := rand.New(rand.NewSource(int64(17 + i)))
					aud := cs.sched.(Auditable)
					s := testScratch(ports)
					var active, want []*Coflow
					nextID, now, peak := 0, 0.0, 0
					for epoch := 0; epoch < epochs; epoch++ {
						if rn.Intn(4) > 0 {
							for n := rn.Intn(4); n > 0 && len(active) > 0; n-- {
								j := rn.Intn(len(active))
								active = slices.Delete(active, j, j+1)
							}
							for n := rn.Intn(6); n > 0 && len(active) < maxLive; n-- {
								active = append(active, churnCoflow(rn, nextID, now, ports))
								nextID++
							}
						}
						if len(active) > 0 {
							churnProgress(rn, active)
						}
						if mode.every {
							for _, c := range active {
								c.MarkSimMoved()
							}
						}
						peak = max(peak, len(active))
						eg, in := capSlices(ports, 1e9)
						cs.sched.Allocate(now, active, eg, in)
						for _, c := range active {
							if k := cs.key(c, s); k != c.schedKey {
								t.Fatalf("epoch %d: coflow %d key %v, fresh key %v", epoch, c.ID, c.schedKey, k)
							}
						}
						want = append(want[:0], active...)
						slices.SortStableFunc(want, func(a, b *Coflow) int {
							if keyLess(a, b, cs.tieArrival) {
								return -1
							}
							if keyLess(b, a, cs.tieArrival) {
								return 1
							}
							return 0
						})
						if got := aud.PriorityOrder(); !slices.Equal(got, want) {
							t.Fatalf("epoch %d: priority order of %d coflows differs from the sorted active set", epoch, len(active))
						}
						if rn.Intn(3) == 0 {
							now += float64(rn.Intn(3))
						}
					}
					if peak < maxLive*2/3 {
						t.Fatalf("churn peaked at %d live coflows", peak)
					}
				})
			}
		})
	}
}

// blockedFullScan is the blocked test as a full scan of the coflow's port
// sets, without the memo or the saturated-port list: maddAllocate's blocked
// condition, read directly.
func blockedFullScan(c *Coflow, egCap, inCap []float64) bool {
	for _, p := range c.sim.egPorts {
		if egCap[p] <= 0 {
			return true
		}
	}
	for _, p := range c.sim.inPorts {
		if inCap[p] <= 0 {
			return true
		}
	}
	return false
}

// twin copies a coflow's flows and progress into a fresh coflow with its
// own cache, for an oracle that must not share scheduler state.
func twin(c *Coflow, ports int) *Coflow {
	t := &Coflow{ID: c.ID, Arrival: c.Arrival, SentBytes: c.SentBytes}
	block := make([]Flow, len(c.Flows))
	for i, f := range c.Flows {
		block[i] = *f
		t.Flows = append(t.Flows, &block[i])
	}
	t.BeginSim(ports)
	return t
}

// fullScanAllocate is the from-scratch epoch with the full-scan blocked test:
// zero every rate, key every coflow afresh, sort by keyLess, serve each
// coflow MADD rates unless blockedFullScan, and backfill when none was
// blocked. It reports which coflows it granted and whether it backfilled.
func fullScanAllocate(cs churnScheduler, active []*Coflow, egCap, inCap []float64, s *allocScratch) (granted []bool, dense bool) {
	resetRates(active)
	for _, c := range active {
		c.schedKey = cs.key(c, s)
	}
	order := slices.Clone(active)
	slices.SortStableFunc(order, func(a, b *Coflow) int {
		if keyLess(a, b, cs.tieArrival) {
			return -1
		}
		if keyLess(b, a, cs.tieArrival) {
			return 1
		}
		return 0
	})
	served := map[*Coflow]bool{}
	anyBlocked := false
	for _, c := range order {
		if blockedFullScan(c, egCap, inCap) {
			anyBlocked = true
			continue
		}
		maddAllocate(c, egCap, inCap, s)
		served[c] = true
	}
	if cs.sched.(*orderedMADD).backfill && !anyBlocked {
		waterFill(activeFlows(active, s), egCap, inCap, s)
		dense = true
	}
	for _, c := range active {
		granted = append(granted, served[c])
	}
	return granted, dense
}

// TestBlockedTestMatchesFullScan drives every persistent-order scheduler
// through churned epochs whose capacities have down ports (0 on entry to
// Allocate) that come and go, so memoized blocking ports are freed, and
// whose saturated-port lists are at times longer than a coflow's port set.
// After every Allocate the grants, the live flows' rates, the residual
// capacities and LastGrantDense must equal fullScanAllocate's over twins of
// the active set, bit for bit.
func TestBlockedTestMatchesFullScan(t *testing.T) {
	const ports, epochs, maxLive = 16, 400, 120
	for i, mk := range orderedSchedulers {
		t.Run(mk().Name(), func(t *testing.T) {
			cs := newChurnScheduler(mk)
			sp := cs.sched.(SparseAllocator)
			rn := rand.New(rand.NewSource(int64(71 + i)))
			s := testScratch(ports)
			var active []*Coflow
			nextID, now := 0, 0.0
			var blocked, memoFreed, satLonger int
			for epoch := 0; epoch < epochs; epoch++ {
				for n := rn.Intn(3); n > 0 && len(active) > 0; n-- {
					j := rn.Intn(len(active))
					active = slices.Delete(active, j, j+1)
				}
				for n := rn.Intn(4); n > 0 && len(active) < maxLive; n-- {
					active = append(active, churnCoflow(rn, nextID, now, ports))
					nextID++
				}
				if len(active) == 0 {
					continue
				}
				churnProgress(rn, active)
				eg, in := capSlices(ports, 1e9)
				for _, side := range [][]float64{eg, in} {
					for n := rn.Intn(4); n > 0; n-- {
						side[rn.Intn(ports)] = 0 // a down port
					}
				}
				downEg, downIn := 0, 0
				for p := range eg {
					downEg += b2i(eg[p] <= 0)
					downIn += b2i(in[p] <= 0)
				}
				for _, c := range active {
					if h := c.sim.blockEg; h >= 0 && (c.sim.egCnt[h] == 0 || eg[h] > 0) {
						memoFreed++
					}
					if h := c.sim.blockIn; h >= 0 && (c.sim.inCnt[h] == 0 || in[h] > 0) {
						memoFreed++
					}
					if downEg > len(c.sim.egPorts) || downIn > len(c.sim.inPorts) {
						satLonger++
					}
				}
				twins := make([]*Coflow, len(active))
				for k, c := range active {
					twins[k] = twin(c, ports)
				}
				egW, inW := slices.Clone(eg), slices.Clone(in)
				granted, dense := fullScanAllocate(cs, twins, egW, inW, s)

				cs.sched.Allocate(now, active, eg, in)
				for k, c := range active {
					if c.SimGranted() != granted[k] {
						t.Fatalf("epoch %d: coflow %d granted %v, full scan %v", epoch, c.ID, c.SimGranted(), granted[k])
					}
					blocked += b2i(!granted[k])
					for j, f := range c.Flows {
						if g := twins[k].Flows[j]; !f.Done && math.Float64bits(f.Rate) != math.Float64bits(g.Rate) {
							t.Fatalf("epoch %d: coflow %d flow %d rate %v, full scan %v", epoch, c.ID, f.ID, f.Rate, g.Rate)
						}
					}
				}
				for p := range eg {
					if math.Float64bits(eg[p]) != math.Float64bits(egW[p]) || math.Float64bits(in[p]) != math.Float64bits(inW[p]) {
						t.Fatalf("epoch %d: port %d residual (%v, %v), full scan (%v, %v)", epoch, p, eg[p], in[p], egW[p], inW[p])
					}
				}
				if sp.LastGrantDense() != dense {
					t.Fatalf("epoch %d: LastGrantDense %v, full scan backfilled %v", epoch, sp.LastGrantDense(), dense)
				}
				if rn.Intn(3) == 0 {
					now += float64(rn.Intn(3))
				}
			}
			if blocked == 0 || memoFreed == 0 || satLonger == 0 {
				t.Fatalf("churn covered %d blocked coflows, %d freed memos, %d saturated lists longer than a port set; want each > 0",
					blocked, memoFreed, satLonger)
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// churnFixture is a live set plus a pool of spare coflows that a churn step
// swaps in for a completed one, so steady-state membership changes need no
// new coflows.
type churnFixture struct {
	rn             *rand.Rand
	active, spares []*Coflow
}

func newChurnFixture(live, ports int) *churnFixture {
	fx := &churnFixture{rn: rand.New(rand.NewSource(int64(live)))}
	for id := 0; id < 2*live; id++ {
		c := churnCoflow(fx.rn, id, float64(id/4), ports)
		if id < live {
			fx.active = append(fx.active, c)
		} else {
			fx.spares = append(fx.spares, c)
		}
	}
	return fx
}

// step completes one random live coflow and admits the oldest spare in its
// place; the completed one becomes the newest spare.
func (fx *churnFixture) step() {
	i := fx.rn.Intn(len(fx.active))
	done := fx.active[i]
	fx.active = append(slices.Delete(fx.active, i, i+1), fx.spares[0])
	fx.spares = append(slices.Delete(fx.spares, 0, 1), done)
}

// TestAllocateChurnZeroAllocs pins zero heap allocations per Allocate that
// follows one admission and one completion, for every persistent-order
// scheduler.
func TestAllocateChurnZeroAllocs(t *testing.T) {
	const ports, live = 16, 200
	for _, mk := range orderedSchedulers {
		cs := newChurnScheduler(mk)
		fx := newChurnFixture(live, ports)
		eg, in := capSlices(ports, 1e9)
		run := func() {
			fx.step()
			churnProgress(fx.rn, fx.active)
			for p := range eg {
				eg[p], in[p] = 1e9, 1e9
			}
			cs.sched.Allocate(0, fx.active, eg, in)
		}
		for i := 0; i < 4*live; i++ { // every coflow seen, every buffer grown
			run()
		}
		if n := testing.AllocsPerRun(200, run); n != 0 {
			t.Errorf("%s: %v allocs per churned Allocate, want 0", cs.name, n)
		}
	}
}

// BenchmarkAllocateChurn times Varys with one admission and one
// completion per Allocate, the membership change an online coflow stream
// makes nearly every epoch, at several live-set sizes.
func BenchmarkAllocateChurn(b *testing.B) {
	const ports = 64
	for _, live := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			fx := newChurnFixture(live, ports)
			s := NewVarys()
			eg, in := capSlices(ports, 1e9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.step()
				for p := range eg {
					eg[p], in[p] = 1e9, 1e9
				}
				s.Allocate(0, fx.active, eg, in)
			}
		})
	}
}
