package topology

// RackAwareCCF: the paper's Algorithm 1 over the topology's link sets. Every
// term of the objective is a link's load divided by that link's capacity —
// host egress and ingress, and rack uplink and downlink:
//
//	T = max( egress_i/R_up_i, ingress_j/R_down_j, up_r/R_up_r, down_r/R_down_r )
//
// Assigning partition k to destination d (rack r_d) adds h_ik to every other
// host's egress, Σ_{i∈r} h_ik to every other rack's uplink, and the remote
// remainder to d's ingress and r_d's downlink — the same additive structure
// as the base algorithm at two granularities, so the same top-2 bookkeeping
// keeps the whole search at O(p·(n + racks)). On a NewNonBlocking topology
// the rack terms are zero and this is Algorithm 1 under per-port capacities.

import (
	"fmt"
	"sort"

	"ccf/internal/partition"
	"ccf/internal/placement"
)

// RackAwareCCF places partitions over a topology, minimising the running
// link-level T. It implements placement.Scheduler.
type RackAwareCCF struct {
	Topo *Topology
}

// Name implements placement.Scheduler.
func (RackAwareCCF) Name() string { return "CCF-rack" }

// top2 tracks a maximum and runner-up with the argmax index.
type top2 struct {
	v1, v2 float64
	i1     int
}

func (t *top2) reset() { t.v1, t.v2, t.i1 = -1, -1, -1 }

func (t *top2) add(i int, v float64) {
	if v > t.v1 {
		t.v2, t.v1, t.i1 = t.v1, v, i
	} else if v > t.v2 {
		t.v2 = v
	}
}

// exclude returns the max over all entries except index i.
func (t *top2) exclude(i int) float64 {
	if i == t.i1 {
		return t.v2
	}
	return t.v1
}

// Place implements placement.Scheduler.
func (c RackAwareCCF) Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error) {
	t := c.Topo
	if t == nil {
		return nil, fmt.Errorf("topology: RackAwareCCF needs a topology")
	}
	n, p := m.N, m.P
	if t.N != n {
		return nil, fmt.Errorf("topology: topology has %d hosts, matrix has %d nodes", t.N, n)
	}
	racks := t.racks

	hostEgCap := make([]float64, n)
	hostInCap := make([]float64, n)
	for i := 0; i < n; i++ {
		hostEgCap[i] = t.Links[t.hostUp[i]].Cap
		hostInCap[i] = t.Links[t.hostDown[i]].Cap
	}
	rackUpCap := make([]float64, racks)
	rackDownCap := make([]float64, racks)
	for r := 0; r < racks; r++ {
		rackUpCap[r] = t.Links[t.rackUp[r]].Cap
		rackDownCap[r] = t.Links[t.rackDown[r]].Cap
	}

	egress := make([]int64, n)
	ingress := make([]int64, n)
	if initial != nil {
		if len(initial.Egress) != n || len(initial.Ingress) != n {
			return nil, fmt.Errorf("topology: initial loads sized %d/%d, want %d",
				len(initial.Egress), len(initial.Ingress), n)
		}
		copy(egress, initial.Egress)
		copy(ingress, initial.Ingress)
	}
	upB := make([]int64, racks)
	downB := make([]int64, racks)

	order := make([]int, p)
	for k := range order {
		order[k] = k
	}
	maxChunk, _ := m.MaxChunk()
	sort.SliceStable(order, func(a, b int) bool {
		return maxChunk[order[a]] > maxChunk[order[b]]
	})
	tot := m.PartitionTotals()

	pl := partition.NewPlacement(p)
	col := make([]int64, n)
	rackCol := make([]int64, racks)

	var egTop, inTop, upTop, downTop top2

	for _, k := range order {
		for r := 0; r < racks; r++ {
			rackCol[r] = 0
		}
		for i := 0; i < n; i++ {
			col[i] = m.At(i, k)
			rackCol[t.rackOf[i]] += col[i]
		}
		tk := tot[k]

		egTop.reset()
		inTop.reset()
		for i := 0; i < n; i++ {
			egTop.add(i, float64(egress[i]+col[i])/hostEgCap[i])
			inTop.add(i, float64(ingress[i])/hostInCap[i])
		}
		upTop.reset()
		downTop.reset()
		for r := 0; r < racks; r++ {
			upTop.add(r, float64(upB[r]+rackCol[r])/rackUpCap[r])
			downTop.add(r, float64(downB[r])/rackDownCap[r])
		}

		bestD := -1
		bestT := 0.0
		for d := 0; d < n; d++ {
			rd := t.rackOf[d]
			T := egTop.exclude(d)
			if own := float64(egress[d]) / hostEgCap[d]; own > T {
				T = own
			}
			if v := inTop.exclude(d); v > T {
				T = v
			}
			if v := float64(ingress[d]+tk-col[d]) / hostInCap[d]; v > T {
				T = v
			}
			if v := upTop.exclude(rd); v > T {
				T = v
			}
			if own := float64(upB[rd]) / rackUpCap[rd]; own > T {
				T = own
			}
			if v := downTop.exclude(rd); v > T {
				T = v
			}
			if v := float64(downB[rd]+tk-rackCol[rd]) / rackDownCap[rd]; v > T {
				T = v
			}
			if bestD == -1 || T < bestT {
				bestD, bestT = d, T
			}
		}

		pl.Dest[k] = bestD
		rd := t.rackOf[bestD]
		for i := 0; i < n; i++ {
			if i != bestD {
				egress[i] += col[i]
			}
		}
		ingress[bestD] += tk - col[bestD]
		for r := 0; r < racks; r++ {
			if r != rd {
				upB[r] += rackCol[r]
			}
		}
		downB[rd] += tk - rackCol[rd]
	}
	return pl, nil
}

// PlacementCCT is placement.Evaluate costed on this topology: it places m
// with s on top of the initial loads, adds the broadcast volumes (the v⁰ flows
// initial counts; nil for none) and returns the coflow's single-coflow CCT in
// closed form, MADD over links.
func (t *Topology) PlacementCCT(s placement.Scheduler, m *partition.ChunkMatrix, initial *partition.Loads, broadcast []int64) (float64, error) {
	ev, err := placement.Evaluate(s, m, initial, broadcast)
	if err != nil {
		return 0, err
	}
	return t.SingleCoflowCCT(ev.Volumes)
}
