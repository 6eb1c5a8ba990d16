package placement

// WeightedCCF extends Algorithm 1 to heterogeneous port capacities — the
// paper's footnote-4 generalization where constraint (1.5)'s R_l differs per
// link. The objective becomes the weighted bottleneck
//
//	T = max( max_i egress_i / egCap_i ,  max_j ingress_j / inCap_j )
//
// measured in seconds rather than bytes, and the greedy search is otherwise
// identical: partitions descending by largest chunk, each to the destination
// minimising the running weighted T.

import (
	"fmt"

	"ccf/internal/partition"
)

// WeightedCCF is the capacity-aware variant of CCF.
type WeightedCCF struct {
	// EgressCap and IngressCap are per-port capacities in bytes/sec.
	// Both must match the chunk matrix's node count at Place time.
	EgressCap  []float64
	IngressCap []float64
}

// Name implements Scheduler.
func (WeightedCCF) Name() string { return "CCF-weighted" }

// Place implements Scheduler.
func (c WeightedCCF) Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error) {
	n, p := m.N, m.P
	if len(c.EgressCap) != n || len(c.IngressCap) != n {
		return nil, fmt.Errorf("placement: WeightedCCF capacities sized %d/%d, want %d",
			len(c.EgressCap), len(c.IngressCap), n)
	}
	for i := 0; i < n; i++ {
		if c.EgressCap[i] <= 0 || c.IngressCap[i] <= 0 {
			return nil, fmt.Errorf("placement: WeightedCCF port %d has non-positive capacity", i)
		}
	}
	egress, ingress, err := loadsFrom(initial, n)
	if err != nil {
		return nil, err
	}
	tot, order := visitOrder(m, true)

	pl := partition.NewPlacement(p)
	col := make([]int64, n)

	for _, k := range order {
		for i := 0; i < n; i++ {
			col[i] = m.At(i, k)
		}
		tk := tot[k]

		// Top-2 of weighted (egress_i + h_ik)/egCap_i and of weighted
		// ingress_j / inCap_j, exactly as in the unweighted variant.
		var e1, e2 float64 = -1, -1
		e1i := -1
		var in1, in2 float64 = -1, -1
		in1j := -1
		for i := 0; i < n; i++ {
			ev := float64(egress[i]+col[i]) / c.EgressCap[i]
			if ev > e1 {
				e2, e1, e1i = e1, ev, i
			} else if ev > e2 {
				e2 = ev
			}
			iv := float64(ingress[i]) / c.IngressCap[i]
			if iv > in1 {
				in2, in1, in1j = in1, iv, i
			} else if iv > in2 {
				in2 = iv
			}
		}

		bestD := -1
		bestT := 0.0
		for d := 0; d < n; d++ {
			eMax := e1
			if d == e1i {
				eMax = e2
			}
			if own := float64(egress[d]) / c.EgressCap[d]; own > eMax {
				eMax = own
			}
			iOther := in1
			if d == in1j {
				iOther = in2
			}
			iD := float64(ingress[d]+tk-col[d]) / c.IngressCap[d]
			t := eMax
			if iOther > t {
				t = iOther
			}
			if iD > t {
				t = iD
			}
			if bestD == -1 || t < bestT {
				bestD, bestT = d, t
			}
		}

		pl.Dest[k] = bestD
		for i := 0; i < n; i++ {
			if i != bestD {
				egress[i] += col[i]
			}
		}
		ingress[bestD] += tk - col[bestD]
	}
	return pl, nil
}

// WeightedBottleneck computes the seconds-valued objective of a placement
// under heterogeneous capacities.
func WeightedBottleneck(l *partition.Loads, egCap, inCap []float64) (float64, error) {
	if len(l.Egress) != len(egCap) || len(l.Ingress) != len(inCap) {
		return 0, fmt.Errorf("placement: loads sized %d/%d vs capacities %d/%d",
			len(l.Egress), len(l.Ingress), len(egCap), len(inCap))
	}
	var t float64
	for i, v := range l.Egress {
		if x := float64(v) / egCap[i]; x > t {
			t = x
		}
	}
	for j, v := range l.Ingress {
		if x := float64(v) / inCap[j]; x > t {
			t = x
		}
	}
	return t, nil
}
