package placement

// Local-search refinement of a placement: a bridge between Algorithm 1's
// single greedy pass and the exact solver the paper abandons for scale. The
// move neighbourhood relocates one partition at a time to the destination
// that most reduces the bottleneck T, repeating until a local optimum or a
// move budget. Each pass costs O(p·n) amortised with the same top-2
// machinery as the constructor heuristics, so refinement stays usable at
// the paper's 500-node, 7500-partition shape.

import (
	"fmt"

	"ccf/internal/partition"
)

// RefineOptions bound the search.
type RefineOptions struct {
	// MaxMoves caps accepted relocations; 0 means the package default
	// (4 × p, enough for convergence on every workload tested).
	MaxMoves int
	// MaxPasses caps full sweeps over the partitions; 0 means 8.
	MaxPasses int
}

// RefineResult reports what the search did.
type RefineResult struct {
	Placement *partition.Placement
	// InitialT and FinalT are the bottleneck loads before and after.
	InitialT int64
	FinalT   int64
	Moves    int
	Passes   int
}

// Refine improves a feasible placement by single-partition relocation until
// a local optimum or budget exhaustion. The input placement is not
// modified. Initial loads (broadcast volumes) are honoured if non-nil.
func Refine(m *partition.ChunkMatrix, pl *partition.Placement, initial *partition.Loads, opts RefineOptions) (*RefineResult, error) {
	n, p := m.N, m.P
	if err := pl.Validate(n, p); err != nil {
		return nil, fmt.Errorf("placement: refine needs a feasible start: %w", err)
	}
	if opts.MaxMoves == 0 {
		opts.MaxMoves = 4 * p
	}
	if opts.MaxPasses == 0 {
		opts.MaxPasses = 8
	}

	dest := append([]int(nil), pl.Dest...)
	egress, ingress, err := loadsFrom(initial, n)
	if err != nil {
		return nil, err
	}
	tot := m.PartitionTotals()
	for k := 0; k < p; k++ {
		d := dest[k]
		for i := 0; i < n; i++ {
			if i != d {
				egress[i] += m.At(i, k)
			}
		}
		ingress[d] += tot[k] - m.At(d, k)
	}
	maxOf := func() int64 {
		var t int64
		for i := 0; i < n; i++ {
			if egress[i] > t {
				t = egress[i]
			}
			if ingress[i] > t {
				t = ingress[i]
			}
		}
		return t
	}

	res := &RefineResult{InitialT: maxOf()}
	col := make([]int64, n)

	for pass := 0; pass < opts.MaxPasses && res.Moves < opts.MaxMoves; pass++ {
		improvedThisPass := false
		for k := 0; k < p && res.Moves < opts.MaxMoves; k++ {
			cur := dest[k]
			for i := 0; i < n; i++ {
				col[i] = m.At(i, k)
			}
			// Detach partition k from the state.
			for i := 0; i < n; i++ {
				if i != cur {
					egress[i] -= col[i]
				}
			}
			ingress[cur] -= tot[k] - col[cur]

			// Top-2 over the detached state, as in the constructor.
			var e1, e2 int64 = -1, -1
			e1i := -1
			var in1, in2 int64 = -1, -1
			in1j := -1
			for i := 0; i < n; i++ {
				ev := egress[i] + col[i]
				if ev > e1 {
					e2, e1, e1i = e1, ev, i
				} else if ev > e2 {
					e2 = ev
				}
				iv := ingress[i]
				if iv > in1 {
					in2, in1, in1j = in1, iv, i
				} else if iv > in2 {
					in2 = iv
				}
			}
			bestD := -1
			var bestT int64 = -1
			for d := 0; d < n; d++ {
				eMax := e1
				if d == e1i {
					eMax = e2
				}
				if egress[d] > eMax {
					eMax = egress[d]
				}
				iOther := in1
				if d == in1j {
					iOther = in2
				}
				iD := ingress[d] + tot[k] - col[d]
				t := eMax
				if iOther > t {
					t = iOther
				}
				if iD > t {
					t = iD
				}
				if bestD == -1 || t < bestT || (t == bestT && d == cur) {
					bestD, bestT = d, t
				}
			}
			// Reattach at the winner.
			if bestD != cur {
				res.Moves++
				improvedThisPass = true
			}
			dest[k] = bestD
			for i := 0; i < n; i++ {
				if i != bestD {
					egress[i] += col[i]
				}
			}
			ingress[bestD] += tot[k] - col[bestD]
		}
		res.Passes++
		if !improvedThisPass {
			break
		}
	}
	res.FinalT = maxOf()
	res.Placement = &partition.Placement{Dest: dest}
	return res, nil
}

// CCFRefined composes Algorithm 1 with local-search refinement, the
// "spend a little more scheduling time for a better T" knob.
type CCFRefined struct {
	Opts RefineOptions
}

// Name implements Scheduler.
func (CCFRefined) Name() string { return "CCF-refined" }

// Place implements Scheduler.
func (c CCFRefined) Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error) {
	base, err := CCF{}.Place(m, initial)
	if err != nil {
		return nil, err
	}
	res, err := Refine(m, base, initial, c.Opts)
	if err != nil {
		return nil, err
	}
	return res.Placement, nil
}
