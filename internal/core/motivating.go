package core

// The motivating example of the paper's Figures 1 and 2, reconstructed
// exactly: a three-node system holding eight chunks of four join keys,
//
//	Node 0: 1³ 2¹ 0³      Node 1: 1⁶ 2² 5¹      Node 2: 5² 0¹
//
// (kᶠ = f tuples with key k). Hashing keys mod 3 yields schedule plan SP0
// with traffic 8 = 3+1+2+1+1; the traffic-optimal SP2 moves 6 tuples but has
// an optimal-coflow CCT of 4 time units; the traffic-suboptimal SP1 moves 7
// tuples yet completes in 3 — the gap CCF exploits. The paper's "worst
// schedule" for SP2 (Figure 2(a), nodes flushing one destination at a time)
// takes 6 units. All five numbers are reproduced by MotivatingExample and
// locked in by tests.

import (
	"fmt"

	"ccf/internal/coflow"
	"ccf/internal/milp"
	"ccf/internal/netsim"
	"ccf/internal/partition"
	"ccf/internal/placement"
)

// MotivatingKeys are the join keys of the example, in partition order.
// Key k maps to partition index k's position in this slice.
var MotivatingKeys = []int64{0, 1, 2, 5}

// MotivatingMatrix builds the 3×4 chunk matrix of Figure 1 with one byte
// per tuple (the paper counts cost in tuples; any uniform payload scales
// identically).
func MotivatingMatrix() *partition.ChunkMatrix {
	m := partition.MustChunkMatrix(3, 4)
	// partitions: 0 → key 0, 1 → key 1, 2 → key 2, 3 → key 5
	m.Set(0, 0, 3) // 0³ on node 0
	m.Set(2, 0, 1) // 0¹ on node 2
	m.Set(0, 1, 3) // 1³ on node 0
	m.Set(1, 1, 6) // 1⁶ on node 1
	m.Set(0, 2, 1) // 2¹ on node 0
	m.Set(1, 2, 2) // 2² on node 1
	m.Set(1, 3, 1) // 5¹ on node 1
	m.Set(2, 3, 2) // 5² on node 2
	return m
}

// MotivatingPlan names one schedule plan of the example.
type MotivatingPlan struct {
	Name      string
	Placement *partition.Placement
	// Traffic is the tuples moved to remote nodes (Figure 1's cost).
	Traffic int64
	// OptimalCCT is the coflow completion time in time units under optimal
	// (MADD) coflow scheduling with unit port capacity (Figure 2(b)/(c)).
	OptimalCCT float64
	// WorstCCT is the CCT under the uncoordinated destination-at-a-time
	// schedule of Figure 2(a).
	WorstCCT float64
}

// MotivatingResult bundles the full reconstruction.
type MotivatingResult struct {
	Matrix *partition.ChunkMatrix
	SP0    MotivatingPlan // hash-based
	SP1    MotivatingPlan // traffic-suboptimal, CCT-optimal
	SP2    MotivatingPlan // traffic-optimal
	// CCF is the plan Algorithm 1 produces (it recovers SP1).
	CCF MotivatingPlan
	// OptimalT is the certified minimum bottleneck (from branch & bound).
	OptimalT int64
}

// paperPlan is one of the paper's hand-written schedule plans, over partition
// order (key 0, key 1, key 2, key 5), as a scheduler: it is then evaluated
// the way CCF's own plan is.
type paperPlan struct {
	name string
	dest []int
}

func (p paperPlan) Name() string { return p.name }

func (p paperPlan) Place(*partition.ChunkMatrix, *partition.Loads) (*partition.Placement, error) {
	return &partition.Placement{Dest: p.dest}, nil
}

// evalMotivatingPlan computes traffic and both CCTs of a scheduler's plan over
// the example matrix with unit ("one tuple per time unit") port capacity.
func evalMotivatingPlan(m *partition.ChunkMatrix, s placement.Scheduler) (MotivatingPlan, error) {
	ev, err := placement.Evaluate(s, m, nil, nil)
	if err != nil {
		return MotivatingPlan{}, fmt.Errorf("core: motivating plan %s: %w", s.Name(), err)
	}
	opt, _, err := netsim.RunAlone(s.Name(), m.N, ev.Volumes, 1, coflow.NewVarys(), nil)
	if err != nil {
		return MotivatingPlan{}, err
	}
	worst, _, err := netsim.RunAlone(s.Name(), m.N, ev.Volumes, 1, coflow.SequentialByDest{}, nil)
	if err != nil {
		return MotivatingPlan{}, err
	}
	return MotivatingPlan{
		Name:       s.Name(),
		Placement:  ev.Placement,
		Traffic:    ev.TrafficBytes,
		OptimalCCT: opt,
		WorstCCT:   worst,
	}, nil
}

// MotivatingExample reconstructs Figures 1 and 2 and runs both the CCF
// heuristic and the exact solver on the instance.
func MotivatingExample() (*MotivatingResult, error) {
	m := MotivatingMatrix()
	res := &MotivatingResult{Matrix: m}
	for _, p := range []struct {
		into *MotivatingPlan
		s    placement.Scheduler
	}{
		{&res.SP0, paperPlan{"SP0", []int{0, 1, 2, 2}}}, // hash: key mod 3 → node
		{&res.SP1, paperPlan{"SP1", []int{0, 1, 0, 2}}}, // traffic 7, CCT 3
		{&res.SP2, paperPlan{"SP2", []int{0, 1, 1, 2}}}, // traffic 6, CCT 4
		{&res.CCF, placement.CCF{}},
	} {
		var err error
		if *p.into, err = evalMotivatingPlan(m, p.s); err != nil {
			return nil, err
		}
	}
	exact, err := milp.Solve(m, nil, milp.Options{})
	if err != nil {
		return nil, err
	}
	if !exact.Optimal {
		return nil, fmt.Errorf("core: exact solver did not certify the 3×4 motivating instance")
	}
	res.OptimalT = exact.T
	return res, nil
}
