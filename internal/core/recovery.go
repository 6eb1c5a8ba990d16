package core

// Recovery from permanent node loss — the failure-aware half of the
// co-optimization loop. When a node dies mid-redistribution, everything it
// received is gone (un-replicated shuffle output), everything it still held
// is lost, and every partition destined to it must be re-placed across the
// survivors. The recovery policy decides how:
//
//   - RecoverReplace re-runs CCF over the residual chunk matrix, seeded
//     with the survivors' remaining backlog as initial loads — placement
//     and network state co-optimized, exactly the paper's Algorithm 1
//     applied to the degraded cluster.
//   - RecoverRetryInPlace is the naive baseline: each orphaned partition is
//     reassigned hash-style over the survivors, oblivious to both chunk
//     locality and the backlog the failure left behind.
//
// The comparison (EXPERIMENTS.md "Recovery") shows the co-optimized
// re-placement finishing the post-failure work strictly faster.

import (
	"fmt"
	"math"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/workload"
)

// RecoveryPolicy selects how orphaned partitions are re-placed after a
// permanent node loss.
type RecoveryPolicy string

const (
	// RecoverReplace co-optimizes: CCF over the residual matrix, the dead
	// node a zero-capacity host, with the survivors' backlog as initial
	// loads.
	RecoverReplace RecoveryPolicy = "replace"
	// RecoverRetryInPlace reassigns orphaned partitions hash-style over
	// the survivors, ignoring chunk locality and backlog.
	RecoverRetryInPlace RecoveryPolicy = "retry-in-place"
)

// NodeLossSpec schedules one permanent node loss.
type NodeLossSpec struct {
	FailNode int
	FailTime float64
}

// NodeLossReport summarises a run through failure and recovery.
type NodeLossReport struct {
	Policy   RecoveryPolicy
	FailNode int
	FailTime float64
	// CleanMakespan is the fault-free makespan of the same workload and
	// placement — the lower bound any recovery must exceed.
	CleanMakespan float64
	// WastedBytes were delivered into the failed node before it died and
	// must be re-sent elsewhere.
	WastedBytes float64
	// LostBytes are stranded on the failed node: chunks it held that were
	// never (or only partially) shipped out, including chunks of its own
	// partitions. They cannot be recovered by re-placement.
	LostBytes float64
	// ReplacedPartitions/ReplacedBytes measure the re-placement work: the
	// orphaned partitions and the surviving chunk bytes re-sent for them.
	ReplacedPartitions int
	ReplacedBytes      int64
	// PostMakespan is the time from the failure until the surviving
	// transfer (continuation + repair traffic) completes; TotalMakespan =
	// FailTime + PostMakespan.
	PostMakespan  float64
	TotalMakespan float64
}

// RunWithNodeLoss executes the redistribution of w under the given
// application-level scheduler, kills FailNode at FailTime, re-places the
// orphaned partitions per the recovery policy, and simulates the rest. The
// recovery path models un-replicated storage: skew pre-processing is not
// applied (pass the plain chunk matrix workloads the recovery experiments
// use).
func RunWithNodeLoss(w *workload.Workload, sched placement.Scheduler, spec NodeLossSpec, policy RecoveryPolicy, opts Options) (*NodeLossReport, error) {
	matrix := w.Chunks
	n := matrix.N
	if spec.FailNode < 0 || spec.FailNode >= n {
		return nil, fmt.Errorf("core: fail node %d outside cluster of %d", spec.FailNode, n)
	}
	if !(spec.FailTime > 0) || math.IsInf(spec.FailTime, 1) {
		return nil, fmt.Errorf("core: fail time must be positive and finite, got %g", spec.FailTime)
	}
	switch policy {
	case RecoverReplace, RecoverRetryInPlace:
	default:
		return nil, fmt.Errorf("core: unknown recovery policy %q", policy)
	}
	bw, err := opts.bandwidth()
	if err != nil {
		return nil, err
	}
	dead := spec.FailNode

	eval, err := placement.Evaluate(sched, matrix, nil, nil)
	if err != nil {
		return nil, err
	}
	pl := eval.Placement
	rpt := &NodeLossReport{Policy: policy, FailNode: dead, FailTime: spec.FailTime}

	// Fault-free reference run.
	rpt.CleanMakespan, _, err = netsim.RunAlone("primary", n, eval.Volumes, bw, coflow.NewVarys(), nil)
	if err != nil {
		return nil, err
	}

	// Phase 1: run the primary transfer up to the failure instant and read
	// the in-flight state off the flows.
	primary, err := coflow.FromVolumes(0, "primary", 0, n, eval.Volumes)
	if err != nil {
		return nil, err
	}
	fabric, err := netsim.NewFabric(n, bw)
	if err != nil {
		return nil, err
	}
	sim := netsim.NewSimulator(fabric, coflow.NewVarys())
	sim.Horizon = spec.FailTime
	if _, err := sim.Run([]*coflow.Coflow{primary}); err != nil {
		return nil, err
	}

	// Classify the in-flight state: deliveries into the dead node are
	// wasted, bytes still on the dead node are lost, survivor↔survivor
	// remainders continue in phase 2.
	contVol := make([]int64, n*n)
	for _, f := range primary.Flows {
		moved := f.Size - f.Remaining
		switch {
		case f.Dst == dead:
			rpt.WastedBytes += moved
		case f.Src == dead:
			rpt.LostBytes += f.Remaining
		case !f.Done:
			contVol[f.Src*n+f.Dst] += int64(f.Remaining + 0.5)
		}
	}
	// Chunks the dead node held for its own partitions never crossed the
	// network but are just as lost.
	for k := 0; k < matrix.P; k++ {
		if pl.Dest[k] == dead {
			rpt.LostBytes += float64(matrix.At(dead, k))
		}
	}

	// Residual matrix: the surviving chunks of every orphaned partition.
	residual, err := partition.NewChunkMatrix(n, matrix.P)
	if err != nil {
		return nil, err
	}
	for k := 0; k < matrix.P; k++ {
		if pl.Dest[k] != dead {
			continue
		}
		rpt.ReplacedPartitions++
		for i := 0; i < n; i++ {
			if i == dead {
				continue
			}
			v := matrix.At(i, k)
			residual.Set(i, k, v)
			rpt.ReplacedBytes += v
		}
	}

	var newPl *partition.Placement
	switch policy {
	case RecoverReplace:
		// The survivors' unfinished transfer is network state the
		// re-placement must work around — feed it to CCF as initial loads.
		backlog := &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := contVol[i*n+j]
				backlog.Egress[i] += v
				backlog.Ingress[j] += v
			}
		}
		// The dead node is a host of capacity 0: Algorithm 1 leaves it out
		// of the candidates, and with unit capacities on the survivors it
		// orders them exactly as CCF{} does.
		caps := make([]float64, n)
		for i := range caps {
			if i != dead {
				caps[i] = 1
			}
		}
		newPl, err = placement.PlaceOnLinks(residual, backlog, &placement.Links{Egress: caps, Ingress: caps})
		if err != nil {
			return nil, err
		}
	case RecoverRetryInPlace:
		survivors := make([]int, 0, n-1)
		for i := 0; i < n; i++ {
			if i != dead {
				survivors = append(survivors, i)
			}
		}
		newPl = partition.NewPlacement(matrix.P)
		for k := 0; k < matrix.P; k++ {
			newPl.Dest[k] = survivors[k%len(survivors)]
		}
	}

	// Phase 2: survivor continuation plus repair traffic, from t=FailTime.
	repairVol := make([]int64, n*n)
	for k := 0; k < matrix.P; k++ {
		if pl.Dest[k] != dead {
			continue
		}
		d := newPl.Dest[k]
		for i := 0; i < n; i++ {
			if i == dead || i == d {
				continue
			}
			repairVol[i*n+d] += matrix.At(i, k)
		}
	}
	var phase2 []*coflow.Coflow
	if cont, err := coflow.FromVolumes(0, "continue", 0, n, contVol); err != nil {
		return nil, err
	} else if len(cont.Flows) > 0 {
		phase2 = append(phase2, cont)
	}
	if repair, err := coflow.FromVolumes(1, "repair", 0, n, repairVol); err != nil {
		return nil, err
	} else if len(repair.Flows) > 0 {
		phase2 = append(phase2, repair)
	}
	if len(phase2) > 0 {
		rep2, err := netsim.NewSimulator(fabric, coflow.NewVarys()).Run(phase2)
		if err != nil {
			return nil, err
		}
		rpt.PostMakespan = rep2.Makespan
	}
	rpt.TotalMakespan = spec.FailTime + rpt.PostMakespan
	return rpt, nil
}
