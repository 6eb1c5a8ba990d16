package query

// Batch execution: multiple analytical jobs sharing the fabric. Logical
// results are computed per job as usual; the network side replays every
// stage's shuffle coflow on ONE simulated fabric, with stages of the same
// job chained by dependencies and different jobs overlapping freely under
// the coflow scheduler. This is where the coflow abstraction pays at the
// job level: the batch makespan is far below the sum of isolated job times
// whenever jobs do not contend on the same ports.

import (
	"fmt"
	"math"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

// BatchJob is one plan with an arrival time.
type BatchJob struct {
	Name    string
	Plan    Node
	Arrival float64
}

// BatchResult reports a batch execution.
type BatchResult struct {
	// Results holds each job's logical output and per-stage metrics
	// (identical to running Execute on each plan alone).
	Results []*Result
	// JobCompletion[i] is the absolute time job i's last stage finished on
	// the shared fabric.
	JobCompletion []float64
	// Makespan is the batch's total network time.
	Makespan float64
	// SequentialTimeSec is Σ over jobs of their isolated network times —
	// what a one-job-at-a-time system would need.
	SequentialTimeSec float64
}

// ExecuteBatch runs the plans logically and simulates all their stage
// coflows together: within a job stage k depends on stage k−1; jobs are
// independent and overlap.
func (e *Executor) ExecuteBatch(jobs []BatchJob, sched coflow.Scheduler) (*BatchResult, error) {
	if len(jobs) == 0 {
		return &BatchResult{}, nil
	}
	if sched == nil {
		sched = coflow.NewVarys()
	}
	out := &BatchResult{
		Results:       make([]*Result, len(jobs)),
		JobCompletion: make([]float64, len(jobs)),
	}
	var cfs []*coflow.Coflow
	deps := map[int][]int{}
	// jobLast[i] is the coflow ID of job i's final stage (-1 if none).
	jobLast := make([]int, len(jobs))
	id := 0
	for ji, job := range jobs {
		if !(job.Arrival >= 0) || math.IsInf(job.Arrival, 1) {
			return nil, fmt.Errorf("query: batch job %d has negative or non-finite arrival %g", ji, job.Arrival)
		}
		res, err := e.Execute(job.Plan)
		if err != nil {
			return nil, fmt.Errorf("query: batch job %d (%s): %w", ji, job.Name, err)
		}
		out.Results[ji] = res
		out.SequentialTimeSec += res.TotalTimeSec
		jobLast[ji] = -1
		prev := -1
		for si, st := range res.Stages {
			cf, err := coflow.FromVolumes(id, fmt.Sprintf("%s/%s", job.Name, st.Operator), job.Arrival, e.cfg.Nodes, st.FlowVolumes)
			if err != nil {
				return nil, err
			}
			if len(cf.Flows) == 0 {
				// An all-local stage costs nothing and gates nothing
				// beyond what its predecessor already gates.
				_ = si
				continue
			}
			if prev >= 0 {
				deps[id] = []int{prev}
			}
			cfs = append(cfs, cf)
			prev = id
			jobLast[ji] = id
			id++
		}
	}

	if len(cfs) == 0 {
		for ji := range jobs {
			out.JobCompletion[ji] = jobs[ji].Arrival
		}
		return out, nil
	}
	fabric, err := netsim.NewFabric(e.cfg.Nodes, 0)
	if err != nil {
		return nil, err
	}
	sim := netsim.NewSimulator(fabric, sched)
	sim.Deps = deps
	rep, err := sim.Run(cfs)
	if err != nil {
		return nil, fmt.Errorf("query: batch simulation: %w", err)
	}
	out.Makespan = rep.Makespan
	byID := make(map[int]*coflow.Coflow, len(cfs))
	for _, c := range cfs {
		byID[c.ID] = c
	}
	for ji := range jobs {
		if jobLast[ji] < 0 {
			out.JobCompletion[ji] = jobs[ji].Arrival
			continue
		}
		out.JobCompletion[ji] = byID[jobLast[ji]].Completion
	}
	return out, nil
}
