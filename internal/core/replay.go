package core

// Streaming trace replay: drive one live netsim.Session from a coflow
// source (e.g. fbtrace.Stream) without ever materialising the workload as a
// slice. Each pulled coflow advances the session to its arrival and admits
// it, so the resident set is the in-flight coflows plus at most one pending
// arrival; with ReleaseCompleted the session also drops coflows as they
// finish, keeping memory bounded by the *concurrency* of the trace rather
// than its length. That is what lets the Facebook trace replay at 1000×
// density inside CI. An fbtrace.Streamer adds two batches of coflows drawn
// ahead, on another core, by a producer that owns the generator alone between
// channel handoffs, so the sequence is fbtrace.Generate's, bit for bit.
//
// Advancing to each arrival is exact: arrivals bound the event loop's epochs
// anyway, so the stepwise session visits the same epoch boundaries as a
// batch RunInto over the fully materialised trace, and the reports agree bit
// for bit (TestReplayStreamMatchesBatch).

import (
	"errors"
	"fmt"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

// CoflowSource yields coflows in non-decreasing arrival order. Next returns
// (nil, false) when the source is exhausted. *fbtrace.Streamer implements it.
type CoflowSource interface {
	Next() (*coflow.Coflow, bool)
}

// ReplayOptions configure a streaming replay.
type ReplayOptions struct {
	// Scheduler orders the concurrent coflows; nil = Varys.
	Scheduler coflow.Scheduler
	// EventHorizon restricts the loop's flow passes to the coflows the
	// scheduler granted (netsim.Simulator.EventHorizon); results are
	// bit-identical either way.
	EventHorizon bool
	// ReleaseCompleted drops finished coflows from the live session
	// (netsim.Simulator.ReleaseCompleted).
	ReleaseCompleted bool
}

// ReplayReport aggregates a streaming replay.
type ReplayReport struct {
	Coflows        int     // coflows pulled from the source
	AvgCCT         float64 // seconds, unweighted mean over completed coflows
	WeightedAvgCCT float64 // Σw·CCT / Σw over completed coflows
	MaxCCT         float64
	Makespan       float64
	TotalBytes     float64
	Epochs         int
	// PeakResident is the largest number of coflows held by the session at
	// any admission — the memory high-water mark of the replay. Without
	// ReleaseCompleted it ends up equal to Coflows.
	PeakResident int
}

// ReplayStream pulls the source dry through one live session over a
// machines-port fabric at netsim.DefaultPortBandwidth and returns the
// aggregate report. The source must yield arrivals in non-decreasing order
// (fbtrace streams do); a regression is reported as an error.
func ReplayStream(machines int, src CoflowSource, opts ReplayOptions) (*ReplayReport, error) {
	if src == nil {
		return nil, errors.New("core: replay needs a coflow source")
	}
	fabric, err := netsim.NewFabric(machines, 0)
	if err != nil {
		return nil, err
	}
	sched := opts.Scheduler
	if sched == nil {
		sched = coflow.NewVarys()
	}
	sim := netsim.NewSimulator(fabric, sched)
	sim.EventHorizon = opts.EventHorizon
	sim.ReleaseCompleted = opts.ReleaseCompleted
	ses, err := sim.Session()
	if err != nil {
		return nil, err
	}
	out := &ReplayReport{}
	last := 0.0
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		if c.Arrival < last {
			return nil, fmt.Errorf("core: replay source regressed: coflow %d arrives at %g after %g",
				c.ID, c.Arrival, last)
		}
		last = c.Arrival
		// Advance first so completed coflows retire (and, under
		// ReleaseCompleted, free) before the next admission grows the set.
		if err := ses.Advance(c.Arrival); err != nil {
			return nil, fmt.Errorf("core: replay at t=%g: %w", c.Arrival, err)
		}
		if err := ses.Admit(c); err != nil {
			return nil, fmt.Errorf("core: replay admit coflow %d: %w", c.ID, err)
		}
		out.Coflows++
		if r := ses.AdmittedCount(); r > out.PeakResident {
			out.PeakResident = r
		}
	}
	rep, err := ses.Finish()
	if err != nil {
		return nil, err
	}
	out.AvgCCT = rep.AvgCCT
	out.WeightedAvgCCT = rep.WeightedAvgCCT
	out.MaxCCT = rep.MaxCCT
	out.Makespan = rep.Makespan
	out.TotalBytes = rep.TotalBytes
	out.Epochs = rep.Epochs
	return out, nil
}
