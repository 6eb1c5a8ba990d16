// Package core is the paper's primary contribution: the Coflow-based
// Co-optimization Framework (CCF). It wires the substrates together along
// the architecture of the paper's Figure 3 — an operator's data and network
// information enter the schedule/control layer, the application-level
// scheduler and the coflow scheduler co-optimize, and the resulting plan is
// executed (here: simulated) by the data-processing layer.
//
// The package also encodes the paper's entire evaluation (Figures 5-7 and
// the Figure 1/2 motivating example) as reproducible experiment functions.
package core

import (
	"fmt"
	"math"
	"strings"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/skew"
	"ccf/internal/workload"
)

// Approach names the three schemes of the evaluation (§IV.A).
type Approach string

const (
	// ApproachHash is the baseline hash-based join: network-level
	// optimization only (coflow scheduling over fixed hash placement).
	ApproachHash Approach = "Hash"
	// ApproachMini minimizes network traffic (track-join-style placement
	// plus skew handling), then coflow-schedules the result: application-
	// and network-level optimization, decoupled.
	ApproachMini Approach = "Mini"
	// ApproachCCF co-optimizes placement and coflow schedule (Algorithm 1
	// plus skew handling).
	ApproachCCF Approach = "CCF"
)

// Options configure a pipeline run.
type Options struct {
	// Bandwidth is the per-port bandwidth in bytes/sec; 0 uses the
	// CoflowSim default of 128 MB/s. NaN and ±Inf are errors.
	Bandwidth float64
	// UseEventSim runs the flow-level event simulator instead of the
	// closed-form bandwidth model. The two agree for a single coflow under
	// MADD (a tested invariant); the closed form avoids materialising the
	// O(n²) flows of thousand-node runs.
	UseEventSim bool
	// Probe, when non-nil, observes the event-simulator run (telemetry).
	// Only meaningful with UseEventSim; the closed form has no event loop
	// to observe. Nil keeps the simulator on its zero-overhead path.
	Probe netsim.Probe
}

// bandwidth resolves Options.Bandwidth, refusing the values netsim.NewFabric
// refuses so the closed form and the event simulator fail alike.
func (o Options) bandwidth() (float64, error) {
	if math.IsNaN(o.Bandwidth) || math.IsInf(o.Bandwidth, 0) {
		return 0, fmt.Errorf("core: bandwidth must be finite, got %g", o.Bandwidth)
	}
	if o.Bandwidth > 0 {
		return o.Bandwidth, nil
	}
	return netsim.DefaultPortBandwidth, nil
}

// Result reports one (workload, approach) execution.
type Result struct {
	Approach        string
	TrafficBytes    int64   // bytes crossing the network, broadcasts included
	BottleneckBytes int64   // T = max port load
	TimeSec         float64 // network communication time (CCT)
	SkewHandled     bool
	Placement       *partition.Placement
}

// TrafficGB returns traffic in the paper's unit (decimal gigabytes).
func (r *Result) TrafficGB() float64 { return float64(r.TrafficBytes) / 1e9 }

// SchedulerFor returns the placement scheduler and skew-handling policy of
// an approach, per §IV.A, from the placer table: Hash is skew-oblivious;
// Mini and CCF integrate partial duplication.
func SchedulerFor(a Approach) (placement.Scheduler, bool, error) {
	if a != ApproachHash && a != ApproachMini && a != ApproachCCF {
		return nil, false, fmt.Errorf("core: unknown approach %q", a)
	}
	p, err := placement.ByName(strings.ToLower(string(a)))
	return p.Scheduler, p.HandleSkew, err
}

// Run executes the CCF pipeline for one approach on one workload.
func Run(w *workload.Workload, a Approach, opts Options) (*Result, error) {
	sched, handleSkew, err := SchedulerFor(a)
	if err != nil {
		return nil, err
	}
	return RunScheduler(w, sched, handleSkew, opts)
}

// RunScheduler is the general pipeline: optional skew pre-processing, then
// application-level placement, then network-level (coflow) execution.
func RunScheduler(w *workload.Workload, sched placement.Scheduler, handleSkew bool, opts Options) (*Result, error) {
	bw, err := opts.bandwidth()
	if err != nil {
		return nil, err
	}
	matrix := w.Chunks
	var initial *partition.Loads
	var broadcast []int64
	if handleSkew && w.SkewPartition >= 0 {
		plan := skew.PartialDuplication(w)
		if err := plan.Validate(w.Chunks); err != nil {
			return nil, err
		}
		matrix, initial, broadcast = plan.Adjusted, plan.Initial, plan.BroadcastVolumes
	}

	eval, err := placement.Evaluate(sched, matrix, initial, broadcast)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Approach:        sched.Name(),
		TrafficBytes:    eval.TrafficBytes,
		BottleneckBytes: eval.BottleneckBytes,
		SkewHandled:     broadcast != nil,
		Placement:       eval.Placement,
	}
	if !opts.UseEventSim {
		res.TimeSec = float64(eval.BottleneckBytes) / bw
		return res, nil
	}
	res.TimeSec, _, err = netsim.RunAlone(res.Approach, matrix.N, eval.Volumes, bw, coflow.NewVarys(), opts.Probe)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunAll executes Hash, Mini and CCF on the same workload — one x-point of
// a figure.
func RunAll(w *workload.Workload, opts Options) (map[Approach]*Result, error) {
	out := make(map[Approach]*Result, 3)
	for _, a := range []Approach{ApproachHash, ApproachMini, ApproachCCF} {
		r, err := Run(w, a, opts)
		if err != nil {
			return nil, fmt.Errorf("core: approach %s: %w", a, err)
		}
		out[a] = r
	}
	return out, nil
}
