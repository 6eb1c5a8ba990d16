package core

// Experiment definitions for the paper's evaluation. Each Fig* function
// regenerates one figure (both panels) and returns the data as stats tables
// plus the speedup bands the paper quotes in the text.

import (
	"fmt"
	"runtime"

	"ccf/internal/parallel"
	"ccf/internal/stats"
	"ccf/internal/workload"
)

// SweepOptions parameterise a figure sweep. Zero values take the paper's
// defaults; Scale shrinks the dataset for unit tests and CI-speed benches.
type SweepOptions struct {
	// Scale multiplies the tuple counts (1.0 = paper scale: 90 M + 900 M
	// tuples ≈ 1 TB; 0 truncates both counts to 0, which workload.Config
	// reads as paper scale too). The figure *shapes* are scale-free:
	// traffic and time scale linearly, speedups are unchanged (a tested
	// invariant).
	Scale float64
	// Bandwidth per port, bytes/sec (0 = CoflowSim default 128 MB/s).
	Bandwidth float64
	// PartitionMultiplier overrides p = 15n when nonzero.
	PartitionMultiplier int
	// ShuffleRanks breaks zipf rank alignment (ablation abl-rank).
	ShuffleRanks bool
	// UseEventSim switches CCT measurement to the flow-level simulator.
	UseEventSim bool
	// Workers bounds the sweep's x-point parallelism: 1 forces the serial
	// path, 0 keeps the library default min(GOMAXPROCS, 4) — each point holds
	// an n×p matrix, ≈120 MB at the paper's 1000-node shape, so "all cores"
	// is not a safe default for memory. Results are identical at any value
	// (points are independent and aggregated in axis order).
	Workers int
}

// workloadConfig leaves chunk sizes unjittered, in exact Zipf proportions:
// the paper's uniform (zipf = 0) data still funnels Mini into node 0, which
// needs each partition's argmax to stay on the first node.
func (o SweepOptions) workloadConfig(n int, zipf, skewFrac float64) workload.Config {
	cfg := workload.Config{
		Nodes:          n,
		Zipf:           zipf,
		Skew:           skewFrac,
		CustomerTuples: int64(o.Scale * workload.DefaultCustomerTuples),
		OrderTuples:    int64(o.Scale * workload.DefaultOrderTuples),
		ShuffleRanks:   o.ShuffleRanks,
	}
	if o.PartitionMultiplier > 0 {
		cfg.Partitions = o.PartitionMultiplier * n
	}
	return cfg
}

// FigureResult carries both panels of one figure plus derived speedups.
type FigureResult struct {
	Traffic *stats.Table // panel (a): network traffic, GB
	Time    *stats.Table // panel (b): communication time, seconds
	// SpeedupOverHash / SpeedupOverMini are CCF's pointwise speedups, the
	// numbers the paper quotes in the running text.
	SpeedupOverHash []float64
	SpeedupOverMini []float64
}

// sweep runs the three approaches over a list of x points, where point i is
// described by (nodes, zipf, skew) from the pointCfg callback.
func sweep(title, xlabel string, xs []float64, pointCfg func(x float64) workload.Config, opts SweepOptions) (*FigureResult, error) {
	traffic := &stats.Table{Title: title + " (a)", XLabel: xlabel, YLabel: "network traffic (GB)", X: xs}
	times := &stats.Table{Title: title + " (b)", XLabel: xlabel, YLabel: "communication time (s)", X: xs}
	approaches := []Approach{ApproachHash, ApproachMini, ApproachCCF}
	trafficVals := map[Approach][]float64{}
	timeVals := map[Approach][]float64{}
	runOpts := Options{Bandwidth: opts.Bandwidth, UseEventSim: opts.UseEventSim}

	// X points are independent experiments; run them through the worker pool
	// and collect results in axis order (parallel.Run aggregates by input
	// index, so the series fold below performs the same appends the serial
	// loop did). The default worker bound stays small — each point holds an
	// n×p matrix, ≈120 MB at the paper's 1000-node shape.
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
	}
	outs, err := parallel.Run(workers, len(xs), func(i int) (map[Approach]*Result, error) {
		x := xs[i]
		wl, err := workload.Generate(pointCfg(x))
		if err != nil {
			return nil, fmt.Errorf("core: %s at %s=%g: %w", title, xlabel, x, err)
		}
		results, err := RunAll(wl, runOpts)
		if err != nil {
			return nil, fmt.Errorf("core: %s at %s=%g: %w", title, xlabel, x, err)
		}
		return results, nil
	})
	if err != nil {
		return nil, err
	}

	for _, results := range outs {
		for _, a := range approaches {
			trafficVals[a] = append(trafficVals[a], results[a].TrafficGB())
			timeVals[a] = append(timeVals[a], results[a].TimeSec)
		}
	}
	for _, a := range approaches {
		if err := traffic.AddSeries(string(a), trafficVals[a]); err != nil {
			return nil, err
		}
		if err := times.AddSeries(string(a), timeVals[a]); err != nil {
			return nil, err
		}
	}

	fr := &FigureResult{Traffic: traffic, Time: times}
	if fr.SpeedupOverHash, err = stats.Speedups(
		stats.Series{Label: "Hash", Values: timeVals[ApproachHash]},
		stats.Series{Label: "CCF", Values: timeVals[ApproachCCF]}); err != nil {
		return nil, err
	}
	if fr.SpeedupOverMini, err = stats.Speedups(
		stats.Series{Label: "Mini", Values: timeVals[ApproachMini]},
		stats.Series{Label: "CCF", Values: timeVals[ApproachCCF]}); err != nil {
		return nil, err
	}
	return fr, nil
}

// DefaultFig5Nodes is the x axis of Figure 5: 100..1000 nodes.
func DefaultFig5Nodes() []int {
	var out []int
	for n := 100; n <= 1000; n += 100 {
		out = append(out, n)
	}
	return out
}

// Fig5 regenerates Figure 5: Hash/Mini/CCF traffic and communication time
// versus the number of nodes (zipf = 0.8, skew = 20%).
func Fig5(nodes []int, opts SweepOptions) (*FigureResult, error) {
	if len(nodes) == 0 {
		nodes = DefaultFig5Nodes()
	}
	xs := make([]float64, len(nodes))
	for i, n := range nodes {
		xs[i] = float64(n)
	}
	return sweep("Figure 5", "nodes", xs, func(x float64) workload.Config {
		return opts.workloadConfig(int(x), workload.DefaultZipf, workload.DefaultSkew)
	}, opts)
}

// DefaultFig6Zipfs is the x axis of Figure 6: zipf factor 0..1.
func DefaultFig6Zipfs() []float64 { return []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} }

// Fig6 regenerates Figure 6: the three approaches versus the Zipf factor
// (500 nodes, skew = 20%).
func Fig6(zipfs []float64, nodes int, opts SweepOptions) (*FigureResult, error) {
	if len(zipfs) == 0 {
		zipfs = DefaultFig6Zipfs()
	}
	if nodes == 0 {
		nodes = 500
	}
	return sweep("Figure 6", "zipf", zipfs, func(x float64) workload.Config {
		return opts.workloadConfig(nodes, x, workload.DefaultSkew)
	}, opts)
}

// DefaultFig7Skews is the x axis of Figure 7: skew 0..50%.
func DefaultFig7Skews() []float64 { return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} }

// Fig7 regenerates Figure 7: the three approaches versus data skewness
// (500 nodes, zipf = 0.8).
func Fig7(skews []float64, nodes int, opts SweepOptions) (*FigureResult, error) {
	if len(skews) == 0 {
		skews = DefaultFig7Skews()
	}
	if nodes == 0 {
		nodes = 500
	}
	return sweep("Figure 7", "skew", skews, func(x float64) workload.Config {
		return opts.workloadConfig(nodes, workload.DefaultZipf, x)
	}, opts)
}
