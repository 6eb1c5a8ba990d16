package main

// The failure-model experiments: the randomized chaos sweep over every
// coflow scheduler and the node-loss recovery comparison (co-optimized
// re-placement vs naive retry-in-place). Both mirror the tests in
// internal/core (TestChaosInvariants, TestRecoveryReplaceBeatsRetryInPlace)
// so the CLI and CI exercise the same invariants.

import (
	"fmt"

	"ccf/internal/core"
	"ccf/internal/parallel"
	"ccf/internal/placement"
	"ccf/internal/workload"
)

// chaosExp runs the seeded chaos sweep and prints the aggregate summary.
// Any invariant violation is printed and turns into a non-zero exit.
func chaosExp(seeds, workers int) error {
	res, err := core.RunChaos(core.ChaosConfig{Seeds: seeds, Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("Chaos sweep: %d fault schedules x %d coflow schedulers, rotating retransmission policies\n", seeds, res.Runs/seeds)
	fmt.Printf("  runs:           %d\n", res.Runs)
	fmt.Printf("  wasted bytes:   %.0f (voided by restarts, re-sent)\n", res.TotalWasted)
	fmt.Printf("  flow restarts:  %d\n", res.TotalRestarts)
	fmt.Printf("  max slowdown:   %.3fx (worst faulted/fault-free makespan)\n", res.MaxSlowdown)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Println("  VIOLATION:", v)
		}
		return fmt.Errorf("%d invariant violation(s)", len(res.Violations))
	}
	fmt.Println("  invariants:     all hold (completion, byte conservation, lower bound, recovery)")
	fmt.Println()
	return nil
}

// recoveryExp compares the two recovery policies over a set of seeds: kill
// one node a quarter into the fault-free transfer, then finish the
// redistribution with co-optimized re-placement vs retry-in-place.
func recoveryExp(bw float64, workers int) error {
	if bw <= 0 {
		bw = 1e6 // second-scale runs at the experiment's workload size
	}
	opts := core.Options{Bandwidth: bw}
	fmt.Println("Recovery: node 3 of 8 dies at 25% of the fault-free makespan;")
	fmt.Println("orphaned partitions re-placed by restricted CCF (replace) vs hash-style (retry-in-place)")
	fmt.Printf("  %-4s %12s %6s %14s %14s %8s\n",
		"seed", "clean (s)", "orph", "replace (s)", "retry (s)", "gain")
	const seeds = 8
	// Seeds are independent; run them through the pool and print the rows
	// from the index-ordered results so the table matches the serial output.
	type row struct {
		clean, replace, retry float64
		orphans               int
	}
	rows, err := parallel.Run(workers, seeds, func(i int) (row, error) {
		seed := uint64(i)
		w, err := workload.Generate(workload.Config{
			Nodes: 8, Partitions: 64,
			CustomerTuples: 2000, OrderTuples: 20000, PayloadBytes: 100,
			Zipf: 0.3, ShuffleRanks: true, Seed: seed, JitterFrac: 0.3,
		})
		if err != nil {
			return row{}, err
		}
		clean, err := core.RunScheduler(w, placement.CCF{}, false, core.Options{Bandwidth: bw, UseEventSim: true})
		if err != nil {
			return row{}, err
		}
		spec := core.NodeLossSpec{FailNode: 3, FailTime: clean.TimeSec / 4}
		rep, err := core.RunWithNodeLoss(w, placement.CCF{}, spec, core.RecoverReplace, opts)
		if err != nil {
			return row{}, err
		}
		retry, err := core.RunWithNodeLoss(w, placement.CCF{}, spec, core.RecoverRetryInPlace, opts)
		if err != nil {
			return row{}, err
		}
		return row{
			clean: rep.CleanMakespan, replace: rep.PostMakespan,
			retry: retry.PostMakespan, orphans: rep.ReplacedPartitions,
		}, nil
	})
	if err != nil {
		return err
	}
	var sumReplace, sumRetry float64
	wins := 0
	for seed, r := range rows {
		gain := (r.retry - r.replace) / r.retry * 100
		fmt.Printf("  %-4d %12.4f %6d %14.4f %14.4f %+7.1f%%\n",
			seed, r.clean, r.orphans, r.replace, r.retry, gain)
		sumReplace += r.replace
		sumRetry += r.retry
		if r.replace < r.retry {
			wins++
		}
	}
	fmt.Printf("  %-4s %12s %6s %14.4f %14.4f %+7.1f%%\n", "mean", "", "",
		sumReplace/seeds, sumRetry/seeds, (sumRetry-sumReplace)/sumRetry*100)
	fmt.Printf("  co-optimized re-placement wins %d/%d seeds\n\n", wins, seeds)
	return nil
}
