package main

// The telemetry experiment: one seeded online workload through all 7
// coflow schedulers with a telemetry recorder attached, reduced to a
// utilization/stretch row per scheduler. The columns make the scheduler
// trade-offs visible at a glance: Varys buys low mean stretch with
// preemption (low Jain fairness), per-flow fair maximizes fairness at the
// cost of stretch, FIFO queues everything (high queue delay).

import (
	"fmt"

	"ccf/internal/core"
)

func telemetryExp(bw float64, workers int) error {
	rows, err := core.TelemetryExperiment(core.TelemetryConfig{Bandwidth: bw, Workers: workers})
	if err != nil {
		return err
	}
	fmt.Println("Telemetry: per-scheduler utilization and stretch on one online workload")
	fmt.Printf("(%d ports, %d coflows, seed %d; stretch = CCT / isolated lower bound)\n",
		core.TelemetryNodes, core.TelemetryCoflows, core.TelemetrySeed)
	fmt.Printf("  %-18s %9s %8s %9s %9s %9s %9s %7s\n",
		"scheduler", "makespan", "avgCCT", "util-avg", "util-pk", "stretch", "worst", "jain")
	for _, r := range rows {
		s := r.Summary
		fmt.Printf("  %-18s %9.2f %8.2f %8.1f%% %8.1f%% %9.3f %9.3f %7.3f\n",
			r.Scheduler, r.Makespan, r.AvgCCT,
			100*s.MeanUtilization, 100*s.PeakUtilization,
			s.MeanStretch, s.MaxStretch, s.JainFairness)
	}
	fmt.Println()
	return nil
}
