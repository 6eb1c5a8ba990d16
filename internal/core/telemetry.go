package core

// The telemetry experiment: run one seeded online coflow workload under
// every coflow scheduler with a telemetry.Recorder attached and reduce each
// run to the utilization/stretch row `ccfbench -exp telemetry` prints. The
// same lens the experimental coflow-scheduling literature uses to explain
// scheduler behavior — per-port utilization and per-coflow timelines —
// applied to our 7 schedulers on identical input.

import (
	"fmt"
	"math/rand"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/parallel"
	"ccf/internal/telemetry"
)

// The telemetry experiment's workload: TelemetryCoflows coflows over
// TelemetryNodes ports, drawn from seed TelemetrySeed.
const (
	TelemetryNodes   = 12
	TelemetryCoflows = 16
	TelemetrySeed    = 1
)

// TelemetryConfig sets the telemetry comparison experiment's fabric speed
// and parallelism.
type TelemetryConfig struct {
	Bandwidth float64 // bytes/sec (default 100: second-scale runs)
	// Workers bounds scheduler-level parallelism (1 = serial, 0 =
	// GOMAXPROCS). Rows come back in the fixed scheduler order either way.
	Workers int
}

func (c *TelemetryConfig) defaults() {
	if c.Bandwidth <= 0 {
		c.Bandwidth = 100
	}
}

// TelemetryRow is one scheduler's reduction.
type TelemetryRow struct {
	Scheduler string
	Makespan  float64
	AvgCCT    float64
	// Summary carries the full derived metrics (per-port, per-coflow,
	// stretch histogram) for callers that want more than the row.
	Summary *telemetry.Summary
}

// TelemetryExperiment runs the seeded workload under all 7 coflow
// schedulers, each observed by a fresh Recorder, and returns one row per
// scheduler in the fixed scheduler order (deterministic output).
func TelemetryExperiment(cfg TelemetryConfig) ([]TelemetryRow, error) {
	cfg.defaults()
	fabric, err := netsim.NewFabric(TelemetryNodes, cfg.Bandwidth)
	if err != nil {
		return nil, err
	}
	base := chaosWorkload(rand.New(rand.NewSource(TelemetrySeed)), TelemetryNodes, TelemetryCoflows)
	// Schedulers are independent runs over clones of the same workload; the
	// pool returns rows indexed by scheduler position, preserving the fixed
	// output order at any worker count.
	return parallel.Run(cfg.Workers, len(coflow.Schedulers), func(i int) (TelemetryRow, error) {
		sc := coflow.Schedulers[i]
		rec := telemetry.NewRecorder(telemetry.Config{})
		sim := netsim.NewSimulator(fabric, sc.New())
		sim.Probe = rec
		rep, err := sim.Run(cloneCoflows(base))
		if err != nil {
			return TelemetryRow{}, fmt.Errorf("telemetry experiment: scheduler %s: %w", sc.Name, err)
		}
		return TelemetryRow{
			Scheduler: sc.Name,
			Makespan:  rep.Makespan,
			AvgCCT:    rep.AvgCCT,
			Summary:   rec.Summary(),
		}, nil
	})
}
