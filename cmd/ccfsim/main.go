// ccfsim runs a single redistribution scenario end to end: generate (or
// load) a workload, place it with a chosen application-level scheduler,
// and measure the shuffle on the simulated fabric under a chosen coflow
// scheduler. It is the CLI equivalent of one point of the paper's figures,
// with every knob exposed.
//
// Usage:
//
//	ccfsim -nodes 100 -zipf 0.8 -skew 0.2 -placer ccf
//	ccfsim -nodes 50 -placer mini -eventsim
//	ccfsim -trace shuffle.txt -coflow per-flow-fair   # simulate a CoflowSim trace
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"ccf/internal/coflow"
	"ccf/internal/core"
	"ccf/internal/netsim"
	"ccf/internal/placement"
	"ccf/internal/telemetry"
	"ccf/internal/trace"
	"ccf/internal/workload"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 100, "cluster size n")
		parts     = flag.Int("partitions", 0, "partition count p (0 = 15n)")
		zipf      = flag.Float64("zipf", workload.DefaultZipf, "zipf factor for chunk sizes over nodes")
		skewFrac  = flag.Float64("skew", workload.DefaultSkew, "fraction of ORDERS re-keyed to the hot key")
		scale     = flag.Float64("scale", 0.01, "dataset scale factor (1.0 = paper's ≈1 TB)")
		placer    = flag.String("placer", "ccf", "application-level scheduler: "+placement.Names())
		coflowSch = flag.String("coflow", "varys", "coflow scheduler for -trace: "+coflow.Names())
		bandwidth = flag.Float64("bw", 0, "port bandwidth bytes/sec (0 = 128 MB/s)")
		eventSim  = flag.Bool("eventsim", false, "run the flow-level event simulator")
		traceFile = flag.String("trace", "", "simulate a CoflowSim benchmark trace instead of a generated workload")
		seed      = flag.Uint64("seed", 0, "workload seed")
		traceOut  = flag.String("tracefile", "", "write a Chrome trace-event file of the simulated run (open in Perfetto or chrome://tracing); requires -eventsim or -trace")
		metrics   = flag.String("metrics", "", "write JSONL telemetry metrics of the simulated run; requires -eventsim or -trace")
		sample    = flag.Float64("sample", 0, "telemetry utilization sample resolution in seconds (0 = one sample per scheduling epoch, downsampled into a bounded ring)")
	)
	flag.Parse()

	customers, orders, err := workload.ScaledTuples(*scale)
	cfg := workload.Config{
		Nodes: *nodes, Partitions: *parts, Zipf: *zipf, Skew: *skewFrac, Seed: *seed,
		CustomerTuples: customers, OrderTuples: orders,
	}
	coflowSet := false
	flag.Visit(func(f *flag.Flag) { coflowSet = coflowSet || f.Name == "coflow" })
	var placed placement.Named
	if err == nil {
		placed, err = placement.ByName(*placer)
	}
	var sched coflow.Scheduler
	if err == nil {
		sched, err = coflow.ByName(*coflowSch)
	}
	if err == nil {
		err = validateFlags(cfg, *bandwidth, *sample)
	}
	if err == nil && coflowSet && *traceFile == "" {
		err = fmt.Errorf("-coflow needs a -trace input; a generated workload runs alone under Varys")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccfsim:", err)
		os.Exit(2)
	}
	telemetryOn := *traceOut != "" || *metrics != ""
	if telemetryOn && !*eventSim && *traceFile == "" {
		fmt.Fprintln(os.Stderr, "ccfsim: -tracefile/-metrics need the event simulator (-eventsim) or a -trace input")
		os.Exit(2)
	}
	var rec *telemetry.Recorder
	if telemetryOn {
		rec = telemetry.NewRecorder(telemetry.Config{Resolution: *sample})
	}
	if *traceFile != "" {
		if err := runTrace(*traceFile, sched, *bandwidth, rec); err != nil {
			fmt.Fprintln(os.Stderr, "ccfsim:", err)
			os.Exit(1)
		}
	} else if err := runWorkload(cfg, placed, *bandwidth, *eventSim, rec); err != nil {
		fmt.Fprintln(os.Stderr, "ccfsim:", err)
		os.Exit(1)
	}
	if rec != nil {
		if err := exportTelemetry(rec, *traceOut, *metrics); err != nil {
			fmt.Fprintln(os.Stderr, "ccfsim:", err)
			os.Exit(1)
		}
	}
}

// exportTelemetry prints the derived-metrics summary and writes the
// requested trace/metrics files.
func exportTelemetry(rec *telemetry.Recorder, traceOut, metrics string) error {
	fmt.Println()
	if err := telemetry.RenderSummary(os.Stdout, rec.Summary()); err != nil {
		return err
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("telemetry: Chrome trace written to %s (open in https://ui.perfetto.dev)\n", traceOut)
	}
	if metrics != "" {
		f, err := os.Create(metrics)
		if err != nil {
			return err
		}
		if err := rec.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("telemetry: JSONL metrics written to %s\n", metrics)
	}
	return nil
}

// validateFlags rejects nonsensical knob values up front with a one-line
// message instead of letting them surface as panics or garbage output deep
// in the pipeline: the workload config as Config.Validate checks outside
// input, plus the knobs only the command has.
func validateFlags(cfg workload.Config, bw, sample float64) error {
	if !(bw >= 0) || math.IsInf(bw, 1) {
		return fmt.Errorf("-bw must be finite and non-negative, got %g", bw)
	}
	if !(sample >= 0) {
		return fmt.Errorf("-sample must be non-negative, got %g", sample)
	}
	return cfg.Validate()
}

func runWorkload(cfg workload.Config, placed placement.Named, bw float64, eventSim bool, rec *telemetry.Recorder) error {
	w, err := workload.Generate(cfg)
	if err != nil {
		return err
	}
	opts := core.Options{Bandwidth: bw, UseEventSim: eventSim}
	if rec != nil {
		opts.Probe = rec
	}
	res, err := core.RunScheduler(w, placed.Scheduler, placed.HandleSkew, opts)
	if err != nil {
		return err
	}
	fmt.Printf("workload: n=%d p=%d zipf=%g skew=%g total=%.2f GB\n",
		cfg.Nodes, w.Config.Partitions, cfg.Zipf, cfg.Skew, float64(w.TotalBytes())/1e9)
	fmt.Printf("placer:   %s (skew handling: %v)\n", res.Approach, res.SkewHandled)
	fmt.Printf("traffic:  %.2f GB over the network\n", res.TrafficGB())
	fmt.Printf("bottleneck port load: %.2f GB\n", float64(res.BottleneckBytes)/1e9)
	fmt.Printf("communication time:   %.2f s\n", res.TimeSec)
	return nil
}

func runTrace(path string, sched coflow.Scheduler, bw float64, rec *telemetry.Recorder) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Parse(f)
	if err != nil {
		return err
	}
	fabric, err := netsim.NewFabric(tr.NumRacks, bw)
	if err != nil {
		return err
	}
	sim := netsim.NewSimulator(fabric, sched)
	if rec != nil {
		sim.Probe = rec
	}
	rep, err := sim.Run(tr.Coflows())
	if err != nil {
		return err
	}
	fmt.Printf("trace:    %s (%d racks, %d jobs)\n", path, tr.NumRacks, len(tr.Jobs))
	fmt.Printf("coflow scheduler: %s\n", sched.Name())
	fmt.Printf("makespan: %.3f s   avg CCT: %.3f s   max CCT: %.3f s\n", rep.Makespan, rep.AvgCCT, rep.MaxCCT)
	fmt.Printf("moved:    %.2f GB in %d scheduling epochs\n", rep.TotalBytes/1e9, rep.Epochs)
	return nil
}
