// datagen emits workloads in the CoflowSim "benchmark" trace format so CCF's
// schedules can be replayed by the original Varys/Aalo tooling (the paper's
// Figure 4 pipeline: scheduling output → coflow info → simulator).
//
// For a given workload and placer it writes one trace whose jobs encode the
// shuffle flows the placement induces.
//
// Usage:
//
//	datagen -nodes 50 -placer ccf -o shuffle_ccf.txt
//	datagen -nodes 50 -placer hash -scale 0.001 -o shuffle_hash.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/skew"
	"ccf/internal/trace"
	"ccf/internal/workload"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 50, "cluster size n")
		parts    = flag.Int("partitions", 0, "partition count p (0 = 15n)")
		zipf     = flag.Float64("zipf", workload.DefaultZipf, "zipf factor")
		skewFrac = flag.Float64("skew", workload.DefaultSkew, "skew fraction")
		scale    = flag.Float64("scale", 0.01, "dataset scale (1.0 = ≈1 TB)")
		placer   = flag.String("placer", "ccf", "application-level scheduler: "+placement.Names())
		out      = flag.String("o", "", "output file (default stdout)")
		seed     = flag.Uint64("seed", 0, "workload seed")
	)
	flag.Parse()
	customers, orders, err := workload.ScaledTuples(*scale)
	cfg := workload.Config{
		Nodes: *nodes, Partitions: *parts, Zipf: *zipf, Skew: *skewFrac, Seed: *seed,
		CustomerTuples: customers, OrderTuples: orders,
	}
	var placed placement.Named
	if err == nil {
		placed, err = placement.ByName(*placer)
	}
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(2)
	}
	if err := run(cfg, placed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(cfg workload.Config, placed placement.Named, out string) error {
	w, err := workload.Generate(cfg)
	if err != nil {
		return err
	}

	matrix := w.Chunks
	var initial *partition.Loads
	var broadcast []int64
	if placed.HandleSkew && w.SkewPartition >= 0 {
		plan := skew.PartialDuplication(w)
		if err := plan.Validate(w.Chunks); err != nil {
			return err
		}
		matrix, initial, broadcast = plan.Adjusted, plan.Initial, plan.BroadcastVolumes
	}
	ev, err := placement.Evaluate(placed.Scheduler, matrix, initial, broadcast)
	if err != nil {
		return err
	}

	tr, err := trace.FromVolumes(cfg.Nodes, ev.Volumes, 0)
	if err != nil {
		return err
	}

	dst := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := trace.Write(dst, tr); err != nil {
		return err
	}
	if out != "" {
		// Close's error can be the failed write-back of the file's end.
		if err := dst.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "datagen: %d jobs over %d racks (%s placement, %.2f GB shuffle)\n",
		len(tr.Jobs), cfg.Nodes, placed.Scheduler.Name(), float64(ev.TrafficBytes)/1e9)
	return nil
}
