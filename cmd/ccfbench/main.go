// ccfbench regenerates the paper's evaluation: every figure panel of
// Figures 5-7, the Figure 1/2 motivating example, and the ablation studies
// listed in DESIGN.md. Output is an ASCII table per panel (the same rows the
// paper plots) plus optional CSV files for plotting.
//
// Usage:
//
//	ccfbench -exp all                 # everything, paper scale (~1 TB synthetic)
//	ccfbench -exp fig5 -scale 0.01    # one figure, 1% of the data
//	ccfbench -exp fig6 -csv out/      # also write out/fig6a.csv, out/fig6b.csv
//	ccfbench -exp motivating          # the Figure 1/2 walk-through
//	ccfbench -exp ablation-rank       # aligned vs shuffled zipf ranks
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ccf/internal/bound"
	"ccf/internal/core"
	"ccf/internal/milp"
	"ccf/internal/netsim"
	"ccf/internal/placement"
	"ccf/internal/skew"
	"ccf/internal/stats"
	"ccf/internal/topology"
	"ccf/internal/workload"
)

// experiment is one -exp value. The table in main is the only list of them:
// the -exp help text, the unknown-name rejection and the dispatch all read it.
type experiment struct {
	name string
	// inAll marks the paper's figures and ablations, which `-exp all` runs in
	// table order; the rest (failure model, telemetry, service drivers) run
	// only when named.
	inAll bool
	run   func() error
}

func main() {
	var (
		scale     = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = paper's ≈1 TB)")
		bandwidth = flag.Float64("bw", 0, "port bandwidth in bytes/sec (0 = CoflowSim default 128 MB/s)")
		csvDir    = flag.String("csv", "", "directory to write per-panel CSV files (empty = none)")
		eventSim  = flag.Bool("eventsim", false, "use the flow-level event simulator instead of the closed form (slow at full node counts)")
		chart     = flag.Bool("chart", false, "also render each figure panel as an ASCII chart (time panels on a log scale)")
		seeds     = flag.Int("seeds", 32, "fault schedules for the chaos experiment")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for sweep-style experiments "+
			"(1 = serial; results are identical at any value, figure sweeps may hold ~120 MB per worker at paper scale)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")

		serviceJSON   = flag.String("servicejson", "BENCH_service.json", "output path for the service-load experiment's JSON")
		serviceDir    = flag.String("servicedir", "", "state directory for the service-load pool (empty = fresh temp dir)")
		serviceURL    = flag.String("serviceurl", "", "base URL of a running ccfd for the service-smoke experiment")
		serviceJobs   = flag.Int("servicejobs", 100, "jobs the service-smoke driver submits")
		serviceOffset = flag.Int("serviceoffset", 0, "first job index of the service-smoke stream (resume point after a restart)")
		serviceNodes  = flag.Int("servicenodes", 100, "fabric size of the target daemon for service-smoke job specs")
		smokeOut      = flag.String("smokeout", "SMOKE_decisions.jsonl", "decision JSONL the service-smoke driver appends to")
		serviceWait   = flag.Duration("servicewait", 30*time.Second, "how long service-smoke/-burst waits for the daemon to become ready")

		burstClients = flag.Int("burstclients", 32, "concurrent submitters for the service-burst experiment")
		burstOut     = flag.String("burstout", "SMOKE_acked.jsonl", "acked {shard,seq} ledger the service-burst driver writes")
	)
	// The closures read the flag values and opts when they run, after
	// flag.Parse.
	var opts core.SweepOptions
	figure := func(name string, sweep func() (*core.FigureResult, error)) func() error {
		return func() error {
			fr, err := sweep()
			if err != nil {
				return err
			}
			return emit(fr, name, *csvDir)
		}
	}
	exps := []experiment{
		{"motivating", true, motivating},
		{"fig5", true, figure("fig5", func() (*core.FigureResult, error) { return core.Fig5(nil, opts) })},
		{"fig6", true, figure("fig6", func() (*core.FigureResult, error) { return core.Fig6(nil, 500, opts) })},
		{"fig7", true, figure("fig7", func() (*core.FigureResult, error) { return core.Fig7(nil, 500, opts) })},
		{"ablation-rank", true, func() error { return ablationRank(opts, *csvDir) }},
		{"ablation-pmult", true, func() error { return ablationPmult(opts, *csvDir) }},
		{"ablation-sort", true, func() error { return ablationSort(opts) }},
		{"ablation-exact", true, ablationExact},
		{"ablation-hetero", true, func() error { return ablationHetero(opts) }},
		{"ablation-topo", true, func() error { return ablationTopo(opts) }},
		{"ablation-bound", true, func() error { return ablationBound(opts) }},
		{"chaos", false, func() error { return chaosExp(*seeds, *workers) }},
		{"recovery", false, func() error { return recoveryExp(*bandwidth, *workers) }},
		{"telemetry", false, func() error { return telemetryExp(1, *bandwidth, *workers) }},
		{"service-load", false, func() error {
			fmt.Println("service-load: daemon under steady load, overload, and kill+restart:")
			return serviceLoadExp(*serviceJSON, *serviceDir)
		}},
		{"service-smoke", false, func() error {
			return serviceSmokeExp(*serviceURL, *serviceJobs, *serviceOffset, *serviceNodes, *smokeOut, *serviceWait)
		}},
		{"service-burst", false, func() error {
			return serviceBurstExp(*serviceURL, *serviceJobs, *serviceNodes, *burstClients, *burstOut, *serviceWait)
		}},
	}
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(names, ", "))
	flag.Parse()
	chartPanels = *chart

	if err := validateBenchFlags(exps, *exp, *scale, *bandwidth, *seeds, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "ccfbench:", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccfbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccfbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ccfbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ccfbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	opts = core.SweepOptions{Scale: *scale, Bandwidth: *bandwidth, UseEventSim: *eventSim, Workers: *workers}
	for _, e := range exps {
		if *exp != e.name && !(*exp == "all" && e.inAll) {
			continue
		}
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "ccfbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
}

// validateBenchFlags rejects an -exp value the table does not list and
// nonsensical knob values with a one-line message before any experiment
// starts.
func validateBenchFlags(exps []experiment, exp string, scale, bw float64, seeds, workers int) error {
	known := exp == "all"
	for _, e := range exps {
		known = known || e.name == exp
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (see -exp in -help)", exp)
	}
	if scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %g", scale)
	}
	if bw < 0 {
		return fmt.Errorf("-bw must be non-negative, got %g", bw)
	}
	if seeds <= 0 {
		return fmt.Errorf("-seeds must be positive, got %d", seeds)
	}
	if workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", workers)
	}
	return nil
}

// chartPanels toggles ASCII charts next to the numeric tables.
var chartPanels bool

func emit(fr *core.FigureResult, name, csvDir string) error {
	if err := stats.RenderASCII(os.Stdout, fr.Traffic); err != nil {
		return err
	}
	fmt.Println()
	if err := stats.RenderASCII(os.Stdout, fr.Time); err != nil {
		return err
	}
	if chartPanels {
		fmt.Println()
		if err := stats.RenderChart(os.Stdout, fr.Traffic, stats.ChartOptions{}); err != nil {
			return err
		}
		fmt.Println()
		if err := stats.RenderChart(os.Stdout, fr.Time, stats.ChartOptions{LogY: true}); err != nil {
			return err
		}
	}
	loH, hiH := stats.MinMax(fr.SpeedupOverHash)
	loM, hiM := stats.MinMax(fr.SpeedupOverMini)
	fmt.Printf("CCF speedup over Hash: %.1f-%.1fx, over Mini: %.1f-%.1fx\n\n", loH, hiH, loM, hiM)
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	for suffix, tbl := range map[string]*stats.Table{"a": fr.Traffic, "b": fr.Time} {
		f, err := os.Create(filepath.Join(csvDir, name+suffix+".csv"))
		if err != nil {
			return err
		}
		if err := stats.RenderCSV(f, tbl); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func motivating() error {
	res, err := core.MotivatingExample()
	if err != nil {
		return err
	}
	fmt.Println("Motivating example (paper Figures 1 and 2), 3 nodes, keys 0/1/2/5:")
	fmt.Println("  node 0: 1x3 2x1 0x3   node 1: 1x6 2x2 5x1   node 2: 5x2 0x1")
	for _, p := range []core.MotivatingPlan{res.SP0, res.SP1, res.SP2, res.CCF} {
		fmt.Printf("  %-4s dest=%v  traffic=%d tuples  CCT(optimal coflow)=%g  CCT(uncoordinated)=%g\n",
			p.Name, p.Placement.Dest, p.Traffic, p.OptimalCCT, p.WorstCCT)
	}
	fmt.Printf("  certified optimal bottleneck T = %d (branch & bound)\n", res.OptimalT)
	fmt.Println("  => the traffic-optimal SP2 (6 tuples) needs 4 time units; the")
	fmt.Println("     traffic-suboptimal SP1 (7 tuples) needs only 3 — the gap CCF exploits.")
	fmt.Println()
	return nil
}

func ablationRank(opts core.SweepOptions, csvDir string) error {
	fmt.Println("Ablation abl-rank: does Mini's collapse depend on zipf rank alignment?")
	fmt.Println("(500 nodes, zipf=0.8, skew=20%)")
	for _, shuffle := range []bool{false, true} {
		o := opts
		o.ShuffleRanks = shuffle
		fr, err := core.Fig6([]float64{0.8}, 500, o)
		if err != nil {
			return err
		}
		mode := "aligned ranks (paper)"
		if shuffle {
			mode = "shuffled ranks"
		}
		row := func(label string) float64 {
			s, _ := fr.Time.Get(label)
			return s.Values[0]
		}
		fmt.Printf("  %-22s Hash %8.1f s   Mini %8.1f s   CCF %8.1f s\n",
			mode, row("Hash"), row("Mini"), row("CCF"))
	}
	fmt.Println()
	return nil
}

func ablationPmult(opts core.SweepOptions, csvDir string) error {
	fmt.Println("Ablation abl-pmult: partition granularity p = m x n (500 nodes, zipf=0.8, skew=20%)")
	for _, mult := range []int{5, 15, 30} {
		o := opts
		o.PartitionMultiplier = mult
		fr, err := core.Fig6([]float64{0.8}, 500, o)
		if err != nil {
			return err
		}
		row := func(label string) float64 {
			s, _ := fr.Time.Get(label)
			return s.Values[0]
		}
		fmt.Printf("  p = %2dxn:  Hash %8.1f s   Mini %8.1f s   CCF %8.1f s\n",
			mult, row("Hash"), row("Mini"), row("CCF"))
	}
	fmt.Println()
	return nil
}

func ablationSort(opts core.SweepOptions) error {
	fmt.Println("Ablation abl-sort: Algorithm 1 with vs without the descending sort (line 1)")
	cfg := workload.Config{
		Nodes: 500, Zipf: 0.8, Skew: 0.2,
		CustomerTuples: int64(opts.Scale * workload.DefaultCustomerTuples),
		OrderTuples:    int64(opts.Scale * workload.DefaultOrderTuples),
	}
	if cfg.CustomerTuples == 0 {
		cfg.CustomerTuples = workload.DefaultCustomerTuples
		cfg.OrderTuples = workload.DefaultOrderTuples
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		return err
	}
	for _, s := range []placement.Scheduler{placement.CCF{}, placement.CCF{NoSort: true}} {
		r, err := core.RunScheduler(w, s, true, core.Options{Bandwidth: opts.Bandwidth})
		if err != nil {
			return err
		}
		fmt.Printf("  %-11s T = %d bytes, time = %.1f s\n", s.Name()+":", r.BottleneckBytes, r.TimeSec)
	}
	fmt.Println()
	return nil
}

func ablationExact() error {
	fmt.Println("Ablation abl-exact: CCF heuristic vs certified optimum (branch & bound)")
	fmt.Println("  (small instances: the paper reports >30 min of Gurobi at n=500, p=7500)")
	seeds := []uint64{1, 2, 3, 4, 5}
	var worst float64 = 1
	for _, seed := range seeds {
		w, err := workload.Generate(workload.Config{
			Nodes: 5, Partitions: 12, CustomerTuples: 500, OrderTuples: 5000,
			PayloadBytes: 100, Zipf: 0.8, Skew: 0.2, Seed: seed, JitterFrac: 0.05,
		})
		if err != nil {
			return err
		}
		ev, err := placement.Evaluate(placement.CCF{}, w.Chunks, nil, nil)
		if err != nil {
			return err
		}
		res, err := milp.Solve(w.Chunks, nil, milp.Options{UpperBound: ev.BottleneckBytes, MaxExplored: 20_000_000})
		if err != nil {
			return err
		}
		ratio := float64(ev.BottleneckBytes) / float64(res.T)
		if ratio > worst {
			worst = ratio
		}
		fmt.Printf("  seed %d: heuristic T=%d, optimal T=%d (certified=%v, %d nodes explored), ratio %.4f\n",
			seed, ev.BottleneckBytes, res.T, res.Optimal, res.Explored, ratio)
	}
	fmt.Printf("  worst heuristic/optimal ratio: %.4f\n\n", worst)
	return nil
}

// ablationBound certifies the heuristic's optimality gap at the paper's
// full 500-node shape, where neither Gurobi (per the paper) nor branch &
// bound can enumerate: feasible T from Algorithm 1 vs the relaxation lower
// bound of internal/bound.
func ablationBound(opts core.SweepOptions) error {
	fmt.Println("Ablation abl-bound: certified optimality gap at paper scale (500 nodes, p=7500, zipf=0.8, skew=20%)")
	scale := opts.Scale
	if scale == 0 {
		scale = 1
	}
	w, err := workload.Generate(workload.Config{
		Nodes: 500, Zipf: 0.8, Skew: 0.2,
		CustomerTuples: int64(scale * workload.DefaultCustomerTuples),
		OrderTuples:    int64(scale * workload.DefaultOrderTuples),
	})
	if err != nil {
		return err
	}
	plan := skew.PartialDuplication(w)
	for _, s := range []placement.Scheduler{placement.CCF{}, placement.CCFRefined{}} {
		ev, err := placement.Evaluate(s, plan.Adjusted, plan.Initial, nil)
		if err != nil {
			return err
		}
		lb, ratio, err := bound.Gap(plan.Adjusted, plan.Initial, ev.BottleneckBytes)
		if err != nil {
			return err
		}
		fmt.Printf("  %-13s T = %d bytes, lower bound = %d  =>  gap <= %.4fx optimal\n",
			s.Name()+":", ev.BottleneckBytes, lb, ratio)
	}
	fmt.Println()
	return nil
}

// ablationHetero: one degraded ingress link; capacity-aware CCF vs the
// oblivious placers (the R_l generalization of constraint 1.5).
func ablationHetero(opts core.SweepOptions) error {
	fmt.Println("Ablation abl-hetero: node 0's ingress at 1/8 bandwidth (100 nodes, zipf=0.8, skew=20%)")
	n := 100
	scale := opts.Scale
	if scale == 0 {
		scale = 1
	}
	w, err := workload.Generate(workload.Config{
		Nodes: n, Zipf: 0.8, Skew: 0.2,
		CustomerTuples: int64(scale * workload.DefaultCustomerTuples),
		OrderTuples:    int64(scale * workload.DefaultOrderTuples),
	})
	if err != nil {
		return err
	}
	eg := make([]float64, n)
	in := make([]float64, n)
	for i := 0; i < n; i++ {
		eg[i], in[i] = netsim.DefaultPortBandwidth, netsim.DefaultPortBandwidth
	}
	in[0] = netsim.DefaultPortBandwidth / 8
	topo, err := topology.NewNonBlocking(eg, in)
	if err != nil {
		return err
	}
	plan := skew.PartialDuplication(w)
	for _, s := range []placement.Scheduler{
		placement.Hash{}, placement.Mini{}, placement.CCF{}, topology.RackAwareCCF{Topo: topo},
	} {
		t, err := topo.PlacementCCT(s, plan.Adjusted, plan.Initial, plan.BroadcastVolumes)
		if err != nil {
			return err
		}
		fmt.Printf("  %-13s communication time %9.1f s\n", s.Name()+":", t)
	}
	fmt.Println()
	return nil
}

// ablationTopo: rack-aware CCF vs plain CCF on an oversubscribed leaf-spine.
func ablationTopo(opts core.SweepOptions) error {
	fmt.Println("Ablation abl-topo: 8 racks x 16 hosts, 4x oversubscribed core (zipf=0.8, skew=20%)")
	scale := opts.Scale
	if scale == 0 {
		scale = 1
	}
	topo, err := topology.NewLeafSpine(8, 16, netsim.DefaultPortBandwidth, 4*netsim.DefaultPortBandwidth)
	if err != nil {
		return err
	}
	w, err := workload.Generate(workload.Config{
		Nodes: topo.N, Zipf: 0.8, Skew: 0.2,
		CustomerTuples: int64(scale * workload.DefaultCustomerTuples),
		OrderTuples:    int64(scale * workload.DefaultOrderTuples),
	})
	if err != nil {
		return err
	}
	plan := skew.PartialDuplication(w)
	for _, s := range []placement.Scheduler{
		placement.Hash{}, placement.Mini{}, placement.CCF{}, topology.RackAwareCCF{Topo: topo},
	} {
		cct, err := topo.PlacementCCT(s, plan.Adjusted, plan.Initial, plan.BroadcastVolumes)
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s link-level communication time %9.1f s\n", s.Name()+":", cct)
	}
	fmt.Println("  (oversubscription ratio:", topo.Oversubscription(), ")")
	fmt.Println()
	return nil
}
