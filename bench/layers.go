package main

// The traced run: a few untraced rounds, a few traced rounds, then each
// workload's probes. It prints every per-layer metric BENCHMARK.json declares
// (a layer is a package), zero where a layer is not on the workload's path,
// and writes the last traced round's spans as a Chrome trace.

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ccf/internal/coflow"
	"ccf/internal/core"
	"ccf/internal/fbtrace"
	"ccf/internal/join"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/stats"
)

// tracedRounds is how many untraced and how many traced rounds the traced run
// makes; the end-to-end numbers never come from here.
const tracedRounds = 3

// procCounters are the process-wide counters sampled around a round.
type procCounters struct {
	cpu            time.Duration
	mallocs, bytes uint64
	gcPause        time.Duration
}

// add accumulates the growth of the counters from before to after.
func (p *procCounters) add(after, before procCounters) {
	p.cpu += after.cpu - before.cpu
	p.mallocs += after.mallocs - before.mallocs
	p.bytes += after.bytes - before.bytes
	p.gcPause += after.gcPause - before.gcPause
}

func readProc() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcPause: time.Duration(ms.PauseTotalNs)}
}

// runTraced is the --trace 1 process. defs is BENCHMARK.json's per_layer list.
func runTraced(w runner, name string, defs []metricDef, outDir string, inputGen float64, res *result) error {
	if _, err := w.round(nil); err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	tr := newTracer()
	for _, t := range w.tracks() {
		tr.track(t)
	}
	// Untraced and traced rounds alternate, so slow drift of the box cancels
	// in the traced/untraced ratio. The process counters cover the untraced
	// rounds only.
	var untraced, traced []*roundResult
	var proc procCounters
	for i := 0; i < tracedRounds; i++ {
		runtime.GC()
		p0 := readProc()
		r, err := w.round(nil)
		if err != nil {
			return fmt.Errorf("untraced round %d: %w", i+1, err)
		}
		proc.add(readProc(), p0)
		untraced = append(untraced, r)
		runtime.GC()
		tr.reset()
		if r, err = w.round(tr); err != nil {
			return fmt.Errorf("traced round %d: %w", i+1, err)
		}
		traced = append(traced, r)
	}
	var checkErr error
	res.Attempted, res.Failed, checkErr = checkRounds(append(append([]*roundResult(nil), untraced...), traced...))

	out := map[string]float64{}
	if err := w.layers(tr, untraced, traced, out); err != nil {
		return err
	}
	ops := 0
	for _, r := range untraced {
		ops += r.ops()
	}
	// The process counters cover whole rounds — set-up and the harness's own
	// checks included — so they bound, not equal, the op phase's cost.
	out["proc.cpu_ms_per_op"] = us(proc.cpu) / 1e3 / float64(ops)
	out["proc.allocs_per_op"] = float64(proc.mallocs) / float64(ops)
	out["proc.alloc_bytes_per_op"] = float64(proc.bytes) / float64(ops)
	out["proc.gc_pause_ms"] = us(proc.gcPause) / 1e3
	out["proc.op_p99_ms"] = medianOf(untraced, func(r *roundResult) float64 {
		_, _, p99 := latencyMs(r.flat())
		return p99
	})
	// With three rounds there is no second-best; the spread here is the
	// median round over the best one.
	series := roundSeries(untraced)
	for _, m := range roundMetrics {
		best, hi := stats.MinMax(series[m.name])
		if !m.lower {
			best = hi
		}
		out["proc.round_spread."+m.name] = roundSpread(series[m.name], best)
	}
	out["proc.inputgen_s"] = inputGen
	out["proc.trace_overhead"] = bestOpsPerS(traced) / bestOpsPerS(untraced)

	path, err := tr.write(outDir, name)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	if err := res.report(defs, out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%-38s %16s %s\n", "per-layer metric", "value", "unit")
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "%-38s %16.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	return checkErr
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func extra(key string) func(*roundResult) float64 {
	return func(r *roundResult) float64 { return r.extra[key] }
}

// layers for replay_trace: the traced rounds' spans split the replay into
// fbtrace, netsim and coflow time; two probes on a quarter-density trace
// compare the dense and the sparse loop and put Aalo through the same layer.
func (w *replayWorkload) layers(tr *tracer, untraced, traced []*roundResult, out map[string]float64) error {
	last := traced[len(traced)-1]
	ops := float64(last.ops())
	advance, _ := tr.total("netsim.advance")
	finish, _ := tr.total("netsim.finish")
	out["core.replay_us_per_coflow"] = 1e6 / medianOf(untraced, (*roundResult).opsPerS)
	out["netsim.advance_us_per_op"] = us(advance) / ops
	out["netsim.admit_us_per_op"] = tr.usPerOp("netsim.admit", last.ops())
	out["netsim.epochs_per_op"] = last.extra["epochs"] / ops
	out["netsim.us_per_epoch"] = us(advance+finish) / last.extra["epochs"]
	out["netsim.live_coflows_mean"] = last.extra["live_coflows_mean"]
	out["netsim.finish_ms"] = us(finish) / 1e3
	out["coflow.allocate_us_per_call"] = last.extra["allocate_us"] / last.extra["allocate_calls"]
	out["coflow.allocate_calls_per_op"] = last.extra["allocate_calls"] / ops
	out["coflow.allocate_share"] = last.extra["allocate_us"] / us(advance+finish)
	out["fbtrace.next_us_per_coflow"] = medianOf(untraced, extra("next_us_per_coflow"))
	out["trace.parse_ms"] = medianOf(untraced, extra("parse_ms"))

	probe := w.cfg.fb()
	probe.Density /= 4
	run := func(sched coflow.Scheduler, horizon bool) (*core.ReplayReport, *timedScheduler, time.Duration, error) {
		st, err := fbtrace.Stream(probe)
		if err != nil {
			return nil, nil, 0, err
		}
		ts := newTimedScheduler(sched)
		t0 := time.Now()
		rep, err := core.ReplayStream(w.cfg.machines, st, core.ReplayOptions{Scheduler: ts, EventHorizon: horizon, ReleaseCompleted: horizon})
		return rep, ts, time.Since(t0), err
	}
	sparse, _, sparseWall, err := run(coflow.NewVarys(), true)
	if err != nil {
		return err
	}
	dense, _, denseWall, err := run(coflow.NewVarys(), false)
	if err != nil {
		return err
	}
	dense.PeakResident = sparse.PeakResident // the dense loop never releases
	if *dense != *sparse {
		return fmt.Errorf("dense and sparse replays of the probe trace differ: %+v vs %+v", *dense, *sparse)
	}
	out["netsim.dense_us_per_epoch"] = us(denseWall) / float64(dense.Epochs)
	out["netsim.sparse_us_per_epoch"] = us(sparseWall) / float64(sparse.Epochs)
	_, aalo, _, err := run(coflow.NewAalo(), true)
	if err != nil {
		return err
	}
	out["coflow.aalo_us_per_call"] = us(aalo.busy) / float64(max(1, aalo.calls))
	return nil
}

// layers for query_join: the operator timings come from the rounds; the
// placement layer is probed directly on the join clusters' chunk matrices.
func (w *queryWorkload) layers(tr *tracer, untraced, traced []*roundResult, out map[string]float64) error {
	out["query.execute_ms_p50"] = medianOf(untraced, extra("query_ms_p50"))
	out["query.rows_per_s"] = medianOf(untraced, extra("rows_per_s"))
	out["join.execute_ms_p50"] = medianOf(untraced, extra("join_ms_p50"))
	out["join.tuples_per_s"] = medianOf(untraced, extra("tuples_per_s"))
	out["trackjoin.build_ms"] = medianOf(untraced, extra("build_ms_p50"))
	out["placement.ccf_vs_hash_bottleneck"] = untraced[0].extra["ccf_vs_hash_bottleneck"]
	gen, calls := tr.total("tpch.generate")
	out["tpch.generate_ms"] = us(gen) / 1e3 / float64(max(1, calls))

	sets, err := w.load(nil)
	if err != nil {
		return err
	}
	var ccf, hash, mini, fv time.Duration
	n := 0
	for _, ts := range sets {
		for _, cl := range []*join.Cluster{ts.uniform, ts.skewed} {
			m, err := cl.ChunkMatrix()
			if err != nil {
				return err
			}
			idle := &partition.Loads{Egress: make([]int64, m.N), Ingress: make([]int64, m.N)}
			var pl *partition.Placement
			for _, p := range []struct {
				s placement.Scheduler
				d *time.Duration
			}{{placement.Hash{}, &hash}, {placement.Mini{}, &mini}, {placement.CCF{}, &ccf}} {
				t0 := time.Now()
				if pl, err = p.s.Place(m, idle); err != nil {
					return err
				}
				*p.d += time.Since(t0)
			}
			t0 := time.Now()
			if _, err := partition.FlowVolumes(m, pl); err != nil {
				return err
			}
			fv += time.Since(t0)
			n++
		}
	}
	out["placement.ccf_us_per_op"] = us(ccf) / float64(n)
	out["placement.hash_us_per_op"] = us(hash) / float64(n)
	out["placement.mini_us_per_op"] = us(mini) / float64(n)
	out["partition.flowvolumes_us_per_op"] = us(fv) / float64(n)
	return nil
}
