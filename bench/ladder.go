package main

// The layer ladder of the serve_* workloads: the same job stream driven at
// four depths, every depth reproducing the same placements and the same final
// engine digest.
//
//	L0  HTTP round trip          client → handler → Pool.Submit → shard → engine
//	L1  in-process Pool.Submit            Pool.Submit → shard → engine
//	L2  core.OnlineEngine.Submit                                 engine
//	L3  layer walk: the engine's admission composed from the public calls of
//	    workload, skew, netsim, placement, partition and coflow, a span each
//
// L0 − L1 is the HTTP edge, L1 − L2 the service layer (queue hop, journal,
// snapshots, job materialisation), L2 the engine, and L3's spans split L2.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/service"
	"ccf/internal/skew"
	"ccf/internal/stats"
	"ccf/internal/workload"
)

// submitRound is ladder depth L1: a fresh journaling pool driven through
// Pool.Submit, one goroutine per shard. It returns the mean latency per op.
func (w *serveWorkload) submitRound() (time.Duration, error) {
	c := w.cfg
	dir := filepath.Join(w.stateDir, c.name+"-l1")
	defer os.RemoveAll(dir)
	pool, err := service.NewPool(w.poolConfig(dir, false))
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	if err := pool.Start(ctx); err != nil {
		return 0, err
	}
	defer pool.Kill()
	busy := make([]time.Duration, c.shards)
	errs := make([]error, c.shards)
	var wg sync.WaitGroup
	for s := 0; s < c.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := range w.specs[s] {
				t0 := time.Now()
				dec, err := pool.Submit(ctx, w.specs[s][i])
				busy[s] += time.Since(t0)
				if err != nil {
					errs[s] = err
					return
				}
				if !slices.Equal(dec.Placement, w.want[s][i]) {
					errs[s] = fmt.Errorf("L1: shard %d job %d: placement differs from L2's", s, i)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	states, err := pool.State(ctx)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for s, st := range states {
		if st.Digest != w.wantDigest[s] {
			return 0, fmt.Errorf("L1: shard %d digest %016x, L2 has %016x", s, st.Digest, w.wantDigest[s])
		}
		total += busy[s]
	}
	return total / time.Duration(c.shards*c.jobsPerShard), nil
}

// walkResult aggregates ladder depth L3 over all shards.
type walkResult struct {
	ops            int
	epochs         int
	live           int // Σ over ops of coflows in flight after the advance
	allocCalls     int
	allocBusy      time.Duration
	finish         time.Duration
	hash, mini     time.Duration // probe placements, outside the admission
	ccfBottleneck  int64
	hashBottleneck int64
}

// engineDigest mirrors core.OnlineEngine.StateDigest over a bare session, so
// the walk's final state can be compared with L2's.
func engineDigest(sessionDigest uint64, jobs int, clock float64) uint64 {
	d := sessionDigest ^ 0x9e3779b97f4a7c15*uint64(jobs)
	d = (d << 7) | (d >> 57)
	return d ^ math.Float64bits(clock)
}

// walk is ladder depth L3. Each shard's stream is admitted by composing the
// public calls core.OnlineEngine.Submit makes, with a span around each; the
// Hash and Mini placements are probes beside the real one and are not part of
// the admission.
func (w *serveWorkload) walk(tr *tracer) (*walkResult, error) {
	c := w.cfg
	parts := make([]walkResult, c.shards)
	errs := make([]error, c.shards)
	var wg sync.WaitGroup
	for s := 0; s < c.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = w.walkShard(s, tr.tracks[3*s+2], &parts[s])
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := &walkResult{}
	for _, p := range parts {
		out.ops += p.ops
		out.epochs += p.epochs
		out.live += p.live
		out.allocCalls += p.allocCalls
		out.allocBusy += p.allocBusy
		out.finish += p.finish
		out.hash += p.hash
		out.mini += p.mini
		out.ccfBottleneck += p.ccfBottleneck
		out.hashBottleneck += p.hashBottleneck
	}
	return out, nil
}

func (w *serveWorkload) walkShard(s int, tk *track, out *walkResult) error {
	n := w.cfg.nodes
	fabric, err := netsim.NewFabric(n, 0)
	if err != nil {
		return err
	}
	ts := newTimedScheduler(coflow.NewVarys())
	ses, err := netsim.NewSimulator(fabric, ts).Session()
	if err != nil {
		return err
	}
	eg, in := make([]int64, n), make([]int64, n)
	var clock float64
	// step times one call into a layer and records its span.
	var job string
	step := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		tk.span(name, "walk.op", job, t0, time.Since(t0))
		return err
	}
	for ji := range w.specs[s] {
		spec := &w.specs[s][ji]
		job = spec.Name
		opStart := time.Now()
		var wl *workload.Workload
		if err := step("workload.generate", func() (err error) {
			j, err := materialise(spec, n)
			wl = j.Workload
			return err
		}); err != nil {
			return err
		}
		clock = *spec.Arrival
		matrix := wl.Chunks
		initial := &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
		var plan *skew.Plan
		if spec.HandleSkew && wl.SkewPartition >= 0 {
			if err := step("skew.plan", func() error {
				plan = skew.PartialDuplication(wl)
				return plan.Validate(wl.Chunks)
			}); err != nil {
				return err
			}
			matrix = plan.Adjusted
			copy(initial.Egress, plan.Initial.Egress)
			copy(initial.Ingress, plan.Initial.Ingress)
		}
		if ji > 0 {
			if err := step("netsim.advance", func() error { return ses.Advance(clock) }); err != nil {
				return err
			}
			if err := step("netsim.backlog", func() error { return ses.BacklogInto(eg, in) }); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				initial.Egress[i] += eg[i]
				initial.Ingress[i] += in[i]
			}
			out.live += ses.AdmittedCount() - ses.CompletedCount()
		}
		var pl *partition.Placement
		if err := step("placement.ccf", func() (err error) {
			pl, err = placement.CCF{}.Place(matrix, initial)
			return err
		}); err != nil {
			return err
		}
		if !slices.Equal(pl.Dest, w.want[s][ji]) {
			return fmt.Errorf("L3: shard %d job %d: placement differs from L2's", s, ji)
		}
		var vol []int64
		if err := step("partition.flowvolumes", func() (err error) {
			vol, err = partition.FlowVolumes(matrix, pl)
			return err
		}); err != nil {
			return err
		}
		if plan != nil {
			for i, b := range plan.BroadcastVolumes {
				vol[i] += b
			}
		}
		var cf *coflow.Coflow
		if err := step("coflow.fromvolumes", func() (err error) {
			cf, err = coflow.FromVolumes(ji, spec.Name, clock, n, vol)
			return err
		}); err != nil {
			return err
		}
		if err := step("netsim.admit", func() error { return ses.Admit(cf) }); err != nil {
			return err
		}
		tk.span("walk.op", "", job, opStart, time.Since(opStart))
		out.ops++

		// Probes: what Hash and Mini would have cost and done on this job.
		t0 := time.Now()
		hashPl, err := placement.Hash{}.Place(matrix, initial)
		if err != nil {
			return err
		}
		out.hash += time.Since(t0)
		t0 = time.Now()
		if _, err := (placement.Mini{}).Place(matrix, initial); err != nil {
			return err
		}
		out.mini += time.Since(t0)
		ccf, err := partition.ComputeLoads(matrix, pl, initial)
		if err != nil {
			return err
		}
		hash, err := partition.ComputeLoads(matrix, hashPl, initial)
		if err != nil {
			return err
		}
		out.ccfBottleneck += ccf.Max()
		out.hashBottleneck += hash.Max()
	}
	if got := engineDigest(ses.Digest(), len(w.specs[s]), clock); got != w.wantDigest[s] {
		return fmt.Errorf("L3: shard %d digest %016x, L2 has %016x", s, got, w.wantDigest[s])
	}
	t0 := time.Now()
	rep, err := ses.Finish()
	if err != nil {
		return err
	}
	out.finish = time.Since(t0)
	out.epochs = rep.Epochs
	out.allocCalls, out.allocBusy = ts.calls, ts.busy
	return nil
}

// walkSpans are the L3 spans that together make up one engine admission (L2);
// workload.generate is not among them because L2 receives materialised jobs.
var walkSpans = []string{"skew.plan", "netsim.advance", "netsim.backlog", "placement.ccf",
	"partition.flowvolumes", "coflow.fromvolumes", "netsim.admit"}

func (w *serveWorkload) layers(tr *tracer, untraced, traced []*roundResult, out map[string]float64) error {
	ops := w.cfg.shards * w.cfg.jobsPerShard
	l0 := medianOf(untraced, func(r *roundResult) float64 { return stats.Mean(r.flat()) * 1e6 })
	runtime.GC()
	l1d, err := w.submitRound()
	if err != nil {
		return err
	}
	l1 := us(l1d)
	// L2 again, now that the heap is as warm as it was for L0 and L1; the
	// pass in prepare ran on a cold process.
	runtime.GC()
	if err := w.reference(); err != nil {
		return err
	}
	var l2sum, gen time.Duration
	for _, lt := range w.l2 {
		l2sum += lt.submit
		gen += lt.generate
	}
	l2 := us(l2sum) / float64(ops)
	runtime.GC()
	wk, err := w.walk(tr)
	if err != nil {
		return err
	}
	l3 := 0.0
	for _, name := range walkSpans {
		l3 += tr.usPerOp(name, ops)
	}
	fmt.Fprintf(os.Stderr, "ladder (mean µs per op; placements and digests identical at every depth)\n"+
		"  L0 http round trip   %10.1f\n  L1 Pool.Submit       %10.1f\n  L2 engine Submit     %10.1f\n  L3 walk, span sum    %10.1f\n",
		l0, l1, l2, l3)
	if !(l0 >= l1 && l1 >= l2) {
		fmt.Fprintln(os.Stderr, "warning: ladder is not monotone (L0 ≥ L1 ≥ L2 expected); rerun on a quieter box")
	}
	if l3 < 0.9*l2 || l3 > 1.1*l2 {
		fmt.Fprintf(os.Stderr, "warning: L3 span sum is %.0f %% of L2\n", 100*l3/l2)
	}

	last := traced[len(traced)-1]
	out["service.http_us_per_op"] = l0 - l1
	out["service.submit_us_per_op"] = l1 - l2
	for _, name := range []string{"queue", "decide", "journal", "reply"} {
		out["service."+name+"_us_p50"] = last.extra[name+"_us_p50"]
	}
	out["service.state_bytes_per_job"] = last.extra["state_bytes_per_job"]
	out["service.snapshot_ms_at_end"] = last.extra["snapshot_ms"]
	out["service.restore_us_per_job"] = medianOf(untraced, func(r *roundResult) float64 { return r.setupS }) * 1e6 / float64(ops*w.cfg.restarts)
	out["service.batch_mean_jobs"] = untraced[0].extra["batch_mean_jobs"]
	out["service.shed"] = untraced[0].extra["shed"]
	out["service.degraded"] = untraced[0].extra["degraded"]
	out["core.submit_us_per_op"] = l2
	out["core.history_slope_us_per_kjob"] = medianOf(untraced, func(r *roundResult) float64 {
		sum := 0.0
		for _, c := range r.clients {
			sum += decileSlope(c)
		}
		return sum / float64(len(r.clients))
	})
	out["workload.generate_us_per_op"] = us(gen) / float64(ops)
	out["skew.plan_us_per_op"] = tr.usPerOp("skew.plan", ops)
	out["placement.ccf_us_per_op"] = tr.usPerOp("placement.ccf", ops)
	out["placement.hash_us_per_op"] = us(wk.hash) / float64(ops)
	out["placement.mini_us_per_op"] = us(wk.mini) / float64(ops)
	out["placement.ccf_vs_hash_bottleneck"] = float64(wk.ccfBottleneck) / float64(wk.hashBottleneck)
	out["partition.flowvolumes_us_per_op"] = tr.usPerOp("partition.flowvolumes", ops)
	advance, _ := tr.total("netsim.advance")
	out["netsim.advance_us_per_op"] = us(advance) / float64(ops)
	out["netsim.backlog_us_per_op"] = tr.usPerOp("netsim.backlog", ops)
	out["netsim.admit_us_per_op"] = tr.usPerOp("netsim.admit", ops)
	out["netsim.epochs_per_op"] = float64(wk.epochs) / float64(ops)
	out["netsim.us_per_epoch"] = us(advance+wk.finish) / float64(max(1, wk.epochs))
	out["netsim.live_coflows_mean"] = float64(wk.live) / float64(ops)
	out["netsim.finish_ms"] = us(wk.finish) / 1e3 / float64(w.cfg.shards)
	out["coflow.allocate_us_per_call"] = us(wk.allocBusy) / float64(max(1, wk.allocCalls))
	out["coflow.allocate_calls_per_op"] = float64(wk.allocCalls) / float64(ops)
	out["coflow.allocate_share"] = us(wk.allocBusy) / us(advance+wk.finish)
	return nil
}
