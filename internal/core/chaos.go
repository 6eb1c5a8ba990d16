package core

// Chaos harness — randomized fault injection over every coflow scheduler.
// Each seed generates a small online workload and a schedule of transient
// port outages, runs all 7 schedulers through it under a rotating
// retransmission policy, and checks the failure-model invariants that must
// hold regardless of scheduler or fault pattern:
//
//   1. the run completes without error (no ErrStalled: outages always lift),
//   2. every coflow completes once its ports recover,
//   3. byte conservation: wire bytes = delivered bytes + wasted bytes,
//   4. a faulted run never beats the workload's bandwidth lower bound
//      (max port load / capacity — a theorem: faults only add load and
//      remove capacity), and never beats the fault-free run by more than a
//      small anomaly allowance. The allowance exists because the heuristic
//      schedulers are not makespan-optimal: voiding progress reorders their
//      schedules, and Graham-style anomalies let a worse-resourced run
//      finish a few percent earlier. Observed anomalies stay under 3%.
//   5. every failure outcome reports recovery.
//
// The harness runs both as a regular test (TestChaosInvariants) and via
// `ccfbench -exp chaos`, which prints the aggregate summary recorded in
// EXPERIMENTS.md.

import (
	"fmt"
	"math"
	"math/rand"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/parallel"
)

// The chaos sweep's fixed shape: each seed's workload spans chaosNodes
// ports at chaosBandwidth bytes/sec (second-scale runs) with chaosCoflows
// coflows.
const (
	chaosNodes     = 6
	chaosCoflows   = 5
	chaosBandwidth = 100
)

// ChaosConfig sizes the chaos sweep.
type ChaosConfig struct {
	Seeds int // fault schedules to generate (default 32)
	// Workers bounds seed-level parallelism (1 = serial, 0 = GOMAXPROCS).
	// Seeds are independent and aggregated in seed order, so the result —
	// including the violation list and the float totals — is identical at
	// any worker count.
	Workers int
}

func (c *ChaosConfig) defaults() {
	if c.Seeds <= 0 {
		c.Seeds = 32
	}
}

// ChaosResult aggregates a sweep.
type ChaosResult struct {
	Runs          int
	Violations    []string // empty on a clean sweep
	TotalWasted   float64
	TotalRestarts int
	MaxSlowdown   float64 // worst faulted/clean makespan ratio observed
}

// chaosWorkload builds the seed's random online coflow set.
func chaosWorkload(rng *rand.Rand, n, ncf int) []*coflow.Coflow {
	out := make([]*coflow.Coflow, ncf)
	for ci := 0; ci < ncf; ci++ {
		nf := 3 + rng.Intn(6)
		flows := make([]coflow.Flow, 0, nf)
		for f := 0; f < nf; f++ {
			src := rng.Intn(n)
			dst := rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			flows = append(flows, coflow.Flow{
				ID: f, Src: src, Dst: dst,
				Size: 1e3 + float64(rng.Float64()*9e3),
			})
		}
		out[ci] = coflow.New(ci, "chaos", rng.Float64()*20, flows)
	}
	return out
}

// chaosFaults builds the seed's transient outage schedule. Up is always
// strictly after Down so every port recovers and completion is guaranteed.
func chaosFaults(rng *rand.Rand, n int) []netsim.PortFailure {
	nf := 1 + rng.Intn(3)
	out := make([]netsim.PortFailure, nf)
	for i := range out {
		down := float64(rng.Float64() * 40)
		out[i] = netsim.PortFailure{
			Port: rng.Intn(n),
			Down: down,
			Up:   down + 1 + float64(rng.Float64()*14),
		}
	}
	return out
}

var chaosPolicies = []netsim.RetransmitPolicy{
	netsim.RetransmitRestart,
	netsim.RetransmitResume,
	netsim.RetransmitRestartDelivered,
}

// chaosSeedResult is one seed's contribution to the sweep, merged into the
// ChaosResult in seed order so the aggregate is worker-count independent.
type chaosSeedResult struct {
	runs        int
	violations  []string
	wasted      float64
	restarts    int
	maxSlowdown float64
}

// RunChaos executes the sweep and collects invariant violations. Seeds run
// through the worker pool (cfg.Workers); each seed derives its workload and
// fault schedule from its own rng, so seeds are fully independent, and the
// per-seed results are folded in seed order.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg.defaults()
	fabric, err := netsim.NewFabric(chaosNodes, chaosBandwidth)
	if err != nil {
		return nil, err
	}
	outs, err := parallel.Run(cfg.Workers, cfg.Seeds, func(seed int) (chaosSeedResult, error) {
		return runChaosSeed(fabric, seed), nil
	})
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{}
	for _, out := range outs {
		res.Runs += out.runs
		res.Violations = append(res.Violations, out.violations...)
		res.TotalWasted += out.wasted
		res.TotalRestarts += out.restarts
		if out.maxSlowdown > res.MaxSlowdown {
			res.MaxSlowdown = out.maxSlowdown
		}
	}
	return res, nil
}

// runChaosSeed runs every scheduler through one seed's workload and fault
// schedule, collecting that seed's invariant violations.
func runChaosSeed(fabric netsim.Fabric, seed int) chaosSeedResult {
	res := chaosSeedResult{}
	fail := func(format string, args ...any) {
		res.violations = append(res.violations, fmt.Sprintf(format, args...))
	}
	// anomalyTol is the slack invariant 4 grants to scheduling anomalies
	// when comparing against the fault-free run (see package comment).
	const anomalyTol = 0.05
	rng := rand.New(rand.NewSource(int64(seed)))
	base := chaosWorkload(rng, chaosNodes, chaosCoflows)
	faults := chaosFaults(rng, chaosNodes)
	var totalSize float64
	for _, c := range base {
		c.Completed = false // fresh workload per seed
		totalSize += c.TotalBytes()
	}
	// Bandwidth lower bound of the workload: max port load / capacity.
	lb := 0.0
	eg := make([]float64, chaosNodes)
	in := make([]float64, chaosNodes)
	for _, c := range base {
		for _, f := range c.Flows {
			eg[f.Src] += f.Size
			in[f.Dst] += f.Size
		}
	}
	for p := 0; p < chaosNodes; p++ {
		if t := eg[p] / chaosBandwidth; t > lb {
			lb = t
		}
		if t := in[p] / chaosBandwidth; t > lb {
			lb = t
		}
	}
	for si, sc := range coflow.Schedulers {
		policy := chaosPolicies[(seed+si)%len(chaosPolicies)]
		tag := fmt.Sprintf("seed=%d sched=%s policy=%s", seed, sc.Name, policy)

		clean, err := netsim.NewSimulator(fabric, sc.New()).Run(cloneCoflows(base))
		if err != nil {
			fail("%s: fault-free run errored: %v", tag, err)
			continue
		}

		sim := netsim.NewSimulator(fabric, sc.New())
		sim.Failures = faults
		sim.Retransmit = policy
		cfs := cloneCoflows(base)
		rep, err := sim.Run(cfs)
		res.runs++
		if err != nil {
			fail("%s: faulted run errored: %v", tag, err)
			continue
		}
		for _, c := range cfs {
			if !c.Completed {
				fail("%s: coflow %d never completed", tag, c.ID)
			}
		}
		// Byte conservation: wire traffic = delivered + wasted. The
		// tolerance absorbs the engine's sub-microbyte completion
		// epsilon across flows.
		if want := totalSize + rep.WastedBytes; math.Abs(rep.TotalBytes-want) > 1e-3*(1+want) {
			fail("%s: conservation broken: wire %g != delivered %g + wasted %g",
				tag, rep.TotalBytes, totalSize, rep.WastedBytes)
		}
		if rep.Makespan < lb-1e-9 {
			fail("%s: faulted makespan %g beats bandwidth lower bound %g", tag, rep.Makespan, lb)
		}
		if rep.Makespan < clean.Makespan*(1-anomalyTol) {
			fail("%s: faulted makespan %g beats fault-free %g beyond the %g anomaly allowance",
				tag, rep.Makespan, clean.Makespan, anomalyTol)
		}
		for _, out := range rep.Failures {
			if !out.Recovered {
				fail("%s: port %d failure at t=%g never recovered", tag, out.Port, out.Down)
			}
		}
		res.wasted += rep.WastedBytes
		for _, r := range rep.Restarts {
			res.restarts += r
		}
		if clean.Makespan > 0 {
			if ratio := rep.Makespan / clean.Makespan; ratio > res.maxSlowdown {
				res.maxSlowdown = ratio
			}
		}
	}
	return res
}
