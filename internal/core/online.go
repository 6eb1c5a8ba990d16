package core

// Online co-optimization: the paper's footnote-1 claim ("our proposed
// framework is based on the coflow abstraction, thus it can be extended to
// online and complex network cases very easily") made concrete. Analytical
// jobs arrive over time; each job's operator is placed *knowing the backlog
// the in-flight coflows will still be moving at its arrival* — the
// outstanding bytes per port become the initial-load term v⁰ of the model —
// and all coflows then share the fabric under Varys.
//
// The contrast mode (co-optimize off) places each operator as if the
// network were idle, which is what a system composing an offline placer
// with an online coflow scheduler would do.
//
// Two implementations coexist:
//
//   - OnlineEngine (the serving path) keeps ONE resumable netsim.Session
//     alive across the whole stream: each Submit advances the live
//     simulation to the job's arrival, reads the backlog in place, places,
//     and admits the new coflow into the same session. Total simulator work
//     is O(J) over J jobs with zero per-arrival cloning, on the event-horizon
//     loop, and the engine holds only the coflows still in flight: finished
//     ones are released by the session and the engine keeps a job count, so
//     a long-lived engine costs what is live, not what it has served.
//   - RunOnlineReference (the frozen reference) re-simulates the entire
//     admitted history from t=0 with a horizon for every arrival — O(J²)
//     simulator work and a deep clone per arrival. It exists to pin the
//     engine: TestOnlineEngineMatchesReference asserts byte-identical
//     CCTs/Makespan across seeds × placers × network schedulers ×
//     co-optimize on/off.
//
// RunOnline, the public batch entry point, is a thin wrapper over the
// engine: sort by arrival, Submit each job, Finish, map CCTs back to input
// order.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/skew"
	"ccf/internal/workload"
)

// OnlineJob is one operator arriving at a point in time.
type OnlineJob struct {
	Name     string
	Arrival  float64 // seconds
	Workload *workload.Workload
	// Scheduler places this job's partitions; nil means CCF.
	Scheduler placement.Scheduler
	// HandleSkew applies partial duplication before placement.
	HandleSkew bool
	// PlacementOnly skips the backlog probe for this job even when the
	// engine co-optimizes: the job is placed against an idle network and
	// admitted without advancing the session. This is the daemon's
	// load-shedding path — a degraded decision beats a timed-out one — and
	// the flag is recorded in its write-ahead log so replay repeats the
	// same degraded placements bit for bit.
	PlacementOnly bool
}

// ErrArrivalOutOfOrder reports a job submitted with an arrival earlier than
// the engine clock (the previous submission's arrival). The live session
// only moves forward in time, so an out-of-order arrival cannot be admitted
// as-is; concurrent intakes (the daemon) catch this with errors.Is and lift
// the arrival to the clock instead. Returned wrapped in *ArrivalOrderError.
var ErrArrivalOutOfOrder = errors.New("core: job arrives before engine clock")

// ArrivalOrderError carries the details of an out-of-order submission; it
// unwraps to ErrArrivalOutOfOrder.
type ArrivalOrderError struct {
	Job     int     // submission index of the rejected job
	Arrival float64 // the job's arrival
	Clock   float64 // the engine clock it fell behind
}

func (e *ArrivalOrderError) Error() string {
	return fmt.Sprintf("core: online job %d arrives at %g, before the engine clock %g (submit in arrival order)",
		e.Job, e.Arrival, e.Clock)
}

func (e *ArrivalOrderError) Unwrap() error { return ErrArrivalOutOfOrder }

// OnlineOptions configure an online run.
type OnlineOptions struct {
	// Bandwidth per port (bytes/sec); 0 = CoflowSim default.
	Bandwidth float64
	// CoOptimize feeds each arrival the in-flight port backlog as initial
	// loads; false places each job against an idle network.
	CoOptimize bool
	// NetworkScheduler orders the concurrent coflows; nil = Varys.
	NetworkScheduler coflow.Scheduler
}

// OnlineReport summarises an online run.
type OnlineReport struct {
	// CCTs[i] is the coflow completion time of jobs[i] (seconds from
	// arrival), indexed by the caller's input job order regardless of
	// arrival order; 0 for jobs with no remote bytes.
	CCTs []float64
	// AvgCCT and MaxCCT aggregate over jobs.
	AvgCCT   float64
	MaxCCT   float64
	Makespan float64
}

// OnlineDecision reports what Submit decided for one job.
type OnlineDecision struct {
	// Job is the submission index (0-based, arrival order).
	Job int
	// Placement assigns each partition of the job's (possibly skew-adjusted)
	// chunk matrix a destination node.
	Placement *partition.Placement
	// Backlog is the in-flight per-port load the placement saw — the v⁰
	// initial-load term. Zero-valued when co-optimization is off or the
	// network was idle at the arrival.
	Backlog partition.Loads
	// Completed counts jobs that had already finished when this one arrived
	// (only advanced when co-optimization drives the session forward).
	Completed int
}

// OnlineEngine streams jobs through one live co-optimized simulation.
// Construct with NewOnlineEngine, feed jobs in non-decreasing arrival order
// with Submit, and call Finish once to run the tail and collect the report.
// Compared to RunOnlineReference's probe-per-arrival, the engine does O(J)
// total simulator work over J jobs and produces byte-identical CCTs and
// makespan (see TestOnlineEngineMatchesReference). Not safe for concurrent
// use.
type OnlineEngine struct {
	opts     OnlineOptions
	n        int
	sim      *netsim.Simulator
	ses      *netsim.Session
	jobs     int // jobs admitted; job i is coflow ID i in the session
	lastArr  float64
	finished bool

	// The backlog snapshot: while snapOK, egB/inB hold the session's
	// per-port backlog at the engine clock, read by the first probe at that
	// clock and kept current by every admission after it, so later probes
	// at the same clock skip the O(flows) rescan. A clock move clears
	// snapOK. It is never imaged: a restored engine rescans once.
	egB, inB []int64
	snapOK   bool

	// Decide-path storage, overwritten by every Submit and never handed out:
	// the skew plan (with its adjusted copy of the job's matrix), the initial
	// loads the placer sees, and the n×n flow volumes. Nothing of a job's
	// workload is referenced once Submit returns; what a decision carries
	// (Placement, Backlog) is allocated per decision.
	plan    skew.Plan
	initial partition.Loads
	vol     []int64
}

// NewOnlineEngine builds an engine over a fresh fabric of `nodes` ports.
func NewOnlineEngine(nodes int, opts OnlineOptions) (*OnlineEngine, error) {
	e, err := newOnlineEngine(nodes, opts)
	if err != nil {
		return nil, err
	}
	if e.ses, err = e.sim.Session(); err != nil {
		return nil, err
	}
	return e, nil
}

// newOnlineEngine builds the engine and its simulator, without a session.
func newOnlineEngine(nodes int, opts OnlineOptions) (*OnlineEngine, error) {
	fabric, err := netsim.NewFabric(nodes, opts.Bandwidth)
	if err != nil {
		return nil, err
	}
	netSched := opts.NetworkScheduler
	if netSched == nil {
		netSched = coflow.NewVarys()
	}
	sim := netsim.NewSimulator(fabric, netSched)
	sim.EventHorizon = true
	sim.ReleaseCompleted = true
	return &OnlineEngine{
		opts: opts, n: nodes, sim: sim,
		egB: make([]int64, nodes), inB: make([]int64, nodes),
		initial: partition.Loads{Egress: make([]int64, nodes), Ingress: make([]int64, nodes)},
	}, nil
}

// engineImageBytes is the engine's own part of an image: two words, clock
// and job count.
const engineImageBytes = 16

// AppendImage appends the engine's state image to b: the engine clock, the
// job count and the live session's image (netsim.Session.AppendImage).
func (e *OnlineEngine) AppendImage(b []byte) ([]byte, error) {
	if e.finished {
		return nil, errors.New("core: online engine already finished")
	}
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.lastArr))
	b = binary.BigEndian.AppendUint64(b, uint64(e.jobs))
	return e.ses.AppendImage(b)
}

// RestoreOnlineEngine rebuilds an engine from an image written by
// AppendImage on an engine with the same nodes and options. The restored
// engine's StateDigest equals the imaged one's and it decides every later
// job identically. A bad image is a netsim.ErrImage.
func RestoreOnlineEngine(nodes int, opts OnlineOptions, img []byte) (*OnlineEngine, error) {
	e, err := newOnlineEngine(nodes, opts)
	if err != nil {
		return nil, err
	}
	if len(img) < engineImageBytes {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the engine header", netsim.ErrImage, len(img))
	}
	e.lastArr = math.Float64frombits(binary.BigEndian.Uint64(img))
	jobs := binary.BigEndian.Uint64(img[8:])
	if jobs > math.MaxInt {
		return nil, fmt.Errorf("%w: job count %d", netsim.ErrImage, jobs)
	}
	e.jobs = int(jobs)
	if e.ses, err = e.sim.RestoreSession(img[engineImageBytes:]); err != nil {
		return nil, err
	}
	return e, nil
}

// Submit places one arriving job and admits its coflow into the live
// simulation. Jobs must be submitted in non-decreasing arrival order — the
// session only moves forward in time (RunOnline sorts for you). When
// co-optimizing, the session is advanced to the arrival and the in-flight
// backlog read off the live flow state; no history is re-simulated.
//
// Jobs that share an arrival (a daemon batch lifted onto one clock) share
// one backlog scan: the first probe at an instant reads the session, and
// each admission at that instant folds its own live flows into the
// snapshot, so followers read the same bytes a rescan would.
func (e *OnlineEngine) Submit(job OnlineJob) (*OnlineDecision, error) {
	if e.finished {
		return nil, errors.New("core: online engine already finished")
	}
	ji := e.jobs
	if job.Workload == nil {
		return nil, fmt.Errorf("core: online job %d has no workload", ji)
	}
	if job.Workload.Chunks.N != e.n {
		return nil, fmt.Errorf("core: online job %d spans %d nodes, engine spans %d",
			ji, job.Workload.Chunks.N, e.n)
	}
	if badArrival(job.Arrival) {
		return nil, fmt.Errorf("core: online job %d has negative or non-finite arrival %g", ji, job.Arrival)
	}
	if job.Arrival < e.lastArr {
		return nil, &ArrivalOrderError{Job: ji, Arrival: job.Arrival, Clock: e.lastArr}
	}
	if job.Arrival != e.lastArr {
		e.snapOK = false
	}
	e.lastArr = job.Arrival

	sched := job.Scheduler
	if sched == nil {
		sched = placement.CCF{}
	}
	matrix := job.Workload.Chunks
	initial := &e.initial
	var plan *skew.Plan
	if job.HandleSkew && job.Workload.SkewPartition >= 0 {
		plan = skew.PartialDuplicationInto(&e.plan, job.Workload)
		if err := plan.Validate(job.Workload.Chunks); err != nil {
			return nil, fmt.Errorf("core: online job %d: %w", ji, err)
		}
		matrix = plan.Adjusted
		copy(initial.Egress, plan.Initial.Egress)
		copy(initial.Ingress, plan.Initial.Ingress)
	} else {
		clear(initial.Egress)
		clear(initial.Ingress)
	}

	dec := &OnlineDecision{Job: ji}
	if e.opts.CoOptimize && !job.PlacementOnly && e.jobs > 0 {
		// What does the network look like when this job arrives? Advance
		// the one live simulation from the previous arrival and read the
		// outstanding bytes per port in place. The advance always runs —
		// at an unchanged arrival it moves no bytes, but it retires
		// just-finished coflows on exactly the boundaries a lone job would —
		// and a snapshot taken at this arrival stands in for the rescan.
		if err := e.ses.Advance(job.Arrival); err != nil {
			return nil, fmt.Errorf("core: online job %d: backlog probe: %w", ji, err)
		}
		if !e.snapOK {
			if err := e.ses.BacklogInto(e.egB, e.inB); err != nil {
				return nil, fmt.Errorf("core: online job %d: %w", ji, err)
			}
			e.snapOK = true
		}
		dec.Backlog = partition.Loads{
			Egress:  append([]int64(nil), e.egB...),
			Ingress: append([]int64(nil), e.inB...),
		}
		for i := 0; i < e.n; i++ {
			initial.Egress[i] += e.egB[i]
			initial.Ingress[i] += e.inB[i]
		}
		dec.Completed = len(e.ses.Report().CCTs)
	}

	pl, vol, err := placement.EvaluateInto(e.vol, sched, matrix, initial)
	if err != nil {
		return nil, fmt.Errorf("core: online job %d: %w", ji, err)
	}
	e.vol = vol
	if plan != nil {
		// Only the hot key's owner broadcasts: its row holds the n − 1 cells.
		row := job.Workload.SkewOwner * e.n
		for j, b := range plan.BroadcastVolumes[row : row+e.n] {
			vol[row+j] += b
		}
	}
	cf, err := coflow.FromVolumes(ji, job.Name, job.Arrival, e.n, vol)
	if err != nil {
		return nil, err
	}
	if err := e.ses.Admit(cf); err != nil {
		return nil, fmt.Errorf("core: online job %d: %w", ji, err)
	}
	if e.snapOK {
		// Fold the new coflow in with BacklogInto's own per-flow rounding:
		// exact int64 additions, so the snapshot stays what a scan reads.
		for _, f := range cf.LiveFlows() {
			r := int64(f.Remaining + 0.5)
			e.egB[f.Src] += r
			e.inB[f.Dst] += r
		}
	}
	e.jobs++
	dec.Placement = pl
	return dec, nil
}

// Finish runs the live simulation to completion and aggregates per-job
// CCTs in submission order. The engine cannot accept further jobs after.
func (e *OnlineEngine) Finish() (*OnlineReport, error) {
	if e.finished {
		return nil, errors.New("core: online engine already finished")
	}
	e.finished = true
	rep, err := e.ses.Finish()
	if err != nil {
		return nil, err
	}
	out := &OnlineReport{CCTs: make([]float64, e.jobs), Makespan: rep.Makespan}
	for ji := range out.CCTs {
		cct := rep.CCTs[ji] // job ji is coflow ID ji
		out.CCTs[ji] = cct
		out.AvgCCT += cct
		if cct > out.MaxCCT {
			out.MaxCCT = cct
		}
	}
	if e.jobs > 0 {
		out.AvgCCT /= float64(e.jobs)
	}
	return out, nil
}

// Clock returns the engine clock: the arrival of the latest submitted job
// (0 before any submission). Submissions with earlier arrivals are rejected
// with ErrArrivalOutOfOrder.
func (e *OnlineEngine) Clock() float64 { return e.lastArr }

// JobCount returns the number of jobs admitted so far.
func (e *OnlineEngine) JobCount() int { return e.jobs }

// CompletedJobs returns how many admitted jobs had finished their transfers
// the last time the live session advanced (only the co-optimized path moves
// the session between submissions, so a placement-oblivious engine reports 0
// until Finish).
func (e *OnlineEngine) CompletedJobs() int { return len(e.ses.Report().CCTs) }

// ResidentCoflows returns how many coflows the live session still holds:
// those in flight plus the completed ones it has not yet released.
func (e *OnlineEngine) ResidentCoflows() int { return e.ses.AdmittedCount() }

// BacklogInto writes the live session's per-port in-flight bytes into the
// caller's slices (len n each) — the observability mirror of the backlog
// probe the co-optimized placer uses. Read-only, but the session is owned
// by the engine's goroutine: call it only from there (the service shard
// samples it in its run loop and publishes through atomics).
func (e *OnlineEngine) BacklogInto(egress, ingress []int64) error {
	return e.ses.BacklogInto(egress, ingress)
}

// StateDigest fingerprints the engine's full deterministic state — the
// session's clock and per-flow progress plus the engine clock and admission
// count — so a snapshot/restore cycle can prove the restored engine is
// byte-identical to the one that wrote the snapshot.
func (e *OnlineEngine) StateDigest() uint64 {
	d := e.ses.Digest()
	d ^= 0x9e3779b97f4a7c15 * uint64(e.jobs)
	d = (d << 7) | (d >> 57)
	d ^= math.Float64bits(e.lastArr)
	return d
}

// RunOnline places and simulates a stream of jobs.
//
// Placement happens in arrival order. When co-optimizing, the network state
// at each arrival is the live backlog of the one shared simulation (the same
// Varys dynamics throughout) at that time; that backlog, plus the job's own
// skew broadcasts, forms the initial loads of the placement model. The
// simulation then continues with the new coflow admitted, and its end state
// yields the reported CCTs. This is a thin wrapper over OnlineEngine —
// submit in arrival order, finish, map CCTs back to input job order.
func RunOnline(jobs []OnlineJob, opts OnlineOptions) (*OnlineReport, error) {
	order, n, err := onlineOrder(jobs)
	if err != nil {
		return nil, err
	}
	if order == nil {
		return &OnlineReport{}, nil
	}
	eng, err := NewOnlineEngine(n, opts)
	if err != nil {
		return nil, err
	}
	for _, ji := range order {
		if _, err := eng.Submit(jobs[ji]); err != nil {
			return nil, err
		}
	}
	rep, err := eng.Finish()
	if err != nil {
		return nil, err
	}
	out := &OnlineReport{CCTs: make([]float64, len(jobs)), Makespan: rep.Makespan}
	for k, ji := range order {
		cct := rep.CCTs[k]
		out.CCTs[ji] = cct
	}
	// Aggregate in input order so the float summation is deterministic and
	// matches the reference implementation bit for bit.
	for _, cct := range out.CCTs {
		out.AvgCCT += cct
		if cct > out.MaxCCT {
			out.MaxCCT = cct
		}
	}
	out.AvgCCT /= float64(len(jobs))
	return out, nil
}

// badArrival reports an arrival no simulation clock can reach or sort: a
// negative one, +Inf, or NaN (which every ordering comparison lets through).
func badArrival(a float64) bool { return !(a >= 0) || math.IsInf(a, 1) }

// onlineOrder validates a job batch and returns the stable arrival order.
// A nil order with a nil error signals an empty batch.
func onlineOrder(jobs []OnlineJob) ([]int, int, error) {
	if len(jobs) == 0 {
		return nil, 0, nil
	}
	for i, j := range jobs {
		if j.Workload == nil {
			return nil, 0, fmt.Errorf("core: online job %d has no workload", i)
		}
	}
	n := jobs[0].Workload.Chunks.N
	for i, j := range jobs {
		if j.Workload.Chunks.N != n {
			return nil, 0, fmt.Errorf("core: online job %d spans %d nodes, first job spans %d",
				i, j.Workload.Chunks.N, n)
		}
		if badArrival(j.Arrival) {
			return nil, 0, fmt.Errorf("core: online job %d has negative or non-finite arrival %g", i, j.Arrival)
		}
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Arrival < jobs[order[b]].Arrival })
	return order, n, nil
}

// RunOnlineReference is the frozen probe-per-arrival implementation kept as
// the equivalence oracle for OnlineEngine: for every arrival it deep-clones
// the admitted coflows and re-simulates them from t=0 up to a horizon at the
// arrival to read the backlog — O(J²) simulator work. Semantics are
// otherwise identical to RunOnline, and the equivalence suite pins the two
// to byte-identical CCTs and makespan.
func RunOnlineReference(jobs []OnlineJob, opts OnlineOptions) (*OnlineReport, error) {
	order, n, err := onlineOrder(jobs)
	if err != nil {
		return nil, err
	}
	if order == nil {
		return &OnlineReport{}, nil
	}
	fabric, err := netsim.NewFabric(n, opts.Bandwidth)
	if err != nil {
		return nil, err
	}
	netSched := opts.NetworkScheduler
	if netSched == nil {
		netSched = coflow.NewVarys()
	}

	var admitted []*coflow.Coflow
	cfByJob := make([]*coflow.Coflow, len(jobs))
	for rank, ji := range order {
		job := jobs[ji]
		sched := job.Scheduler
		if sched == nil {
			sched = placement.CCF{}
		}

		matrix := job.Workload.Chunks
		initial := &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
		var plan *skew.Plan
		if job.HandleSkew && job.Workload.SkewPartition >= 0 {
			plan = skew.PartialDuplication(job.Workload)
			if err := plan.Validate(job.Workload.Chunks); err != nil {
				return nil, fmt.Errorf("core: online job %d: %w", ji, err)
			}
			matrix = plan.Adjusted
			copy(initial.Egress, plan.Initial.Egress)
			copy(initial.Ingress, plan.Initial.Ingress)
		}

		if opts.CoOptimize && len(admitted) > 0 {
			// What will the network look like when this job arrives?
			probe := cloneCoflows(admitted)
			sim := netsim.NewSimulator(fabric, netSched)
			sim.Horizon = job.Arrival
			if _, err := sim.Run(probe); err != nil {
				return nil, fmt.Errorf("core: online job %d: backlog probe: %w", ji, err)
			}
			for _, c := range probe {
				for _, f := range c.Flows {
					if !f.Done {
						r := int64(f.Remaining + 0.5)
						initial.Egress[f.Src] += r
						initial.Ingress[f.Dst] += r
					}
				}
			}
		}

		pl, err := sched.Place(matrix, initial)
		if err != nil {
			return nil, fmt.Errorf("core: online job %d: %w", ji, err)
		}
		vol, err := partition.FlowVolumes(matrix, pl)
		if err != nil {
			return nil, err
		}
		if plan != nil {
			for i, b := range plan.BroadcastVolumes {
				vol[i] += b
			}
		}
		// Coflow IDs are arrival ranks (as in OnlineEngine, where a streaming
		// submission index is all there is), so scheduler ID tie-breaks agree
		// between the two implementations.
		cf, err := coflow.FromVolumes(rank, job.Name, job.Arrival, n, vol)
		if err != nil {
			return nil, err
		}
		admitted = append(admitted, cf)
		cfByJob[ji] = cf
	}

	finalSim := netsim.NewSimulator(fabric, netSched)
	rep, err := finalSim.Run(admitted)
	if err != nil {
		return nil, err
	}
	out := &OnlineReport{CCTs: make([]float64, len(jobs)), Makespan: rep.Makespan}
	for ji, cf := range cfByJob {
		cct, ok := rep.CCTs[cf.ID]
		if !ok {
			// A job with no remote bytes completes instantly.
			cct = 0
		}
		out.CCTs[ji] = cct
		out.AvgCCT += cct
		if cct > out.MaxCCT {
			out.MaxCCT = cct
		}
	}
	out.AvgCCT /= float64(len(jobs))
	return out, nil
}

// cloneCoflows deep-copies coflows, with progress reset, so horizon probes
// do not disturb the originals (the simulator resets state on Run, but the
// probe must not race with the final run's IDs or share Flow pointers). Each
// clone's flows are carved from one block, as in coflow.New.
func cloneCoflows(in []*coflow.Coflow) []*coflow.Coflow {
	out := make([]*coflow.Coflow, len(in))
	for i, c := range in {
		nc := &coflow.Coflow{ID: c.ID, Name: c.Name, Arrival: c.Arrival}
		if len(c.Flows) > 0 {
			block := make([]coflow.Flow, len(c.Flows))
			nc.Flows = make([]*coflow.Flow, len(c.Flows))
			for j, f := range c.Flows {
				block[j] = coflow.Flow{ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size, Remaining: f.Size}
				nc.Flows[j] = &block[j]
			}
		}
		out[i] = nc
	}
	return out
}
