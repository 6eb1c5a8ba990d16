package service

// One shard = one core.OnlineEngine owned by one goroutine, fed by a bounded
// queue. Single ownership is the concurrency story: the engine, the WAL
// writer and the batch scratch are touched only by the run loop, so
// there is no lock around the simulator at all. Everything the HTTP layer
// reads concurrently (/stats, /readyz) is published through atomics; the
// only cross-goroutine handshakes are the queue itself, a small control
// channel for snapshot/state requests, and per-request reply channels.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ccf/internal/core"
)

// Submission failure modes, mapped to HTTP statuses by the handler.
var (
	// ErrOverloaded: the shard queue is full; retry after backing off (429).
	ErrOverloaded = errors.New("service: shard queue full")
	// ErrDraining: the daemon is shutting down gracefully (503).
	ErrDraining = errors.New("service: daemon draining")
	// ErrKilled: the daemon was killed with requests still queued (503).
	ErrKilled = errors.New("service: daemon killed")
	// ErrShardFailed: the shard could not persist its journal and has
	// fenced itself off — its in-memory state is ahead of its log, so
	// accepting more work would break the restore contract (503).
	ErrShardFailed = errors.New("service: shard persistence failed")
)

// ShedError is the typed overload rejection: it unwraps to ErrOverloaded
// (statusFor still maps it to 429) and carries the shedding shard plus its
// journal sequence so the HTTP layer can derive a deterministic Retry-After
// jitter — different shards shedding at the same instant hand out different
// backoffs, without any global randomness that would break replay tests.
type ShedError struct {
	Shard int
	Seq   uint64
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("service: shard %d queue full", e.Shard)
}

func (e *ShedError) Unwrap() error { return ErrOverloaded }

// request is one queued submission.
type request struct {
	spec  JobSpec
	ctx   context.Context
	enq   time.Time
	reply chan reply // buffered(1): the shard never blocks on a gone client
}

type reply struct {
	dec *Decision
	err error
}

// control messages reach the run loop out of band (not subject to queue
// admission) so tests and operators can force snapshots and read state
// digests without racing the engine.
type control struct {
	kind  int // ctlSnapshot or ctlState
	reply chan ctlReply
}

const (
	ctlSnapshot = iota
	ctlState
)

type ctlReply struct {
	state ShardState
	err   error
}

// ShardState is the engine-owned state exposed for determinism checks.
type ShardState struct {
	Shard     int     `json:"shard"`
	Seq       uint64  `json:"seq"`
	Clock     float64 `json:"clock"`
	Completed int     `json:"completed"`
	Digest    uint64  `json:"digest"`
}

type shard struct {
	id  int
	cfg *Config
	eng *core.OnlineEngine
	wal *walWriter // nil when persistence is off
	// seq counts admitted jobs (1-based WAL sequence); snapSeq is seq at
	// the last committed snapshot. Run-loop-owned.
	seq, snapSeq uint64
	// specs holds the effective records of the jobs the current batch
	// admitted, in admission order — what its group commit journals; imgBuf
	// is the reusable engine-image buffer of snapshot(); jobs holds the
	// storage every job of this shard is built in, live from materialize to
	// the end of that job's Submit. Run-loop-owned.
	specs  []JobSpec
	imgBuf []byte
	jobs   jobStore

	// mu serialises queue sends against the close in drain/kill: senders
	// hold RLock, the closer holds Lock, so no send can hit a closed
	// channel.
	mu       sync.RWMutex
	queue    chan *request
	ctl      chan control
	draining bool

	done  chan struct{} // closed when the run loop exits
	crash atomic.Bool   // kill switch: skip processing and the final snapshot

	ready  atomic.Bool
	failed atomic.Bool // persistence failure fence

	// Published mirrors of run-loop state, read lock-free by /stats.
	pubSeq       atomic.Uint64
	pubClock     atomic.Uint64 // math.Float64bits
	pubCompleted atomic.Uint64
	snapSeqPub   atomic.Uint64
	snapAtNanos  atomic.Int64

	// batchBuf and entriesBuf are the run loop's reusable batch scratch:
	// drained requests and their held-back admission results. Run-loop-owned.
	batchBuf   []*request
	entriesBuf []batchEntry

	// lat holds the last latencyWindow decision latencies (seconds) for the
	// /stats percentiles: a bounded window, so they reflect current
	// behaviour rather than the daemon's lifetime.
	lat *ring[float64]

	// obs is the shard's instrument set, the one count of every shard event
	// that /stats and /metrics both read.
	obs shardObs
}

const latencyWindow = 2048

func newShard(id int, cfg *Config) *shard {
	return &shard{
		id:    id,
		cfg:   cfg,
		queue: make(chan *request, cfg.QueueDepth),
		ctl:   make(chan control),
		done:  make(chan struct{}),
		lat:   newRing[float64](latencyWindow),
	}
}

// restore rebuilds the engine from disk: the snapshot's state image (if
// any) loaded and digest-verified, then the WAL suffix replayed. Called
// once, before the run loop starts, from Pool.Start.
func (sh *shard) restore() error {
	if sh.cfg.Dir == "" {
		eng, err := sh.cfg.Engine.newEngine(sh.cfg.Nodes)
		sh.eng = eng
		return err
	}

	snapPath := snapshotPath(sh.cfg.Dir, sh.id)
	if err := sweepSnapshotTemps(snapPath); err != nil {
		return fmt.Errorf("shard %d: snapshot: %w", sh.id, err)
	}
	snap, err := readSnapshotFile(snapPath)
	if err != nil {
		return fmt.Errorf("shard %d: snapshot: %w", sh.id, err)
	}
	if snap != nil {
		if sh.eng, err = snap.restoreEngine(sh.id, sh.cfg.Nodes, sh.cfg.Engine); err != nil {
			return fmt.Errorf("shard %d: snapshot: %w", sh.id, err)
		}
		sh.seq, sh.snapSeq = snap.Seq, snap.Seq
		sh.snapSeqPub.Store(snap.Seq)
	} else if sh.eng, err = sh.cfg.Engine.newEngine(sh.cfg.Nodes); err != nil {
		return err
	}

	_, torn, err := replayWAL(walPath(sh.cfg.Dir, sh.id), sh.seq, func(seq uint64, spec *JobSpec) error {
		return sh.replayJob(spec)
	})
	if err != nil {
		return fmt.Errorf("shard %d: wal: %w", sh.id, err)
	}
	_ = torn // a torn tail was never acknowledged; dropping it is correct

	sh.wal, err = openWAL(walPath(sh.cfg.Dir, sh.id), sh.cfg.WALSync)
	if err != nil {
		return fmt.Errorf("shard %d: wal: %w", sh.id, err)
	}
	if torn || sh.seq > sh.snapSeq {
		// Re-establish the invariant "WAL holds exactly (snapSeq, seq]":
		// compact the restored state into a fresh snapshot so a torn tail
		// or pre-crash suffix cannot confuse a second restart.
		if err := sh.snapshot(); err != nil {
			return fmt.Errorf("shard %d: post-restore snapshot: %w", sh.id, err)
		}
	}
	sh.publish()
	// Credit restored admissions so the counter resumes monotone across a
	// restart instead of restarting from zero while seq does not.
	sh.obs.admitted.Add(sh.seq)
	sh.obs.replayed.Add(sh.seq)
	sh.sampleBacklog()
	return nil
}

// replayJob re-admits one journaled record. The effective arrival was
// resolved before journaling, so replay bypasses lifting entirely.
func (sh *shard) replayJob(spec *JobSpec) error {
	job, err := materialize(spec, sh.cfg.Nodes, &sh.jobs)
	if err != nil {
		return err
	}
	if _, err := sh.eng.Submit(job); err != nil {
		return err
	}
	sh.seq++
	return nil
}

// run is the shard goroutine: control messages are served between jobs, the
// queue drains until closed, and a graceful close ends with a final
// snapshot. A crash-flagged close abandons the backlog (clients get
// ErrKilled) and skips the snapshot — simulating kill -9 for state purposes
// while keeping in-process tests leak-free.
func (sh *shard) run() {
	defer close(sh.done)
	sh.ready.Store(true)
	for {
		select {
		case c := <-sh.ctl:
			sh.handleControl(c)
			continue
		default:
		}
		select {
		case c := <-sh.ctl:
			sh.handleControl(c)
		case req, ok := <-sh.queue:
			if !ok {
				if !sh.crash.Load() {
					sh.finalSnapshot()
				}
				if sh.wal != nil {
					sh.wal.Close()
				}
				sh.ready.Store(false)
				return
			}
			batch := append(sh.batchBuf[:0], req)
			batch = sh.fillBatch(batch)
			sh.batchBuf = batch
			if sh.crash.Load() {
				for _, r := range batch {
					r.reply <- reply{err: ErrKilled}
				}
				continue
			}
			sh.processBatch(batch)
			if sh.cfg.SnapshotEvery > 0 && sh.seq-sh.snapSeq >= uint64(sh.cfg.SnapshotEvery) {
				sh.trySnapshot()
			}
		}
	}
}

// fillBatch drains queued followers behind the first request of a batch:
// whatever is already waiting is taken without blocking, up to BatchMax, so
// batches form from queue pressure and sparse traffic pays no added latency.
// A closed queue ends the fill; the outer loop observes the close on its next
// receive.
func (sh *shard) fillBatch(batch []*request) []*request {
	for len(batch) < sh.cfg.BatchMax {
		select {
		case req, ok := <-sh.queue:
			if !ok {
				return batch
			}
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

func (sh *shard) handleControl(c control) {
	switch c.kind {
	case ctlSnapshot:
		var err error
		if !sh.failed.Load() {
			err = sh.snapshot()
			if err != nil {
				sh.fence(err)
			}
		} else {
			err = ErrShardFailed
		}
		c.reply <- ctlReply{err: err, state: sh.state()}
	case ctlState:
		c.reply <- ctlReply{state: sh.state()}
	}
}

func (sh *shard) state() ShardState {
	return ShardState{
		Shard:     sh.id,
		Seq:       sh.seq,
		Clock:     sh.eng.Clock(),
		Completed: sh.eng.CompletedJobs(),
		Digest:    sh.eng.StateDigest(),
	}
}

// batchEntry is one admitted job held back for the batch's group commit:
// the reply is only sent once every record in the batch is journaled.
type batchEntry struct {
	req             *request
	dec             *Decision
	seq             uint64
	lifted          bool
	tStart, tDecide time.Time
}

// processBatch admits a drained batch in three phases. Phase 1 decides each
// job in queue order — per-job deadline checks, the degradation ladder,
// arrival resolution (lifted jobs share the engine clock, so the engine
// scans the backlog once per clock instant), engine Submit. Submissions
// that fail reply immediately (they never touch the journal); admitted jobs
// are held. Phase 2 journals every admitted record with one group-committed
// WAL append (one write, one fsync): a failure fences the shard and every
// held decision bounces with ErrShardFailed — zero replies acked, the
// batch-wide acked⇒journaled invariant. Phase 3 publishes and releases the
// held replies. Decisions are byte-identical to processing the same queue
// order with BatchMax=1: the engine path is the same per-job sequence, only
// the fsync is amortized.
func (sh *shard) processBatch(batch []*request) {
	obs := &sh.obs
	entries := sh.entriesBuf[:0]
	sh.specs = sh.specs[:0]
	for _, req := range batch {
		tStart := time.Now()
		if req.ctx.Err() != nil {
			// The client's deadline passed while the request sat in the
			// queue; drop it before it touches the engine so the client's
			// 504 is truthful: nothing was admitted.
			obs.deadlineDrops.Inc()
			obs.jobFailed(&req.spec, sh.id, "deadline", context.Cause(req.ctx))
			req.reply <- reply{err: context.Cause(req.ctx)}
			continue
		}
		if sh.failed.Load() {
			req.reply <- reply{err: ErrShardFailed}
			continue
		}

		spec := req.spec // shard-local copy; the effective record being built
		if sh.cfg.DegradeAfter > 0 && tStart.Sub(req.enq) > sh.cfg.DegradeAfter {
			spec.PlacementOnly = true
		}

		lifted := false
		if spec.Arrival == nil {
			now := sh.eng.Clock()
			spec.Arrival = &now
			lifted = true
		}
		job, err := materialize(&spec, sh.cfg.Nodes, &sh.jobs)
		if err != nil {
			obs.rejected.Inc()
			obs.jobFailed(&spec, sh.id, "rejected", err)
			req.reply <- reply{err: err}
			continue
		}
		dec, err := sh.eng.Submit(job)
		if errors.Is(err, core.ErrArrivalOutOfOrder) {
			// Concurrent intake reordered arrivals across clients; the
			// engine rejected loudly (typed, state untouched) and we lift
			// the arrival to the shard clock and resubmit. The lifted
			// arrival is what gets journaled, so replay repeats this exact
			// decision.
			now := sh.eng.Clock()
			spec.Arrival = &now
			job.Arrival = now
			lifted = true
			dec, err = sh.eng.Submit(job)
		}
		if err != nil {
			obs.rejected.Inc()
			obs.jobFailed(&spec, sh.id, "rejected", err)
			req.reply <- reply{err: fmt.Errorf("%w: %v", ErrBadJob, err)}
			continue
		}

		sh.seq++
		sh.specs = append(sh.specs, spec)
		tDecide := time.Now()
		out := &Decision{
			Name:      spec.Name,
			Key:       spec.RouteKey(),
			Shard:     sh.id,
			Seq:       sh.seq,
			Arrival:   *spec.Arrival,
			Lifted:    lifted,
			Degraded:  spec.PlacementOnly,
			Placement: dec.Placement.Dest,
			Completed: dec.Completed,
			Clock:     sh.eng.Clock(),
		}
		if dec.Backlog.Egress != nil {
			out.BacklogEgress = dec.Backlog.Egress
			out.BacklogIngress = dec.Backlog.Ingress
		}
		entries = append(entries, batchEntry{
			req: req, dec: out, seq: sh.seq, lifted: lifted, tStart: tStart, tDecide: tDecide,
		})
	}
	sh.entriesBuf = entries

	tJournal := time.Now()
	if sh.wal != nil && len(entries) > 0 {
		firstSeq := sh.seq - uint64(len(entries)) + 1
		tGroup := tJournal
		werr := sh.wal.AppendBatch(firstSeq, sh.specs)
		tJournal = time.Now()
		obs.walAppend.Observe(tJournal.Sub(tGroup).Seconds())
		obs.walGroupRecords.Observe(float64(len(entries)))
		if werr != nil {
			// The engine admitted jobs the journal did not record: the
			// shard's memory is now ahead of its log, so it fences itself
			// off and acknowledges nothing from this batch rather than hand
			// out decisions a restart would disown.
			sh.fence(werr)
			for i := range entries {
				entries[i].req.reply <- reply{err: fmt.Errorf("%w: %v", ErrShardFailed, werr)}
			}
			return
		}
		obs.groupCommits.Inc()
		if sh.cfg.WALSync {
			obs.walSyncs.Inc()
		}
	}

	obs.batchSize.Observe(float64(len(batch)))
	for i := range entries {
		e := &entries[i]
		obs.admitted.Inc()
		if e.dec.Degraded {
			obs.degraded.Inc()
		}
		if e.lifted {
			obs.lifted.Inc()
		}
	}
	sh.publish()
	for i := range entries {
		e := &entries[i]
		tDone := time.Now()
		sh.lat.add(tDone.Sub(e.req.enq).Seconds())
		obs.jobAdmitted(&sh.specs[i], sh.id, e.seq, e.req.enq, e.tStart, e.tDecide, tJournal, tDone, e.lifted, len(batch))
		e.req.reply <- reply{dec: e.dec}
	}
	if len(entries) > 0 {
		sh.sampleBacklog()
	}
}

// fence marks the shard failed: readiness drops, submissions bounce. The
// in-memory engine is ahead of the journal at this point, so serving more
// decisions would hand out state a restart could not reproduce.
func (sh *shard) fence(err error) {
	sh.obs.walFailures.Inc()
	if sh.obs.log != nil {
		sh.obs.log.LogAttrs(context.Background(), slog.LevelError, "shard fenced",
			slog.Int("shard", sh.id), slog.Any("error", err))
	}
	sh.failed.Store(true)
	sh.ready.Store(false)
}

// publish mirrors run-loop state into the atomics /stats reads.
func (sh *shard) publish() {
	sh.pubSeq.Store(sh.seq)
	sh.pubClock.Store(math.Float64bits(sh.eng.Clock()))
	sh.pubCompleted.Store(uint64(sh.eng.CompletedJobs()))
}

// snapshot compacts the journal: write the engine's state image atomically,
// then truncate the WAL (snapshot rename is the commit point, made durable
// first when the WAL is synchronous — see snapshot.go).
func (sh *shard) snapshot() error {
	if sh.cfg.Dir == "" {
		return nil
	}
	begin := time.Now()
	img, err := sh.eng.AppendImage(sh.imgBuf[:0])
	if err != nil {
		return err
	}
	sh.imgBuf = img
	snap := &Snapshot{
		Shard:  sh.id,
		Nodes:  sh.cfg.Nodes,
		Engine: sh.cfg.Engine,
		Seq:    sh.seq,
		Digest: sh.eng.StateDigest(),
		Image:  img,
	}
	if err := writeSnapshotFile(snapshotPath(sh.cfg.Dir, sh.id), snap, sh.cfg.WALSync); err != nil {
		return err
	}
	sh.obs.snapshotWrite.Observe(time.Since(begin).Seconds())
	sh.snapSeq = sh.seq
	sh.snapSeqPub.Store(sh.seq)
	sh.snapAtNanos.Store(time.Now().UnixNano())
	if sh.wal != nil {
		if err := sh.wal.Truncate(); err != nil {
			return err
		}
	}
	return nil
}

// trySnapshot is the periodic variant: a failure fences the shard instead
// of propagating (the job that triggered it was already acknowledged).
func (sh *shard) trySnapshot() {
	if sh.failed.Load() {
		return
	}
	if err := sh.snapshot(); err != nil {
		sh.fence(err)
	}
}

// finalSnapshot runs at graceful shutdown, after the queue drained.
func (sh *shard) finalSnapshot() {
	if sh.failed.Load() || sh.seq == sh.snapSeq {
		return
	}
	sh.trySnapshot()
}

// trySubmit enqueues a request without blocking: ErrOverloaded when the
// queue is full, ErrDraining/ErrKilled when the shard stopped accepting.
func (sh *shard) trySubmit(req *request) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.draining {
		if sh.crash.Load() {
			return ErrKilled
		}
		return ErrDraining
	}
	if sh.failed.Load() {
		return ErrShardFailed
	}
	select {
	case sh.queue <- req:
		return nil
	default:
		sh.obs.shed.Inc()
		return &ShedError{Shard: sh.id, Seq: sh.pubSeq.Load()}
	}
}

// closeIntake stops new submissions and lets the run loop drain out (or
// abandon, when crash was set first).
func (sh *shard) closeIntake() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.draining {
		return
	}
	sh.draining = true
	close(sh.queue)
}

// serving is one shard's row of the readiness probe: restored, un-fenced,
// and its queue not full.
func (sh *shard) serving() bool {
	return sh.ready.Load() && len(sh.queue) < cap(sh.queue)
}
