package service

// Pool is the daemon's engine fleet: N independent shards, jobs hashed to
// shards by routing key, lifecycle and fan-out operations on top.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"sync/atomic"
	"time"

	"ccf/internal/parallel"
	"ccf/internal/stats"
)

// Config describes a pool. The zero value is not usable; see Defaults.
type Config struct {
	// Shards is the number of independent engines (default 4).
	Shards int
	// Nodes is the fabric size every shard engine spans (required).
	Nodes int
	// QueueDepth bounds each shard's admission queue (default 64). A full
	// queue sheds with ErrOverloaded instead of growing without bound.
	QueueDepth int
	// BatchMax bounds how many queued jobs a shard drains and decides per
	// loop iteration (default 16). The batch shares one session advance,
	// one backlog probe per distinct clock, and one group-committed WAL
	// append + fsync; decisions are byte-identical to BatchMax=1. 1
	// restores strictly sequential admission.
	BatchMax int
	// Engine pins the per-shard engine identity (scheduler, bandwidth,
	// co-optimization); it is recorded in snapshots and verified at restore.
	Engine EngineConfig
	// Dir is the state directory for snapshots and WALs; empty disables
	// persistence (decisions are still served, restarts lose state).
	Dir string
	// SnapshotEvery compacts the WAL into a snapshot every that many
	// admitted jobs per shard (default 64; <= 0 disables periodic
	// snapshots — the final drain snapshot still runs).
	SnapshotEvery int
	// DegradeAfter is the queue-wait threshold beyond which a job takes
	// the placement-only path (default 250ms; <= 0 disables degradation).
	DegradeAfter time.Duration
	// RetryAfter is the backoff hint returned with shed responses
	// (default 50ms).
	RetryAfter time.Duration
	// WALSync fsyncs the WAL after every append. Off by default: the
	// daemon then survives process kills (the page cache persists) but a
	// same-instant OS crash may lose the tail. Decisions are only released
	// after the append either way.
	WALSync bool
	// Obs selects the opt-in observability surfaces (the /metrics registry,
	// per-job trace rings, structured logging). The instruments /stats reads
	// record whatever it holds, with zero allocations per job.
	Obs Observability
}

// withDefaults validates and fills the zero fields.
func (c Config) withDefaults() (Config, error) {
	if c.Nodes <= 0 {
		return c, fmt.Errorf("service: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("service: Shards must be positive, got %d", c.Shards)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 1 {
		return c, fmt.Errorf("service: QueueDepth must be positive, got %d", c.QueueDepth)
	}
	if c.BatchMax == 0 {
		c.BatchMax = 16
	}
	if c.BatchMax < 1 {
		return c, fmt.Errorf("service: BatchMax must be positive, got %d", c.BatchMax)
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 64
	}
	if c.DegradeAfter == 0 {
		c.DegradeAfter = 250 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
	if bw := c.Engine.Bandwidth; !(bw >= 0) || math.IsInf(bw, 1) {
		return c, fmt.Errorf("service: Engine.Bandwidth must be finite and non-negative, got %g", bw)
	}
	if _, err := networkScheduler(c.Engine.NetworkScheduler); err != nil {
		return c, err
	}
	return c, nil
}

// Pool is a sharded, crash-safe co-optimizer service. Construct with
// NewPool, call Start once, Submit from any number of goroutines, and end
// with Drain (graceful) or Kill (crash simulation).
type Pool struct {
	cfg     Config
	shards  []*shard
	started atomic.Bool
	stopped atomic.Bool
	birth   time.Time
}

// NewPool validates the configuration and builds the (not yet started)
// pool.
func NewPool(cfg Config) (*Pool, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg, birth: time.Now()}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, &p.cfg)
		sh.initObs(cfg.Obs, p.birth)
		p.shards = append(p.shards, sh)
	}
	p.registerPoolMetrics()
	return p, nil
}

// Start restores every shard from its snapshot + WAL (in parallel, honoring
// ctx) and launches the shard loops. Until Start returns, Ready reports
// false and Submit refuses work; a restore failure leaves the pool down —
// serving decisions that a journal cannot back would break the crash-safety
// contract.
func (p *Pool) Start(ctx context.Context) error {
	if !p.started.CompareAndSwap(false, true) {
		return errors.New("service: pool already started")
	}
	ok := false
	defer func() {
		if !ok {
			p.started.Store(false)
		}
	}()
	if p.cfg.Dir != "" {
		if err := os.MkdirAll(p.cfg.Dir, 0o755); err != nil {
			return err
		}
	}
	begin := time.Now()
	err := parallel.ForEachCtx(ctx, len(p.shards), len(p.shards), func(ctx context.Context, i int) error {
		return p.shards[i].restore()
	})
	if err != nil {
		return err
	}
	for _, sh := range p.shards {
		go sh.run()
	}
	ok = true
	var replayed uint64
	for _, sh := range p.shards {
		replayed += sh.seq
	}
	if log := p.cfg.Obs.Log; log != nil {
		log.LogAttrs(ctx, slog.LevelInfo, "shards up", slog.Int("shards", len(p.shards)),
			slog.Uint64("restored_jobs", replayed), slog.Duration("elapsed", time.Since(begin)))
	}
	return nil
}

// shardFor routes a key.
func (p *Pool) shardFor(key string) *shard {
	return p.shards[int(hashKey(key))%len(p.shards)]
}

// Submit routes, queues and awaits one job submission. It returns as soon
// as the decision is made, the queue rejects (ErrOverloaded/ErrDraining),
// or ctx expires — a stuck shard can never wedge the caller.
func (p *Pool) Submit(ctx context.Context, spec JobSpec) (*Decision, error) {
	if !p.started.Load() || p.stopped.Load() {
		return nil, ErrDraining
	}
	if err := spec.validate(p.cfg.Nodes); err != nil {
		return nil, err
	}
	sh := p.shardFor(spec.RouteKey())
	req := &request{spec: spec, ctx: ctx, enq: time.Now(), reply: make(chan reply, 1)}
	if err := sh.trySubmit(req); err != nil {
		return nil, err
	}
	select {
	case rep := <-req.reply:
		return rep.dec, rep.err
	case <-ctx.Done():
		// The shard will still see this request; it drops it un-admitted
		// if the deadline fired before processing began, and completes the
		// admission (journaled, just unobserved) if it fired mid-decision.
		return nil, context.Cause(ctx)
	}
}

// Ready reports whether the pool can take work: started, not draining, and
// every shard restored, un-fenced, and not drowning in backlog.
func (p *Pool) Ready() bool {
	if !p.started.Load() || p.stopped.Load() {
		return false
	}
	for _, sh := range p.shards {
		if !sh.serving() {
			return false
		}
	}
	return true
}

// Drain is graceful shutdown: stop intake everywhere, let every shard work
// off its queue, snapshot, and exit. In-flight and queued requests all
// complete normally; only new submissions see ErrDraining. ctx bounds the
// wait.
func (p *Pool) Drain(ctx context.Context) error {
	if !p.started.Load() {
		return nil
	}
	p.stopped.Store(true)
	for _, sh := range p.shards {
		sh.closeIntake()
	}
	return parallel.ForEachCtx(ctx, len(p.shards), len(p.shards), func(ctx context.Context, i int) error {
		select {
		case <-p.shards[i].done:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("shard %d did not drain: %w", i, context.Cause(ctx))
		}
	})
}

// Kill simulates a crash for in-process tests and the bench driver: intake
// stops, queued requests bounce with ErrKilled, no final snapshot is
// written — recovery must come from the journal, exactly as after kill -9.
func (p *Pool) Kill() {
	if !p.started.Load() {
		return
	}
	p.stopped.Store(true)
	for _, sh := range p.shards {
		sh.crash.Store(true)
		sh.closeIntake()
	}
	for _, sh := range p.shards {
		<-sh.done
	}
}

// SnapshotAll forces an immediate snapshot on every shard (fan-out under
// ctx via the control channel, serialized with job processing per shard).
func (p *Pool) SnapshotAll(ctx context.Context) error {
	return p.control(ctx, ctlSnapshot, nil)
}

// State collects every shard's engine-owned state (clock, seq, digest) —
// the determinism probe used by tests and the smoke driver.
func (p *Pool) State(ctx context.Context) ([]ShardState, error) {
	out := make([]ShardState, len(p.shards))
	if err := p.control(ctx, ctlState, out); err != nil {
		return nil, err
	}
	return out, nil
}

// control round-trips a control message to every shard.
func (p *Pool) control(ctx context.Context, kind int, states []ShardState) error {
	if !p.started.Load() {
		return errors.New("service: pool not started")
	}
	return parallel.ForEachCtx(ctx, len(p.shards), len(p.shards), func(ctx context.Context, i int) error {
		sh := p.shards[i]
		c := control{kind: kind, reply: make(chan ctlReply, 1)}
		select {
		case sh.ctl <- c:
		case <-sh.done:
			return fmt.Errorf("shard %d stopped", i)
		case <-ctx.Done():
			return context.Cause(ctx)
		}
		select {
		case r := <-c.reply:
			if states != nil {
				states[i] = r.state
			}
			return r.err
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	})
}

// ShardStats is one shard's /stats row.
type ShardStats struct {
	Shard           int     `json:"shard"`
	Ready           bool    `json:"ready"`
	QueueDepth      int     `json:"queue_depth"`
	QueueCap        int     `json:"queue_cap"`
	Admitted        uint64  `json:"admitted"`
	Completed       uint64  `json:"completed"`
	Shed            uint64  `json:"shed"`
	Degraded        uint64  `json:"degraded"`
	Lifted          uint64  `json:"lifted"`
	DeadlineDrops   uint64  `json:"deadline_drops"`
	Rejected        uint64  `json:"rejected"`
	Batches         uint64  `json:"batches"`
	WALGroupCommits uint64  `json:"wal_group_commits"`
	WALSyncs        uint64  `json:"wal_syncs"`
	Clock           float64 `json:"clock"`
	SnapshotSeq     uint64  `json:"snapshot_seq"`
	SnapshotAgeJobs uint64  `json:"snapshot_age_jobs"`
	SnapshotAgeSec  float64 `json:"snapshot_age_sec"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
}

// Stats is the /stats document.
type Stats struct {
	Ready         bool         `json:"ready"`
	Draining      bool         `json:"draining"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Build         BuildInfo    `json:"build"`
	Admitted      uint64       `json:"admitted"`
	Shed          uint64       `json:"shed"`
	Degraded      uint64       `json:"degraded"`
	Batches       uint64       `json:"batches"`
	WALSyncs      uint64       `json:"wal_syncs"`
	P50Ms         float64      `json:"p50_ms"`
	P99Ms         float64      `json:"p99_ms"`
	Shards        []ShardStats `json:"shards"`
}

// Stats assembles the live counters without touching any shard goroutine:
// everything here is atomics, the shards' instruments and the latency rings.
func (p *Pool) Stats() *Stats {
	out := &Stats{
		Ready:         p.Ready(),
		Draining:      p.stopped.Load(),
		UptimeSeconds: time.Since(p.birth).Seconds(),
		Build:         buildInfo(),
	}
	var allLat []float64
	for _, sh := range p.shards {
		lat := sh.lat.snapshot()
		ss := ShardStats{
			Shard:           sh.id,
			Ready:           sh.serving(),
			QueueDepth:      len(sh.queue),
			QueueCap:        cap(sh.queue),
			Admitted:        sh.pubSeq.Load(),
			Completed:       sh.pubCompleted.Load(),
			Shed:            sh.obs.shed.Value(),
			Degraded:        sh.obs.degraded.Value(),
			Lifted:          sh.obs.lifted.Value(),
			DeadlineDrops:   sh.obs.deadlineDrops.Value(),
			Rejected:        sh.obs.rejected.Value(),
			Batches:         sh.obs.batchSize.Count(),
			WALGroupCommits: sh.obs.groupCommits.Value(),
			WALSyncs:        sh.obs.walSyncs.Value(),
			Clock:           math.Float64frombits(sh.pubClock.Load()),
			SnapshotSeq:     sh.snapSeqPub.Load(),
			P50Ms:           stats.Percentile(lat, 50) * 1e3,
			P99Ms:           stats.Percentile(lat, 99) * 1e3,
		}
		ss.SnapshotAgeJobs = ss.Admitted - ss.SnapshotSeq
		if at := sh.snapAtNanos.Load(); at > 0 {
			ss.SnapshotAgeSec = time.Since(time.Unix(0, at)).Seconds()
		}
		out.Admitted += ss.Admitted
		out.Shed += ss.Shed
		out.Degraded += ss.Degraded
		out.Batches += ss.Batches
		out.WALSyncs += ss.WALSyncs
		allLat = append(allLat, lat...)
		out.Shards = append(out.Shards, ss)
	}
	out.P50Ms = stats.Percentile(allLat, 50) * 1e3
	out.P99Ms = stats.Percentile(allLat, 99) * 1e3
	return out
}

// RetryAfter exposes the configured backoff hint for the HTTP layer.
func (p *Pool) RetryAfter() time.Duration { return p.cfg.RetryAfter }
