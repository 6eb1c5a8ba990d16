package service

// Observability wiring for the pool: metric registration, per-shard
// instruments, structured logging. Each shard has one instrument set that
// always records; /stats and /metrics both read it, so every shard event is
// counted once. Recording adds zero allocations per job and never feeds
// anything back into admission or placement, so decisions are the same
// whether or not anything reads the instruments. Only per-job traces,
// logs and the scrape-only gauges are opt-in.

import (
	"context"
	"log/slog"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ccf/internal/metrics"
)

// Observability selects the daemon's opt-in instrumentation surfaces. The
// zero value serves no /metrics, keeps no traces and logs nothing; the
// counters and histograms /stats reads record either way.
type Observability struct {
	// Metrics, when non-nil, receives the daemon's instruments; serve it
	// with Registry.Handler (the daemon mounts it at GET /metrics).
	Metrics *metrics.Registry
	// TraceDepth bounds each shard's ring of completed per-job lifecycle
	// traces (GET /v1/trace). 0 disables tracing.
	TraceDepth int
	// Log, when non-nil, receives structured log lines: per-decision at
	// Debug, shed/reject at Debug, the pool start at Info, fence and WAL
	// failures at Error.
	Log *slog.Logger
}

// shardObs is one shard's instrument set. The counters and histograms always
// exist; the logger, the trace ring and the port backlog mirrors are nil
// unless their surface is on.
type shardObs struct {
	birth time.Time
	log   *slog.Logger

	admitted      *metrics.Counter
	replayed      *metrics.Counter
	shed          *metrics.Counter
	degraded      *metrics.Counter
	lifted        *metrics.Counter
	deadlineDrops *metrics.Counter
	rejected      *metrics.Counter
	walFailures   *metrics.Counter
	groupCommits  *metrics.Counter
	walSyncs      *metrics.Counter

	decisionLatency *metrics.Histogram
	queueWait       *metrics.Histogram
	walAppend       *metrics.Histogram
	snapshotWrite   *metrics.Histogram
	batchSize       *metrics.Histogram
	walGroupRecords *metrics.Histogram

	// Per-port backlog mirrors: the run loop samples the live session after
	// each admission (BacklogInto is engine-goroutine-only) and publishes
	// through these atomics; gauge funcs read them at scrape time, so a
	// scrape never touches the shard goroutine.
	egBacklog, inBacklog []atomic.Int64
	egBuf, inBuf         []int64

	traces *ring[JobTrace]
}

// initObs builds the shard's instrument set on Obs.Metrics, or on a private
// registry nothing scrapes when /metrics is not served. Called once from
// NewPool, before Start, so registration races nothing.
func (sh *shard) initObs(obs Observability, birth time.Time) {
	o := &sh.obs
	o.birth, o.log = birth, obs.Log
	if obs.TraceDepth > 0 {
		o.traces = newRing[JobTrace](obs.TraceDepth)
	}
	r := obs.Metrics
	if r == nil {
		r = metrics.NewRegistry()
	}
	lbl := metrics.L("shard", strconv.Itoa(sh.id))
	o.admitted = r.Counter("ccfd_jobs_admitted_total", "Jobs admitted (journaled decisions), including jobs replayed at restore.", lbl...)
	o.replayed = r.Counter("ccfd_jobs_replayed_total", "Jobs re-admitted from snapshot+WAL at restore.", lbl...)
	o.shed = r.Counter("ccfd_jobs_shed_total", "Submissions bounced by a full queue.", lbl...)
	o.degraded = r.Counter("ccfd_jobs_degraded_total", "Jobs pushed onto the placement-only path by queue pressure.", lbl...)
	o.lifted = r.Counter("ccfd_jobs_lifted_total", "Jobs whose arrival was lifted to the shard clock.", lbl...)
	o.deadlineDrops = r.Counter("ccfd_jobs_deadline_dropped_total", "Queued jobs dropped because the client deadline passed before processing.", lbl...)
	o.rejected = r.Counter("ccfd_jobs_rejected_total", "Jobs the engine rejected (invalid specs).", lbl...)
	o.walFailures = r.Counter("ccfd_wal_failures_total", "Journal append or snapshot failures (each fences the shard).", lbl...)
	o.groupCommits = r.Counter("ccfd_wal_group_commits_total", "WAL group commits (one physical write per admission batch).", lbl...)
	o.walSyncs = r.Counter("ccfd_wal_syncs_total", "WAL fsyncs issued (at most one per group commit with -wal-sync).", lbl...)

	o.decisionLatency = r.Histogram("ccfd_decision_latency_seconds", "End-to-end decision latency, enqueue to reply.", nil, lbl...)
	o.queueWait = r.Histogram("ccfd_queue_wait_seconds", "Time a job sat in the shard queue before processing.", nil, lbl...)
	o.walAppend = r.Histogram("ccfd_wal_append_seconds", "WAL group-commit latency (all records of a batch, one write, one optional fsync).", nil, lbl...)
	o.snapshotWrite = r.Histogram("ccfd_snapshot_write_seconds", "Snapshot write+rename latency (the WAL compaction point).", nil, lbl...)
	batchBuckets := []float64{1, 2, 4, 8, 16, 32, 64, 128}
	o.batchSize = r.Histogram("ccfd_batch_size_jobs", "Jobs drained per shard loop iteration (the admission batch).", batchBuckets, lbl...)
	o.walGroupRecords = r.Histogram("ccfd_wal_group_records", "Records per WAL group commit — jobs amortized per fsync.", batchBuckets, lbl...)

	if obs.Metrics == nil {
		return // everything below only a scrape reads
	}
	r.GaugeFunc("ccfd_queue_depth", "Jobs waiting in the shard queue.", func() float64 { return float64(len(sh.queue)) }, lbl...)
	r.GaugeFunc("ccfd_queue_capacity", "Shard queue capacity.", func() float64 { return float64(cap(sh.queue)) }, lbl...)
	r.GaugeFunc("ccfd_shard_ready", "1 when the shard is restored, un-fenced and accepting work.", func() float64 {
		if sh.ready.Load() {
			return 1
		}
		return 0
	}, lbl...)
	r.GaugeFunc("ccfd_engine_clock_seconds", "The shard engine's logical clock (latest admitted arrival).", func() float64 {
		return math.Float64frombits(sh.pubClock.Load())
	}, lbl...)
	r.GaugeFunc("ccfd_jobs_completed", "Jobs whose transfers had finished at the last session advance.", func() float64 {
		return float64(sh.pubCompleted.Load())
	}, lbl...)
	r.GaugeFunc("ccfd_snapshot_age_jobs", "Admitted jobs not yet covered by a snapshot (WAL length).", func() float64 {
		return float64(sh.pubSeq.Load() - sh.snapSeqPub.Load())
	}, lbl...)
	r.GaugeFunc("ccfd_snapshot_age_seconds", "Seconds since the shard's last committed snapshot (0 before the first).", func() float64 {
		at := sh.snapAtNanos.Load()
		if at == 0 {
			return 0
		}
		return time.Since(time.Unix(0, at)).Seconds()
	}, lbl...)

	n := sh.cfg.Nodes
	o.egBacklog = make([]atomic.Int64, n)
	o.inBacklog = make([]atomic.Int64, n)
	o.egBuf = make([]int64, n)
	o.inBuf = make([]int64, n)
	for port := 0; port < n; port++ {
		eg, in := &o.egBacklog[port], &o.inBacklog[port]
		pl := metrics.L("shard", strconv.Itoa(sh.id), "port", strconv.Itoa(port))
		r.GaugeFunc("ccfd_port_backlog_bytes", "Per-port in-flight bytes on the shard's fabric, sampled after each admission.",
			func() float64 { return float64(eg.Load()) }, append(pl, metrics.Label{Name: "dir", Value: "egress"})...)
		r.GaugeFunc("ccfd_port_backlog_bytes", "Per-port in-flight bytes on the shard's fabric, sampled after each admission.",
			func() float64 { return float64(in.Load()) }, append(pl, metrics.Label{Name: "dir", Value: "ingress"})...)
	}
}

// sampleBacklog publishes the live session's per-port backlog into the
// scrape mirrors. Run-loop only.
func (sh *shard) sampleBacklog() {
	o := &sh.obs
	if o.egBacklog == nil {
		return
	}
	if err := sh.eng.BacklogInto(o.egBuf, o.inBuf); err != nil {
		return
	}
	for i := range o.egBuf {
		o.egBacklog[i].Store(o.egBuf[i])
		o.inBacklog[i].Store(o.inBuf[i])
	}
}

// jobAdmitted records the full lifecycle of one successful admission:
// histograms, the span-ring entry, and a Debug log line. batch is the size
// of the admission batch the job rode in; the journal span covers the
// batch's shared group commit (it ends at the same instant for every job in
// the batch).
func (o *shardObs) jobAdmitted(spec *JobSpec, shardID int, seq uint64, enq, start, decide, journal, done time.Time, lifted bool, batch int) {
	o.queueWait.Observe(start.Sub(enq).Seconds())
	o.decisionLatency.Observe(done.Sub(enq).Seconds())
	if o.traces == nil && o.log == nil {
		return
	}
	id := traceID(shardID, seq)
	if o.traces != nil {
		rel := func(t time.Time) float64 { return t.Sub(o.birth).Seconds() }
		o.traces.add(JobTrace{
			ID: id, Name: spec.Name, Key: spec.RouteKey(),
			Shard: shardID, Seq: seq, Outcome: "ok",
			Lifted: lifted, Degraded: spec.PlacementOnly, Batch: batch,
			Spans: []TraceSpan{
				{Name: "queue", Start: rel(enq), Dur: start.Sub(enq).Seconds()},
				{Name: "decide", Start: rel(start), Dur: decide.Sub(start).Seconds()},
				{Name: "journal", Start: rel(decide), Dur: journal.Sub(decide).Seconds()},
				{Name: "reply", Start: rel(journal), Dur: done.Sub(journal).Seconds()},
			},
		})
	}
	if o.log != nil {
		o.log.LogAttrs(context.Background(), slog.LevelDebug, "decision",
			slog.String("trace_id", id), slog.String("job", spec.Name),
			slog.Int("shard", shardID), slog.Uint64("seq", seq),
			slog.Bool("lifted", lifted), slog.Bool("degraded", spec.PlacementOnly),
			slog.Int("batch", batch),
			slog.Duration("latency", done.Sub(enq)))
	}
}

// jobFailed records a submission that never became a decision.
func (o *shardObs) jobFailed(spec *JobSpec, shardID int, outcome string, err error) {
	if o.log != nil {
		o.log.LogAttrs(context.Background(), slog.LevelDebug, "submission failed",
			slog.String("job", spec.Name), slog.Int("shard", shardID),
			slog.String("outcome", outcome), slog.Any("error", err))
	}
}

// traceID is the correlation ID stamped through logs, spans and the
// X-Ccfd-Trace-Id response header. It is derived from (shard, seq) — both
// already deterministic and already inside the Decision body — so tracing
// adds no new entropy and decision bytes stay identical with tracing on or
// off.
func traceID(shard int, seq uint64) string {
	return "s" + strconv.Itoa(shard) + "-" + strconv.FormatUint(seq, 10)
}

// registerPoolMetrics installs the pool-wide families: identity, uptime,
// build info.
func (p *Pool) registerPoolMetrics() {
	r := p.cfg.Obs.Metrics
	if r == nil {
		return
	}
	r.Gauge("ccfd_up", "Always 1 while the daemon serves.").Set(1)
	r.Gauge("ccfd_shards", "Number of engine shards.").Set(float64(len(p.shards)))
	r.GaugeFunc("ccfd_uptime_seconds", "Seconds since the pool was constructed.", func() float64 {
		return time.Since(p.birth).Seconds()
	})
	r.GaugeFunc("ccfd_gomaxprocs", "Scheduler parallelism (GOMAXPROCS).", func() float64 {
		return float64(runtime.GOMAXPROCS(0))
	})
	bi := buildInfo()
	r.Gauge("ccfd_build_info", "Build identity; the value is always 1.",
		metrics.L("version", bi.Version, "go_version", bi.GoVersion)...).Set(1)
}

// BuildInfo is the /stats build block.
type BuildInfo struct {
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

var buildVersion = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "(unknown)"
})

func buildInfo() BuildInfo {
	return BuildInfo{
		Version:    buildVersion(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}
