package service

// Per-job lifecycle traces: every admitted job leaves a bounded record of
// its timed spans (queue → decide → journal → reply) in its shard's ring,
// keyed by a correlation ID derived from (shard, seq). The HTTP layer
// exports rings as Chrome trace-event JSON via telemetry.WriteSpanTrace,
// so a single job's path through the daemon loads directly in Perfetto.

import (
	"io"
	"sort"
	"strconv"
	"sync"

	"ccf/internal/telemetry"
)

// TraceSpan is one timed phase of a job's lifecycle. Times are seconds
// since the pool was constructed.
type TraceSpan struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_s"`
	Dur   float64 `json:"dur_s"`
}

// JobTrace is the recorded lifecycle of one admitted job.
type JobTrace struct {
	ID       string      `json:"id"`
	Name     string      `json:"name"`
	Key      string      `json:"key"`
	Shard    int         `json:"shard"`
	Seq      uint64      `json:"seq"`
	Outcome  string      `json:"outcome"`
	Lifted   bool        `json:"lifted,omitempty"`
	Degraded bool        `json:"degraded,omitempty"`
	Batch    int         `json:"batch,omitempty"`
	Spans    []TraceSpan `json:"spans"`
}

// ring is a bounded window of the most recent values: a shard's /stats
// latency samples and its per-job traces. Written by the shard run loop,
// read by HTTP handlers; a mutex is fine here — a ring is touched once per
// admitted job, not per flow.
type ring[T any] struct {
	mu  sync.Mutex
	buf []T
	pos int // next write index
	n   int // values held, at most len(buf)
}

func newRing[T any](size int) *ring[T] {
	return &ring[T]{buf: make([]T, size)}
}

func (r *ring[T]) add(v T) {
	r.mu.Lock()
	r.buf[r.pos] = v
	r.pos = (r.pos + 1) % len(r.buf)
	r.n = min(r.n+1, len(r.buf))
	r.mu.Unlock()
}

// snapshot copies the window out oldest-first. Before the first wrap pos ==
// n and the window is buf[:n]; after it the oldest value sits at pos.
func (r *ring[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, r.n)
	k := copy(out, r.buf[r.pos:r.n])
	copy(out[k:], r.buf[:r.pos])
	return out
}

// findTrace returns the newest trace whose ID or job name matches q, so a
// re-submitted name resolves to its latest run.
func findTrace(r *ring[JobTrace], q string) (JobTrace, bool) {
	w := r.snapshot()
	for i := len(w) - 1; i >= 0; i-- {
		if w[i].ID == q || w[i].Name == q {
			return w[i], true
		}
	}
	return JobTrace{}, false
}

// FindTrace looks a job up across every shard ring by correlation ID or
// job name. False when tracing is disabled or the job is not in any window.
func (p *Pool) FindTrace(q string) (JobTrace, bool) {
	for _, sh := range p.shards {
		if sh.obs.traces == nil {
			continue
		}
		if t, ok := findTrace(sh.obs.traces, q); ok {
			return t, true
		}
	}
	return JobTrace{}, false
}

// RecentTraces returns every shard's trace window, oldest-first per shard.
// Nil when tracing is disabled.
func (p *Pool) RecentTraces() []JobTrace {
	var out []JobTrace
	for _, sh := range p.shards {
		if sh.obs.traces == nil {
			continue
		}
		out = append(out, sh.obs.traces.snapshot()...)
	}
	return out
}

// TracingEnabled reports whether any shard keeps a trace ring.
func (p *Pool) TracingEnabled() bool {
	return p.cfg.Obs.TraceDepth > 0
}

// WriteJobTrace renders traces as a Chrome trace-event document: one
// process ("ccfd"), one thread per shard, every job's spans on its shard's
// track. Spans are globally re-sorted per track before export because jobs
// overlap (B is queued while A decides), and the trace-event contract CI
// validates is monotone timestamps within each (pid, tid) track.
func WriteJobTrace(w io.Writer, traces []JobTrace) error {
	byShard := map[int][]telemetry.Span{}
	for _, t := range traces {
		args := map[string]any{"trace_id": t.ID, "job": t.Name, "seq": t.Seq}
		if t.Batch > 0 {
			args["batch"] = t.Batch
		}
		for _, sp := range t.Spans {
			byShard[t.Shard] = append(byShard[t.Shard], telemetry.Span{
				Name: sp.Name, Start: sp.Start, Dur: sp.Dur, Args: args,
			})
		}
	}
	shardIDs := make([]int, 0, len(byShard))
	for id := range byShard {
		shardIDs = append(shardIDs, id)
	}
	sort.Ints(shardIDs)
	tracks := make([]telemetry.SpanTrack, 0, len(shardIDs))
	for _, id := range shardIDs {
		spans := byShard[id]
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
		tracks = append(tracks, telemetry.SpanTrack{
			Pid: 1, Tid: id,
			Process: "ccfd", Thread: "shard " + strconv.Itoa(id),
			Spans: spans,
		})
	}
	return telemetry.WriteSpanTrace(w, tracks)
}
