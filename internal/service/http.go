package service

// HTTP/JSON surface of the daemon. Thin by design: every handler either
// reads lock-free published state (health, readiness, stats) or delegates to
// Pool.Submit, which owns the admission-control semantics. The liveness and
// readiness probes never touch a shard goroutine, so they stay fast — sub-
// millisecond — even when every queue is full (the overload test pins p99
// health latency under 100ms at 10x load).
//
//	POST /v1/jobs         submit one JobSpec, returns a Decision
//	GET  /healthz         liveness: process is up and serving
//	GET  /readyz          readiness: 200 only when every shard can take work
//	GET  /stats           queue depths, latency percentiles, shed counters
//	GET  /v1/state        per-shard engine state digests (determinism probe)
//	POST /v1/snapshot     force an immediate snapshot on every shard
//	GET  /metrics         Prometheus text exposition (when a registry is wired)
//	GET  /v1/trace        one job's lifecycle as Chrome trace JSON (?job=ID|name)
//	GET  /v1/trace/recent every shard's trace window as Chrome trace JSON
//
// Trace endpoints accept ?raw=1 to return the JobTrace records instead of
// the Chrome trace-event document. Successful submissions carry the job's
// correlation ID in an X-Ccfd-Trace-Id header when tracing is on (a header,
// not a body field — decision bytes stay identical with tracing on or off).
//
// Error envelope: {"error": "...", "retry_after_ms": N} with the HTTP
// status carrying the class — 400 bad job, 429 shed (plus a Retry-After
// header), 503 draining/fenced, 504 deadline.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"
)

// maxJobBody bounds a submission body (an explicit chunk matrix for a large
// fabric is big; 8 MiB is far above anything the drivers send).
const maxJobBody = 8 << 20

// HTTPConfig tunes the handler.
type HTTPConfig struct {
	// RequestTimeout bounds each submission end to end (default 5s); the
	// shard drops un-started work whose deadline passed instead of
	// admitting jobs nobody is waiting for.
	RequestTimeout time.Duration
}

// controlTimeout bounds the /v1/state and /v1/snapshot fan-outs: a snapshot
// serializes behind in-flight decisions.
const controlTimeout = 30 * time.Second

func (c HTTPConfig) withDefaults() HTTPConfig {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	return c
}

// decodeStrict decodes exactly one JSON value from r into v: a misspelt
// field or a second value is refused, never decided without it.
func decodeStrict(r io.Reader, v any) error {
	in := json.NewDecoder(r)
	in.DisallowUnknownFields()
	if err := in.Decode(v); err != nil {
		return err
	}
	if _, tail := in.Token(); tail != io.EOF {
		return errors.New("more than one JSON value")
	}
	return nil
}

// NewHandler builds the daemon's HTTP mux over a pool.
func NewHandler(p *Pool, cfg HTTPConfig) http.Handler {
	cfg = cfg.withDefaults()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxJobBody), &spec); err != nil {
			writeError(w, p, http.StatusBadRequest, fmt.Errorf("%w: body: %v", ErrBadJob, err))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), cfg.RequestTimeout)
		defer cancel()
		dec, err := p.Submit(ctx, spec)
		if err != nil {
			writeError(w, p, statusFor(err), err)
			return
		}
		if p.TracingEnabled() {
			w.Header().Set("X-Ccfd-Trace-Id", traceID(dec.Shard, dec.Seq))
		}
		writeJSON(w, http.StatusOK, dec)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		type shardReady struct {
			Shard      int  `json:"shard"`
			Ready      bool `json:"ready"`
			QueueDepth int  `json:"queue_depth"`
		}
		out := struct {
			Ready  bool         `json:"ready"`
			Shards []shardReady `json:"shards"`
		}{Ready: p.Ready()}
		for _, sh := range p.shards {
			out.Shards = append(out.Shards, shardReady{sh.id, sh.serving(), len(sh.queue)})
		}
		code := http.StatusOK
		if !out.Ready {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, out)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, p.Stats())
	})
	mux.HandleFunc("GET /v1/state", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), controlTimeout)
		defer cancel()
		states, err := p.State(ctx)
		if err != nil {
			writeError(w, p, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"shards": states})
	})
	mux.HandleFunc("POST /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), controlTimeout)
		defer cancel()
		if err := p.SnapshotAll(ctx); err != nil {
			writeError(w, p, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	if reg := p.cfg.Obs.Metrics; reg != nil {
		mux.Handle("GET /metrics", reg.Handler())
	}
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		if !p.TracingEnabled() {
			writeError(w, p, http.StatusNotFound, errors.New("service: tracing disabled (wire Observability.TraceDepth)"))
			return
		}
		q := r.URL.Query().Get("job")
		if q == "" {
			writeError(w, p, http.StatusBadRequest, errors.New("service: missing ?job= (correlation ID or job name)"))
			return
		}
		t, ok := p.FindTrace(q)
		if !ok {
			writeError(w, p, http.StatusNotFound, fmt.Errorf("service: no trace for %q in any shard window", q))
			return
		}
		if r.URL.Query().Get("raw") != "" {
			writeJSON(w, http.StatusOK, t)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJobTrace(w, []JobTrace{t})
	})
	mux.HandleFunc("GET /v1/trace/recent", func(w http.ResponseWriter, r *http.Request) {
		if !p.TracingEnabled() {
			writeError(w, p, http.StatusNotFound, errors.New("service: tracing disabled (wire Observability.TraceDepth)"))
			return
		}
		traces := p.RecentTraces()
		if r.URL.Query().Get("raw") != "" {
			writeJSON(w, http.StatusOK, map[string]any{"traces": traces})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJobTrace(w, traces)
	})
	return mux
}

// statusFor maps submission errors onto the degradation ladder's statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrKilled), errors.Is(err, ErrShardFailed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadJob):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// jsonCodec is one pooled response-encoding buffer: the encoder writes into
// the owned bytes.Buffer, which is flushed to the ResponseWriter in a single
// Write. Pooling keeps the per-request encode path from allocating a fresh
// encoder state machine and growth-sized buffer on every reply (pinned by
// BenchmarkWriteJSON / TestWriteJSONAllocs).
type jsonCodec struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var codecPool = sync.Pool{
	New: func() any {
		c := &jsonCodec{}
		c.enc = json.NewEncoder(&c.buf)
		return c
	},
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	c := codecPool.Get().(*jsonCodec)
	c.buf.Reset()
	if err := c.enc.Encode(v); err != nil {
		codecPool.Put(c)
		http.Error(w, `{"error":"encode failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(c.buf.Bytes())
	codecPool.Put(c)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

func writeError(w http.ResponseWriter, p *Pool, code int, err error) {
	body := errorBody{Error: err.Error()}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		ra := p.RetryAfter()
		var shed *ShedError
		if errors.As(err, &shed) {
			// Spread shed retries across [base, 2*base) with jitter keyed by
			// (shard, journal seq): deterministic — replayable in tests, no
			// rand in the error path — while distinct shards shedding at the
			// same instant still stagger their clients, and repeated 429s
			// from one shard walk the window as its sequence advances.
			ra += time.Duration(shedJitter(shed.Shard, shed.Seq) * float64(ra))
		}
		body.RetryAfterMs = ra.Milliseconds()
		// The standard header is second-granular; round up so zero never
		// means "hammer me again immediately".
		secs := int64(ra.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, code, body)
}

// shedJitter maps (shard, seq) onto [0, 1) with FNV-1a over both values'
// little-endian bytes — allocation-free and well spread even for adjacent
// shard IDs.
func shedJitter(shard int, seq uint64) float64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(shard))
	binary.LittleEndian.PutUint64(b[8:], seq)
	h := fnv.New64a()
	h.Write(b[:])
	return float64(h.Sum64()%1024) / 1024
}
