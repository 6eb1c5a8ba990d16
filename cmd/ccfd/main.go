// ccfd is the co-optimizer daemon: the streaming engine of internal/core
// wrapped in a crash-safe HTTP/JSON service (internal/service). One process
// serves a pool of sharded engines with admission control, write-ahead
// logging and periodic snapshots; kill it at any point and a restart from
// the same -dir resumes byte-identical decisions.
//
// Usage:
//
//	ccfd -addr :8080 -dir /var/lib/ccfd -nodes 100 -shards 4
//
// Endpoints: POST /v1/jobs, GET /healthz, GET /readyz, GET /stats,
// GET /v1/state, POST /v1/snapshot; with -metrics also GET /metrics
// (Prometheus text exposition) and with -trace-depth > 0 the per-job
// lifecycle trace endpoints GET /v1/trace?job=<id|name> and
// GET /v1/trace/recent (Chrome trace-event JSON, loadable in Perfetto).
// -admin-addr serves net/http/pprof on a separate mux so profiling never
// shares a listener with the data plane. See DESIGN.md §13–§14.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ccf/internal/metrics"
	"ccf/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		nodes     = flag.Int("nodes", 100, "fabric size each shard engine spans")
		shards    = flag.Int("shards", 4, "independent engine shards (jobs are hashed to shards by key)")
		queue     = flag.Int("queue", 64, "per-shard admission queue depth (full queue sheds with 429)")
		batchMax  = flag.Int("batch-max", 16, "max queued jobs decided per shard loop iteration under one group-committed WAL append (1 = sequential; decisions are identical either way)")
		dir       = flag.String("dir", "", "state directory for snapshots and WALs (empty = no persistence)")
		snapEvery = flag.Int("snapshot-every", 64, "snapshot (compact the WAL) every this many jobs per shard")
		deadline  = flag.Duration("deadline", 5*time.Second, "per-request processing deadline")
		degrade   = flag.Duration("degrade-after", 250*time.Millisecond,
			"queue wait beyond which a job takes the degraded placement-only path (<0 disables)")
		retryAfter = flag.Duration("retry-after", 50*time.Millisecond, "backoff hint sent with shed (429) responses")
		bw         = flag.Float64("bw", 0, "port bandwidth in bytes/sec (0 = simulator default)")
		coopt      = flag.Bool("coopt", true, "co-optimize placements against the in-flight backlog")
		netsched   = flag.String("netsched", "varys", "network coflow scheduler: varys, aalo, fifo, scf, ncf")
		walSync    = flag.Bool("wal-sync", false, "fsync the WAL after every append (survives OS crashes, not just process kills)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "graceful-shutdown budget before the process exits anyway")

		metricsOn  = flag.Bool("metrics", false, "serve Prometheus text exposition at GET /metrics")
		traceDepth = flag.Int("trace-depth", 0, "per-shard ring of completed job lifecycle traces (0 disables /v1/trace)")
		logFormat  = flag.String("log-format", "text", "structured log format: text or json")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error (per-decision lines are debug)")
		adminAddr  = flag.String("admin-addr", "", "separate listen address for net/http/pprof (empty disables)")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccfd:", err)
		os.Exit(2)
	}

	obs := service.Observability{TraceDepth: *traceDepth, Log: logger}
	if *metricsOn {
		obs.Metrics = metrics.NewRegistry()
	}
	pool, err := service.NewPool(service.Config{
		Shards:        *shards,
		Nodes:         *nodes,
		QueueDepth:    *queue,
		BatchMax:      *batchMax,
		Dir:           *dir,
		SnapshotEvery: *snapEvery,
		DegradeAfter:  *degrade,
		RetryAfter:    *retryAfter,
		WALSync:       *walSync,
		Engine: service.EngineConfig{
			Bandwidth:        *bw,
			CoOptimize:       *coopt,
			NetworkScheduler: *netsched,
		},
		Obs: obs,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccfd:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if err := pool.Start(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ccfd: start:", err)
		os.Exit(1)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: service.NewHandler(pool, service.HTTPConfig{RequestTimeout: *deadline}),
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening",
		"addr", *addr, "shards", *shards, "nodes", *nodes, "dir", *dir,
		"metrics", *metricsOn, "trace_depth", *traceDepth)

	var adminSrv *http.Server
	if *adminAddr != "" {
		adminSrv = &http.Server{Addr: *adminAddr, Handler: adminMux(obs.Metrics)}
		go func() {
			if err := adminSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin listener failed", "addr", *adminAddr, "error", err)
			}
		}()
		logger.Info("admin listening (pprof)", "addr", *adminAddr)
	}

	select {
	case <-ctx.Done():
		// Graceful shutdown: stop taking connections, then drain the pool —
		// queued jobs finish, a final snapshot compacts each shard's WAL.
		logger.Info("signal received, draining", "grace", *drainGrace)
		grace, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		if err := srv.Shutdown(grace); err != nil {
			logger.Warn("http shutdown", "error", err)
		}
		if adminSrv != nil {
			_ = adminSrv.Shutdown(grace)
		}
		if err := pool.Drain(grace); err != nil {
			logger.Error("drain failed", "error", err)
			os.Exit(1)
		}
		logger.Info("drained cleanly")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ccfd: serve:", err)
			os.Exit(1)
		}
	}
}

// buildLogger assembles the daemon's slog logger from the CLI knobs.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
	return slog.New(h), nil
}

// adminMux is the operator-only surface: pprof plus a second /metrics mount
// so profiling and scraping work even when the data-plane listener is
// saturated. Kept off the data-plane mux so exposing ccfd to clients never
// exposes pprof.
func adminMux(reg *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.Handle("GET /metrics", reg.Handler())
	}
	return mux
}
