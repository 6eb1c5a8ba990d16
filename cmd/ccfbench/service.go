package main

// The service experiments measure the daemon (internal/service) rather than
// the algorithms behind it.
//
// -exp service-load drives an in-process pool through three phases — steady
// load, ~10x overload with jittered-exponential-backoff clients, and a
// kill+restart — and writes latency percentiles, shed counts and recovery
// time to BENCH_service.json.
//
// -exp service-smoke is the external half of the CI crash test: it drives a
// running ccfd over HTTP (-serviceurl), submitting a deterministic job
// stream ([-serviceoffset, -serviceoffset+-servicejobs)) sequentially and
// appending each decision as one JSON line to -smokeout. CI runs a reference
// pass uninterrupted, then the same stream with a kill -9 and restart in the
// middle, and diffs the two files byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccf/internal/metrics"
	"ccf/internal/service"
	"ccf/internal/stats"
	"ccf/internal/workload"
)

// smokeSpec is job i of the deterministic smoke/load stream: same bytes for
// any run, so crash-interrupted and uninterrupted passes are comparable.
// Every third job carries a hot key and asks for partial duplication, so a
// kill -9 and restart also crosses the skew plan the engine builds in reused
// storage, between jobs that do not touch it.
func smokeSpec(i int, nodes int) service.JobSpec {
	spec := service.JobSpec{
		Name: fmt.Sprintf("smoke-%06d", i),
		Key:  fmt.Sprintf("key-%d", i%17),
		Gen: &workload.Config{
			Nodes:          nodes,
			CustomerTuples: 40,
			OrderTuples:    400,
			PayloadBytes:   1000,
			Zipf:           0.8,
			Seed:           uint64(i),
			JitterFrac:     0.05,
		},
	}
	if i%3 == 2 {
		spec.Gen.Skew = workload.DefaultSkew
		spec.HandleSkew = true
	}
	return spec
}

// ---------------------------------------------------------------------------
// service-load: in-process phases with an httptest server.

type serviceLoadPhase struct {
	Requests   int     `json:"requests"`
	OK         int     `json:"ok"`
	Shed       int     `json:"shed"`
	Retries    int     `json:"retries"`
	Errors     int     `json:"errors"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	HealthP99  float64 `json:"healthz_p99_ms"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

type serviceLoadReport struct {
	Shards        int              `json:"shards"`
	Nodes         int              `json:"nodes"`
	QueueDepth    int              `json:"queue_depth"`
	Normal        serviceLoadPhase `json:"normal"`
	Overload      serviceLoadPhase `json:"overload"`
	KilledAtJobs  uint64           `json:"killed_at_jobs"`
	RestoreMs     float64          `json:"restore_ms"`
	RestoredJobs  uint64           `json:"restored_jobs"`
	DigestsMatch  bool             `json:"digests_match"`
	PostKill      serviceLoadPhase `json:"post_kill"`
	TotalAdmitted uint64           `json:"total_admitted"`
	Scrapes       []metricsScrape  `json:"metrics_scrapes"`
	BatchAxis     []batchAxisRow   `json:"batch_axis"`
}

// batchAxisRow is one -batch-max setting of the group-commit sweep: the same
// overload drive against a single fsync-ing shard, so jobs_per_sec isolates
// what batching the WAL append+fsync (and the session advance behind it)
// buys. Decisions are byte-identical across rows; only throughput moves.
type batchAxisRow struct {
	BatchMax     int     `json:"batch_max"`
	OK           int     `json:"ok"`
	Errors       int     `json:"errors"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	Batches      uint64  `json:"batches"`
	MeanBatch    float64 `json:"mean_batch_jobs"`
	WALSyncs     uint64  `json:"wal_syncs"`
	SyncsPerJob  float64 `json:"syncs_per_job"`
	SpeedupVsSeq float64 `json:"speedup_vs_batch1"`
}

// batchAxisExp sweeps -batch-max over one fsync-per-append shard. The driver
// is open-loop with a bounded in-flight window just under the queue depth:
// the shard's queue stays deep for the whole run (nothing sheds, nothing
// stalls), which is the overload regime where adaptive batching forms full
// groups. Every row submits the same deterministic job stream in-process —
// no HTTP client noise in the throughput being compared.
func batchAxisExp(nodes int) ([]batchAxisRow, error) {
	const inflight, jobs = 120, 2000
	var rows []batchAxisRow
	for _, bm := range []int{1, 8, 64} {
		dir, err := os.MkdirTemp("", "ccfd-batch-")
		if err != nil {
			return nil, err
		}
		cfg := service.Config{
			Shards:        1,
			Nodes:         nodes,
			QueueDepth:    128,
			BatchMax:      bm,
			Dir:           dir,
			SnapshotEvery: -1, // keep the journal pure WAL: the sweep meters group commit, not compaction
			DegradeAfter:  -1, // every decision takes the full co-optimized path
			RetryAfter:    5 * time.Millisecond,
			WALSync:       true,
			Engine:        service.EngineConfig{CoOptimize: true},
		}
		pool, err := service.NewPool(cfg)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if err := pool.Start(context.Background()); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}

		sem := make(chan struct{}, inflight)
		var wg sync.WaitGroup
		var ok, errs atomic.Int64
		var latMu sync.Mutex
		lats := make([]float64, 0, jobs)
		begin := time.Now()
		for i := 0; i < jobs; i++ {
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				b := time.Now()
				if _, err := pool.Submit(context.Background(), smokeSpec(1000+i, nodes)); err != nil {
					errs.Add(1)
					return
				}
				ok.Add(1)
				latMu.Lock()
				lats = append(lats, time.Since(b).Seconds())
				latMu.Unlock()
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(begin).Seconds()
		st := pool.Stats()
		drainErr := pool.Drain(context.Background())
		os.RemoveAll(dir)
		if drainErr != nil {
			return nil, drainErr
		}

		row := batchAxisRow{
			BatchMax:   bm,
			OK:         int(ok.Load()),
			Errors:     int(errs.Load()),
			ElapsedSec: elapsed,
			P50Ms:      stats.Percentile(lats, 50) * 1e3,
			P99Ms:      stats.Percentile(lats, 99) * 1e3,
			Batches:    st.Batches,
			WALSyncs:   st.WALSyncs,
		}
		if elapsed > 0 {
			row.JobsPerSec = float64(row.OK) / elapsed
		}
		if st.Batches > 0 {
			row.MeanBatch = float64(st.Admitted) / float64(st.Batches)
		}
		if st.Admitted > 0 {
			row.SyncsPerJob = float64(st.WALSyncs) / float64(st.Admitted)
		}
		if len(rows) > 0 && rows[0].JobsPerSec > 0 {
			row.SpeedupVsSeq = row.JobsPerSec / rows[0].JobsPerSec
		} else {
			row.SpeedupVsSeq = 1
		}
		fmt.Printf("  batch-max %2d: %6.1f jobs/s, p99 %7.2f ms, %.2f syncs/job (mean batch %.1f), speedup %.2fx\n",
			bm, row.JobsPerSec, row.P99Ms, row.SyncsPerJob, row.MeanBatch, row.SpeedupVsSeq)
		rows = append(rows, row)
	}
	return rows, nil
}

// metricsScrape summarizes one /metrics pull taken at a phase boundary:
// structural validity plus the headline counters, so the benchmark report
// records what an external Prometheus would have seen at that moment.
type metricsScrape struct {
	Phase         string  `json:"phase"`
	Valid         bool    `json:"valid"`
	SampleLines   int     `json:"sample_lines"`
	AdmittedTotal float64 `json:"admitted_total"`
	ShedTotal     float64 `json:"shed_total"`
	DegradedTotal float64 `json:"degraded_total"`
	DecisionCount float64 `json:"decision_latency_count"`
}

// scrapeServiceMetrics pulls url/metrics and folds it into a metricsScrape.
func scrapeServiceMetrics(phase, url string) metricsScrape {
	sc := metricsScrape{Phase: phase}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return sc
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return sc
	}
	text := string(body)
	sc.Valid = metrics.ValidateExposition(text) == nil
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sc.SampleLines++
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, "ccfd_jobs_admitted_total"):
			sc.AdmittedTotal += v
		case strings.HasPrefix(line, "ccfd_jobs_shed_total"):
			sc.ShedTotal += v
		case strings.HasPrefix(line, "ccfd_jobs_degraded_total"):
			sc.DegradedTotal += v
		case strings.HasPrefix(line, "ccfd_decision_latency_seconds_count"):
			sc.DecisionCount += v
		}
	}
	return sc
}

// loadPhase fires `clients` concurrent workers, each submitting jobs from
// the deterministic stream with jittered exponential backoff on 429/5xx,
// while a sidecar samples /healthz latency.
func loadPhase(url string, clients, perClient, offset, nodes int, heavyPartitions int) serviceLoadPhase {
	var ph serviceLoadPhase
	ph.Requests = clients * perClient
	var ok, shed, retries, errs atomic.Int64
	var latMu sync.Mutex
	var lats []float64

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients + 1,
		MaxIdleConnsPerHost: clients + 1,
	}}

	stopHealth := make(chan struct{})
	healthDone := make(chan []float64, 1)
	go func() {
		var hl []float64
		for {
			select {
			case <-stopHealth:
				healthDone <- hl
				return
			default:
			}
			b := time.Now()
			resp, err := client.Get(url + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			hl = append(hl, time.Since(b).Seconds())
			time.Sleep(2 * time.Millisecond)
		}
	}()

	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(offset + c)))
			for j := 0; j < perClient; j++ {
				spec := smokeSpec(offset+c*perClient+j, nodes)
				if heavyPartitions > 0 {
					spec.Gen.Partitions = heavyPartitions
				}
				body, _ := json.Marshal(spec)
				backoff := 5 * time.Millisecond
				reqStart := time.Now()
				for attempt := 0; ; attempt++ {
					resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						errs.Add(1)
						break
					}
					io.Copy(io.Discard, resp.Body)
					code := resp.StatusCode
					resp.Body.Close()
					if code == http.StatusOK {
						ok.Add(1)
						latMu.Lock()
						lats = append(lats, time.Since(reqStart).Seconds())
						latMu.Unlock()
						break
					}
					if code == http.StatusTooManyRequests || code >= 500 {
						if code == http.StatusTooManyRequests {
							shed.Add(1)
						}
						if attempt >= 8 {
							errs.Add(1)
							break
						}
						retries.Add(1)
						// Jittered exponential backoff: full jitter over an
						// exponentially growing window.
						time.Sleep(time.Duration(rng.Int63n(int64(backoff))) + backoff/2)
						backoff *= 2
						continue
					}
					errs.Add(1)
					break
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopHealth)
	hl := <-healthDone

	ph.ElapsedSec = time.Since(begin).Seconds()
	ph.OK = int(ok.Load())
	ph.Shed = int(shed.Load())
	ph.Retries = int(retries.Load())
	ph.Errors = int(errs.Load())
	ph.P50Ms = stats.Percentile(lats, 50) * 1e3
	ph.P99Ms = stats.Percentile(lats, 99) * 1e3
	if len(hl) > 0 {
		sort.Float64s(hl)
		ph.HealthP99 = hl[(len(hl)*99)/100] * 1e3
	}
	return ph
}

func serviceLoadExp(outPath, dir string) error {
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ccfd-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	cfg := service.Config{
		Shards:        2,
		Nodes:         8,
		QueueDepth:    8,
		Dir:           dir,
		SnapshotEvery: 32,
		DegradeAfter:  500 * time.Microsecond,
		RetryAfter:    5 * time.Millisecond,
		Engine:        service.EngineConfig{CoOptimize: true},
	}
	rep := serviceLoadReport{Shards: cfg.Shards, Nodes: cfg.Nodes, QueueDepth: cfg.QueueDepth}

	// Each pool gets its own registry: gauge funcs close over a pool's
	// shards, so reusing a registry across the restart would keep scraping
	// the dead pool.
	cfg.Obs = service.Observability{Metrics: metrics.NewRegistry(), TraceDepth: 256}
	pool, err := service.NewPool(cfg)
	if err != nil {
		return err
	}
	if err := pool.Start(context.Background()); err != nil {
		return err
	}
	srv := httptest.NewServer(service.NewHandler(pool, service.HTTPConfig{RequestTimeout: 10 * time.Second}))

	// Phase 1: steady load, concurrency ~ queue capacity.
	fmt.Println("  phase 1: steady load (4 clients)")
	rep.Normal = loadPhase(srv.URL, 4, 50, 0, cfg.Nodes, 0)
	rep.Scrapes = append(rep.Scrapes, scrapeServiceMetrics("normal", srv.URL))

	// Phase 2: overload — twice the pool's total queue capacity in
	// concurrent clients, heavy placements, backoff on shed.
	fmt.Println("  phase 2: overload (32 clients, heavy placements)")
	rep.Overload = loadPhase(srv.URL, 32, 10, 200, cfg.Nodes, 2048)
	rep.Scrapes = append(rep.Scrapes, scrapeServiceMetrics("overload", srv.URL))

	// Phase 3: kill -9 equivalent mid-run, then measure recovery.
	fmt.Println("  phase 3: kill + restart")
	preStates, err := pool.State(context.Background())
	if err != nil {
		return err
	}
	var killedAt uint64
	for _, st := range preStates {
		killedAt += st.Seq
	}
	rep.KilledAtJobs = killedAt
	pool.Kill()
	srv.Close()

	restoreBegin := time.Now()
	cfg.Obs = service.Observability{Metrics: metrics.NewRegistry(), TraceDepth: 256}
	pool2, err := service.NewPool(cfg)
	if err != nil {
		return err
	}
	if err := pool2.Start(context.Background()); err != nil {
		return err
	}
	rep.RestoreMs = time.Since(restoreBegin).Seconds() * 1e3
	postStates, err := pool2.State(context.Background())
	if err != nil {
		return err
	}
	rep.DigestsMatch = len(postStates) == len(preStates)
	for i := range postStates {
		rep.RestoredJobs += postStates[i].Seq
		if i < len(preStates) && postStates[i] != preStates[i] {
			rep.DigestsMatch = false
		}
	}
	srv2 := httptest.NewServer(service.NewHandler(pool2, service.HTTPConfig{RequestTimeout: 10 * time.Second}))
	rep.Scrapes = append(rep.Scrapes, scrapeServiceMetrics("post_restore", srv2.URL))
	rep.PostKill = loadPhase(srv2.URL, 4, 25, 520, cfg.Nodes, 0)
	rep.Scrapes = append(rep.Scrapes, scrapeServiceMetrics("post_kill", srv2.URL))
	finalStates, err := pool2.State(context.Background())
	if err != nil {
		return err
	}
	for _, st := range finalStates {
		rep.TotalAdmitted += st.Seq
	}
	srv2.Close()
	if err := pool2.Drain(context.Background()); err != nil {
		return err
	}

	// Phase 4: the batch axis — same drive, one fsync-ing shard, three
	// -batch-max settings.
	fmt.Println("  phase 4: group-commit batch axis (1 shard, fsync per append)")
	rep.BatchAxis, err = batchAxisExp(cfg.Nodes)
	if err != nil {
		return err
	}

	fmt.Printf("  normal:   %d ok, p50 %.2f ms, p99 %.2f ms\n", rep.Normal.OK, rep.Normal.P50Ms, rep.Normal.P99Ms)
	fmt.Printf("  overload: %d ok, %d shed, %d retries, p99 %.2f ms, healthz p99 %.2f ms\n",
		rep.Overload.OK, rep.Overload.Shed, rep.Overload.Retries, rep.Overload.P99Ms, rep.Overload.HealthP99)
	fmt.Printf("  recovery: %d jobs restored in %.1f ms, digests match: %v\n",
		rep.RestoredJobs, rep.RestoreMs, rep.DigestsMatch)
	if !rep.DigestsMatch {
		return fmt.Errorf("service-load: post-restart state diverged from pre-kill state")
	}
	for _, sc := range rep.Scrapes {
		if !sc.Valid {
			return fmt.Errorf("service-load: /metrics scrape at %s failed structural validation", sc.Phase)
		}
	}

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", outPath)
	return nil
}

// ---------------------------------------------------------------------------
// service-smoke: sequential external driver against a live ccfd.

func serviceSmokeExp(url string, jobs, offset, nodes int, outPath string, wait time.Duration) error {
	if url == "" {
		return fmt.Errorf("service-smoke needs -serviceurl")
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// Wait for readiness: the daemon may be mid-restore after a kill.
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service-smoke: %s not ready after %v", url, wait)
		}
		time.Sleep(100 * time.Millisecond)
	}

	out, err := os.OpenFile(outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer out.Close()

	rng := rand.New(rand.NewSource(int64(offset)))
	for i := offset; i < offset+jobs; i++ {
		spec := smokeSpec(i, nodes)
		body, _ := json.Marshal(spec)
		backoff := 10 * time.Millisecond
		for attempt := 0; ; attempt++ {
			resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				// Connection refused mid-restart: back off and retry.
				if attempt >= 20 {
					return fmt.Errorf("service-smoke: job %d: %v", i, err)
				}
			} else {
				dec, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					return rerr
				}
				if resp.StatusCode == http.StatusOK {
					// One compact JSON line per decision; the CI crash test
					// diffs these files across runs.
					if _, err := out.Write(append(bytes.TrimSpace(dec), '\n')); err != nil {
						return err
					}
					break
				}
				if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode < 500 {
					return fmt.Errorf("service-smoke: job %d: %d %s", i, resp.StatusCode, dec)
				}
				if attempt >= 20 {
					return fmt.Errorf("service-smoke: job %d: still %d after %d attempts", i, resp.StatusCode, attempt)
				}
			}
			time.Sleep(time.Duration(rng.Int63n(int64(backoff))) + backoff/2)
			if backoff < time.Second {
				backoff *= 2
			}
		}
	}
	fmt.Printf("service-smoke: %d decisions ([%d,%d)) appended to %s\n", jobs, offset, offset+jobs, outPath)
	return nil
}

// ---------------------------------------------------------------------------
// service-burst: concurrent external driver for the kill -9 mid-batch smoke.

// serviceBurstExp slams a running ccfd with `clients` concurrent submitters
// so the shard queues stay deep and admissions ride real multi-record group
// commits. Every acknowledged decision is recorded as one {"shard","seq"}
// JSON line in outPath. The daemon is expected to be killed (kill -9) while
// the burst is in flight: connection errors and 5xx just end that client's
// stream. CI restarts the daemon afterwards and asserts acked ⇒ journaled —
// every recorded seq is <= the restored seq of its shard.
func serviceBurstExp(url string, jobs, nodes, clients int, outPath string, wait time.Duration) error {
	if url == "" {
		return fmt.Errorf("service-burst needs -serviceurl")
	}
	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service-burst: %s not ready after %v", url, wait)
		}
		time.Sleep(100 * time.Millisecond)
	}

	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	var outMu sync.Mutex
	var acked, errors atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= jobs {
					return
				}
				spec := smokeSpec(i, nodes)
				// A handful of keys keeps every shard's queue deep, so the
				// run loops actually form multi-record batches.
				spec.Key = fmt.Sprintf("burst-%d", i%4)
				body, _ := json.Marshal(spec)
				resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					errors.Add(1) // daemon killed mid-burst: expected
					continue
				}
				dec, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil || resp.StatusCode != http.StatusOK {
					if resp.StatusCode == http.StatusTooManyRequests {
						time.Sleep(2 * time.Millisecond)
					}
					errors.Add(1)
					continue
				}
				var d service.Decision
				if err := json.Unmarshal(dec, &d); err != nil {
					errors.Add(1)
					continue
				}
				line := fmt.Sprintf("{\"shard\":%d,\"seq\":%d}\n", d.Shard, d.Seq)
				outMu.Lock()
				_, werr := out.WriteString(line)
				outMu.Unlock()
				if werr != nil {
					errors.Add(1)
					continue
				}
				acked.Add(1)
			}
		}()
	}
	wg.Wait()
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("service-burst: %d acked, %d unacked/errored (kill expected), ledger %s\n",
		acked.Load(), errors.Load(), outPath)
	return nil
}
