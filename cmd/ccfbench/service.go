package main

// The service experiments measure the daemon (internal/service) rather than
// the algorithms behind it.
//
// -exp service-load sweeps -batch-max over one in-process, fsync-per-append
// shard and writes the group-commit batch axis to BENCH_service.json.
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
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ccf/internal/service"
	"ccf/internal/stats"
	"ccf/internal/workload"
)

// smokeSpec is job i of the deterministic smoke/batch-axis stream: same
// bytes for any run, so crash-interrupted and uninterrupted passes are
// comparable.
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
// service-load: the group-commit batch axis, in-process.

type serviceLoadReport struct {
	Nodes     int            `json:"nodes"`
	BatchAxis []batchAxisRow `json:"batch_axis"`
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

func serviceLoadExp(outPath string) error {
	rep := serviceLoadReport{Nodes: 8}
	var err error
	if rep.BatchAxis, err = batchAxisExp(rep.Nodes); err != nil {
		return err
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

// awaitReady polls url/readyz until it answers 200, giving up after wait
// with an error that names the experiment: the daemon may be mid-restore
// after a kill.
func awaitReady(client *http.Client, exp, url string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %s not ready after %v", exp, url, wait)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func serviceSmokeExp(url string, jobs, offset, nodes int, outPath string, wait time.Duration) error {
	if url == "" {
		return fmt.Errorf("service-smoke needs -serviceurl")
	}
	client := &http.Client{Timeout: 30 * time.Second}
	if err := awaitReady(client, "service-smoke", url, wait); err != nil {
		return err
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
	if err := awaitReady(client, "service-burst", url, wait); err != nil {
		return err
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
