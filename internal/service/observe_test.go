package service

// Observability tests: the ring window's wrap-around boundary, the
// zero-allocation recording of the always-on instruments, /stats and
// /metrics reading the same counts, Prometheus exposition validity under
// concurrent load (with counter monotonicity across scrapes), the per-job
// trace endpoints (including Chrome trace-event structure), and
// kill/restart determinism with observability enabled — instruments must
// record the stream without perturbing a single decision byte.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ccf/internal/metrics"
)

// TestLatencyRingWrapAround pins the /stats latency window a shard keeps:
// after any number of recordings it holds exactly the most recent
// min(total, latencyWindow) latencies, oldest first — the wrap copy in
// ring.snapshot is what is under test here.
func TestLatencyRingWrapAround(t *testing.T) {
	size := latencyWindow
	for _, total := range []int{0, 1, size - 1, size, size + 1, size + 37, 3 * size} {
		sh := newShard(0, &Config{})
		for i := 0; i < total; i++ {
			sh.lat.add((time.Duration(i+1) * time.Microsecond).Seconds())
		}
		got := sh.lat.snapshot()
		want := min(total, size)
		if len(got) != want {
			t.Fatalf("total=%d: window has %d samples, want %d", total, len(got), want)
		}
		for i, v := range got {
			if exp := (time.Duration(total-want+i+1) * time.Microsecond).Seconds(); v != exp {
				t.Fatalf("total=%d: window[%d] = %g, want %g", total, i, v, exp)
			}
		}
	}
}

// TestTraceRingFindAndWrap pins the per-job trace window: after any number
// of adds it holds the most recent min(total, size) traces, oldest first,
// and findTrace walks it newest first, so an evicted trace is gone and a
// repeated job name resolves to its latest run.
func TestTraceRingFindAndWrap(t *testing.T) {
	for _, size := range []int{4, latencyWindow} {
		for _, total := range []int{0, 1, size - 1, size, size + 1, 3 * size} {
			r := newRing[JobTrace](size)
			for i := 1; i <= total; i++ {
				r.add(JobTrace{ID: traceID(0, uint64(i)), Name: fmt.Sprintf("job-%d", i%2), Seq: uint64(i)})
			}
			got := r.snapshot()
			want := min(total, size)
			if len(got) != want {
				t.Fatalf("size=%d total=%d: window has %d values, want %d", size, total, len(got), want)
			}
			for i, tr := range got {
				if exp := uint64(total - want + i + 1); tr.Seq != exp {
					t.Fatalf("size=%d total=%d: window[%d].Seq = %d, want %d", size, total, i, tr.Seq, exp)
				}
			}
			if total == 0 {
				continue
			}
			if tr, ok := findTrace(r, traceID(0, uint64(total))); !ok || tr.Seq != uint64(total) {
				t.Fatalf("size=%d total=%d: find newest by ID = %+v ok=%v", size, total, tr, ok)
			}
			if want >= 2 {
				older := fmt.Sprintf("job-%d", (total-1)%2)
				if tr, ok := findTrace(r, older); !ok || tr.Seq != uint64(total-1) {
					t.Fatalf("size=%d total=%d: find %s = %+v ok=%v, want seq %d", size, total, older, tr, ok, total-1)
				}
			}
			if total > size {
				if _, ok := findTrace(r, traceID(0, uint64(total-size))); ok {
					t.Fatalf("size=%d total=%d: evicted trace still findable", size, total)
				}
			}
		}
	}
}

// TestDisabledObservabilityZeroAllocs pins the overhead contract at the
// service seam: with a zero Observability (no /metrics, no traces, no log)
// a shard still records every instrument /stats reads, and recording one
// admitted job on all of them — the batch, journal and job counters, both
// latency histograms, the /stats latency window and the backlog sampler —
// allocates nothing.
func TestDisabledObservabilityZeroAllocs(t *testing.T) {
	cfg, err := Config{Nodes: 4, Shards: 1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	sh := newShard(0, &cfg)
	sh.initObs(cfg.Obs, time.Now())
	spec := genSpec("job", 1)
	now := time.Now()
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		o := &sh.obs
		o.batchSize.Observe(1)
		o.walAppend.Observe(0.001)
		o.walGroupRecords.Observe(1)
		o.groupCommits.Inc()
		o.walSyncs.Inc()
		o.admitted.Inc()
		o.degraded.Inc()
		o.lifted.Inc()
		sh.lat.add(0.001)
		o.jobAdmitted(&spec, sh.id, 1, now, now, now, now, now, true, 1)
		sh.sampleBacklog()
	})
	if allocs != 0 {
		t.Fatalf("recording one admitted job allocates %.1f allocs/op, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call.
	if got := sh.obs.admitted.Value(); got != runs+1 {
		t.Fatalf("admitted counter = %d after %d recordings, want %d", got, runs+1, runs+1)
	}
	if got := sh.obs.decisionLatency.Count(); got != runs+1 {
		t.Fatalf("decision latency histogram holds %d observations, want %d", got, runs+1)
	}
}

// TestStatsMatchMetrics drives one pool through every counted shard event —
// admit, lift, degrade, shed on a full queue, deadline drop, reject, and a
// synchronous group commit — and checks that each /stats count equals the
// sum of its /metrics family: both surfaces read one instrument per event.
func TestStatsMatchMetrics(t *testing.T) {
	cfg := detConfig(t.TempDir())
	cfg.Shards = 1
	cfg.QueueDepth = 2
	cfg.WALSync = true
	cfg.DegradeAfter = 20 * time.Millisecond
	cfg.Obs = Observability{Metrics: metrics.NewRegistry()}
	p, srv := httpTestPool(t, cfg)
	sh := p.shards[0]
	ctx := context.Background()

	// Admit and lift: a job without an arrival is lifted onto the shard clock.
	if _, err := p.Submit(ctx, genSpec("lifted", 1)); err != nil {
		t.Fatal(err)
	}
	// Reject: an infinite arrival passes intake validation; the engine
	// refuses it.
	inf := math.Inf(1)
	bad := genSpec("rejected", 2)
	bad.Arrival = &inf
	if _, err := p.Submit(ctx, bad); !errors.Is(err, ErrBadJob) {
		t.Fatalf("infinite arrival: %v, want ErrBadJob", err)
	}
	// Degrade, deadline drop and shed: with the run loop parked, one live job
	// waits past DegradeAfter beside one whose deadline already passed, and
	// the full queue sheds a third.
	release := gateShard(sh)
	wait := enqueueOrdered(t, p, sh, []JobSpec{genSpec("degraded", 3)}, 0, 1)
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.Submit(dead, genSpec("dropped", 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired submit: %v", err)
	}
	if _, err := p.Submit(ctx, genSpec("shed", 5)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit to a full queue: %v, want ErrOverloaded", err)
	}
	time.Sleep(2 * cfg.DegradeAfter)
	release()
	decs, errs := wait()
	if errs[0] != nil || !decs[0].Degraded {
		t.Fatalf("queued job: %+v err=%v, want a degraded decision", decs[0], errs[0])
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, samples := scrapeMetrics(t, srv.URL)
	family := func(name string) uint64 {
		var sum float64
		for series, v := range samples {
			if strings.HasPrefix(series, name+"{") {
				sum += v
			}
		}
		return uint64(sum)
	}
	row := st.Shards[0]
	for _, c := range []struct {
		field  string
		stats  uint64
		family string
	}{
		{"admitted", st.Admitted, "ccfd_jobs_admitted_total"},
		{"shed", st.Shed, "ccfd_jobs_shed_total"},
		{"degraded", st.Degraded, "ccfd_jobs_degraded_total"},
		{"lifted", row.Lifted, "ccfd_jobs_lifted_total"},
		{"deadline_drops", row.DeadlineDrops, "ccfd_jobs_deadline_dropped_total"},
		{"rejected", row.Rejected, "ccfd_jobs_rejected_total"},
		{"batches", st.Batches, "ccfd_batch_size_jobs_count"},
		{"wal_group_commits", row.WALGroupCommits, "ccfd_wal_group_commits_total"},
		{"wal_syncs", st.WALSyncs, "ccfd_wal_syncs_total"},
	} {
		if c.stats == 0 {
			t.Errorf("/stats %s = 0: the event was never driven", c.field)
		}
		if m := family(c.family); c.stats != m {
			t.Errorf("/stats %s = %d, /metrics %s sums to %d", c.field, c.stats, c.family, m)
		}
	}
}

func obsConfig(dir string) Config {
	cfg := detConfig(dir)
	cfg.Obs = Observability{Metrics: metrics.NewRegistry(), TraceDepth: 64}
	return cfg
}

// scrapeMetrics fetches /metrics, checks the content type, validates the
// exposition structurally, and returns the page plus a flat sample map.
func scrapeMetrics(t *testing.T, url string) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	text := string(body)
	if err := metrics.ValidateExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return text, samples
}

// TestMetricsExpositionUnderLoad is the promlint-style validator test: a
// live daemon under concurrent load must serve a structurally valid
// exposition on every scrape, and every counter must be monotone between
// two scrapes taken mid-load.
func TestMetricsExpositionUnderLoad(t *testing.T) {
	cfg := obsConfig(t.TempDir())
	_, srv := httpTestPool(t, cfg)

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				resp, _ := postJob(t, srv.URL, genSpec(fmt.Sprintf("m%d-%d", c, j), uint64(c*100+j)))
				_ = resp
			}
		}(c)
	}
	text1, s1 := scrapeMetrics(t, srv.URL)
	wg.Wait()
	_, s2 := scrapeMetrics(t, srv.URL)

	for _, fam := range []string{
		"# TYPE ccfd_jobs_admitted_total counter",
		"# TYPE ccfd_decision_latency_seconds histogram",
		"# TYPE ccfd_queue_wait_seconds histogram",
		"# TYPE ccfd_wal_append_seconds histogram",
		"# TYPE ccfd_queue_depth gauge",
		"# TYPE ccfd_port_backlog_bytes gauge",
		"# TYPE ccfd_uptime_seconds gauge",
		"# TYPE ccfd_build_info gauge",
		`le="+Inf"`,
	} {
		if !strings.Contains(text1, fam) {
			t.Fatalf("exposition missing %q", fam)
		}
	}

	// Counter monotonicity between the mid-load and post-load scrapes.
	mono := 0
	for name, v1 := range s1 {
		base := name[:strings.IndexAny(name, "{ ")+1]
		if base == "" {
			base = name
		}
		if !strings.Contains(name, "_total") && !strings.Contains(name, "_count") && !strings.Contains(name, "_bucket") {
			continue
		}
		v2, ok := s2[name]
		if !ok {
			t.Fatalf("series %s disappeared between scrapes", name)
		}
		if v2 < v1 {
			t.Fatalf("counter %s went backwards: %g -> %g", name, v1, v2)
		}
		mono++
	}
	if mono == 0 {
		t.Fatal("no counter series compared")
	}

	// The load actually registered.
	var admitted float64
	for name, v := range s2 {
		if strings.HasPrefix(name, "ccfd_jobs_admitted_total") {
			admitted += v
		}
	}
	if admitted != 48 {
		t.Fatalf("admitted counter sum = %g, want 48", admitted)
	}
}

// chromeTrace mirrors the trace-event document shape for validation.
type chromeTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
}

// validateChromeTrace checks the invariant Perfetto relies on: timestamps
// monotone (non-decreasing) within each (pid, tid) track.
func validateChromeTrace(t *testing.T, data []byte) chromeTrace {
	t.Helper()
	var doc chromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace JSON: %v\n%s", err, data)
	}
	last := map[[2]int]float64{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		key := [2]int{ev.Pid, ev.Tid}
		if prev, ok := last[key]; ok && ev.Ts < prev {
			t.Fatalf("event %d (%s): ts %g < %g on track %v", i, ev.Name, ev.Ts, prev, key)
		}
		last[key] = ev.Ts
	}
	return doc
}

func TestTraceEndpoints(t *testing.T) {
	cfg := obsConfig(t.TempDir())
	_, srv := httpTestPool(t, cfg)

	var lastID string
	for i := 0; i < 12; i++ {
		resp, body := postJob(t, srv.URL, genSpec(fmt.Sprintf("tr-%d", i), uint64(i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		lastID = resp.Header.Get("X-Ccfd-Trace-Id")
		if lastID == "" {
			t.Fatal("200 without X-Ccfd-Trace-Id while tracing is on")
		}
	}

	// Raw lookup by correlation ID: the span model is queue→decide→journal→reply.
	resp, err := http.Get(srv.URL + "/v1/trace?job=" + lastID + "&raw=1")
	if err != nil {
		t.Fatal(err)
	}
	var tr JobTrace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tr.ID != lastID || tr.Outcome != "ok" {
		t.Fatalf("trace %+v, want id %s", tr, lastID)
	}
	names := make([]string, 0, len(tr.Spans))
	end := 0.0
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
		// Spans are contiguous by construction; allow a ulp of float noise
		// from start+dur accumulation.
		if sp.Start < end-1e-9 {
			t.Fatalf("span %s starts at %g before previous end %g", sp.Name, sp.Start, end)
		}
		if sp.Dur < 0 {
			t.Fatalf("span %s has negative duration", sp.Name)
		}
		end = sp.Start + sp.Dur
	}
	if got := strings.Join(names, ","); got != "queue,decide,journal,reply" {
		t.Fatalf("span sequence = %s", got)
	}

	// Lookup by job name works too.
	resp, err = http.Get(srv.URL + "/v1/trace?job=tr-7&raw=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	code := resp.StatusCode
	resp.Body.Close()
	if code != http.StatusOK {
		t.Fatalf("trace by name: %d", code)
	}

	// Chrome trace exports, single job and the recent window.
	for _, ep := range []string{"/v1/trace?job=" + lastID, "/v1/trace/recent"} {
		resp, err := http.Get(srv.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s content type %q", ep, ct)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		doc := validateChromeTrace(t, data)
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("%s: empty trace", ep)
		}
	}

	// Unknown jobs 404, missing query 400.
	resp, _ = http.Get(srv.URL + "/v1/trace?job=nope")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/v1/trace")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing query: %d", resp.StatusCode)
	}
}

// TestTraceDisabledIs404 pins the gate: without TraceDepth the endpoints
// refuse, and decisions carry no trace header.
func TestTraceDisabledIs404(t *testing.T) {
	_, srv := httpTestPool(t, detConfig(t.TempDir()))
	resp, body := postJob(t, srv.URL, genSpec("plain", 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Ccfd-Trace-Id"); h != "" {
		t.Fatalf("trace header %q with tracing off", h)
	}
	for _, ep := range []string{"/v1/trace?job=plain", "/v1/trace/recent"} {
		resp, err := http.Get(srv.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with tracing off: %d", ep, resp.StatusCode)
		}
	}
}

// TestKillRestartDeterminismWithObservability extends the crash-safety
// acceptance test: the reference run has observability fully off, the
// kill/restart run has metrics and tracing on. Byte-identical decisions
// prove both restart determinism and that instrumentation perturbs nothing;
// the restored registry's admitted counters must resume from the replayed
// sequence numbers (monotone across the restart, no reset to zero).
func TestKillRestartDeterminismWithObservability(t *testing.T) {
	jobs := detJobs(11, 4)
	const kill = 23

	ref := startPool(t, detConfig(t.TempDir()))
	refDecs := runStream(t, ref, jobs)
	refStates := poolStates(t, ref)
	if err := ref.Drain(context.Background()); err != nil {
		t.Fatalf("reference drain: %v", err)
	}

	dir := t.TempDir()
	cfg1 := obsConfig(dir)
	b1 := startPool(t, cfg1)
	gotDecs := runStream(t, b1, jobs[:kill])
	preKill := registryCounters(t, cfg1.Obs.Metrics, "ccfd_jobs_admitted_total")
	b1.Kill()

	cfg2 := obsConfig(dir) // fresh registry, same state dir
	b2 := startPool(t, cfg2)
	postRestart := registryCounters(t, cfg2.Obs.Metrics, "ccfd_jobs_admitted_total")
	gotDecs = append(gotDecs, runStream(t, b2, jobs[kill:])...)
	gotStates := poolStates(t, b2)

	for i := range refDecs {
		if string(refDecs[i]) != string(gotDecs[i]) {
			t.Fatalf("decision %d diverged with observability on:\nref: %s\ngot: %s",
				i, refDecs[i], gotDecs[i])
		}
	}
	for i := range refStates {
		if refStates[i] != gotStates[i] {
			t.Fatalf("shard %d state diverged: ref %+v got %+v", i, refStates[i], gotStates[i])
		}
	}

	// Counter restore sanity: the restored admitted counters resume at the
	// journaled sequence — never below what was acknowledged before the
	// kill minus the unsnapshotted tail (everything acked was journaled, so
	// in fact never below the pre-kill value at all).
	for shardLbl, pre := range preKill {
		post, ok := postRestart[shardLbl]
		if !ok {
			t.Fatalf("shard %s has no admitted counter after restart", shardLbl)
		}
		if post < pre {
			t.Fatalf("shard %s admitted counter went backwards across restart: %d -> %d",
				shardLbl, pre, post)
		}
	}
	finalStates := gotStates
	final := registryCounters(t, cfg2.Obs.Metrics, "ccfd_jobs_admitted_total")
	var counterTotal, seqTotal uint64
	for _, v := range final {
		counterTotal += v
	}
	for _, st := range finalStates {
		seqTotal += st.Seq
	}
	if counterTotal != seqTotal {
		t.Fatalf("admitted counters sum to %d, shard seqs to %d", counterTotal, seqTotal)
	}
	if err := b2.Drain(context.Background()); err != nil {
		t.Fatalf("restarted drain: %v", err)
	}
}

// registryCounters reads every series of one counter family, keyed by the
// shard label value.
func registryCounters(t *testing.T, r *metrics.Registry, family string) map[string]uint64 {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateExposition(sb.String()); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	out := map[string]uint64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[len(family):sp]] = v
	}
	return out
}

// logCapture is a slog.Handler that keeps every record, at every level.
type logCapture struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (h *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *logCapture) WithGroup(string) slog.Handler            { return h }
func (h *logCapture) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Clone())
	return nil
}

// take returns, and forgets, the records with this level and message, each
// as its attributes by key.
func (h *logCapture) take(level slog.Level, msg string) []map[string]slog.Value {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []map[string]slog.Value
	kept := h.recs[:0]
	for _, r := range h.recs {
		if r.Level != level || r.Message != msg {
			kept = append(kept, r)
			continue
		}
		attrs := map[string]slog.Value{}
		r.Attrs(func(a slog.Attr) bool { attrs[a.Key] = a.Value; return true })
		out = append(out, attrs)
	}
	h.recs = kept
	return out
}

// TestPoolLogsStartAndFenceOnce: the daemon's one logger gets exactly one
// Info record when a pool comes up, carrying the shard count and the jobs
// replayed from disk, and exactly one Error record when a failed WAL sync
// fences a shard.
func TestPoolLogsStartAndFenceOnce(t *testing.T) {
	dir := t.TempDir()
	jobs := detJobs(2, 4)
	first := startPool(t, batchConfig(dir, 8))
	runStream(t, first, jobs[:5])
	if err := first.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	logs := &logCapture{}
	cfg := batchConfig(dir, 8)
	cfg.Obs.Log = slog.New(logs)
	p := startPool(t, cfg)
	up := logs.take(slog.LevelInfo, "shards up")
	if len(up) != 1 {
		t.Fatalf("%d Info %q records at start, want 1", len(up), "shards up")
	}
	if got := up[0]["shards"]; got.Kind() != slog.KindInt64 || got.Int64() != 1 {
		t.Errorf("shards = %v, want 1", got)
	}
	if got := up[0]["restored_jobs"]; got.Kind() != slog.KindUint64 || got.Uint64() != 5 {
		t.Errorf("restored_jobs = %v, want 5", got)
	}

	sh := p.shards[0]
	injected := errors.New("injected fsync failure")
	sh.wal.syncErr = func() error { return injected }
	if _, err := p.Submit(context.Background(), jobs[5]); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("submit after a failed sync: %v, want ErrShardFailed", err)
	}
	fenced := logs.take(slog.LevelError, "shard fenced")
	if len(fenced) != 1 {
		t.Fatalf("%d Error %q records after one failed sync, want 1", len(fenced), "shard fenced")
	}
	if got := fenced[0]["error"].Any(); got == nil || !errors.Is(got.(error), injected) {
		t.Errorf("fence record's error = %v, want the injected one", got)
	}
	if again := logs.take(slog.LevelInfo, "shards up"); len(again) != 0 {
		t.Errorf("%d more %q records after start", len(again), "shards up")
	}
	p.Kill()
}
