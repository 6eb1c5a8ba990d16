package main

// The three serve_* workloads: the ccfd path (internal/service behind its
// real HTTP handler on loopback) driven closed-loop, one client with one
// request in flight per shard, explicit increasing arrivals — so intake
// order, decisions and digests are the same on every run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"ccf/internal/core"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/service"
	"ccf/internal/stats"
	"ccf/internal/workload"
)

// serveConfig sizes one serve_* workload.
type serveConfig struct {
	name         string
	nodes        int
	shards       int
	jobsPerShard int
	// backlog selects generated, skewed jobs arriving as a Poisson stream;
	// otherwise jobs are explicit chunk matrices arriving on an idle network.
	backlog    bool
	partitions int
	// load is the offered load in units of the bottleneck port's capacity
	// for isolated jobs. The fabric serves coflows whose bottlenecks differ
	// concurrently, so it sustains more than 1: at 1.4 the backlog hovers
	// around a dozen coflows (tens of thousands of live flows) for the whole
	// round instead of draining or running away.
	load float64
	// restarts is how many consecutive kill → ready cycles on the round's
	// journal make up setup_s; one restart of a short journal is under a
	// tenth of a second, too little to time on a shared box.
	restarts int
}

// Op counts are sized for the 2-core box: eight rounds in about run_seconds.
func serveEdge() serveConfig {
	return serveConfig{name: "serve_edge", nodes: 8, shards: 2, jobsPerShard: 750, restarts: 5}
}

func serveLongrun() serveConfig {
	return serveConfig{name: "serve_longrun", nodes: 8, shards: 1, jobsPerShard: 2000, restarts: 1}
}

func serveBacklog() serveConfig {
	return serveConfig{name: "serve_backlog", nodes: 64, shards: 2, jobsPerShard: 300,
		backlog: true, partitions: 960, load: 1.4, restarts: 1}
}

type serveWorkload struct {
	cfg      serveConfig
	stateDir string
	specs    [][]service.JobSpec // [shard][job]
	bodies   [][][]byte          // the same jobs as request bodies
	// The reference pass (ladder depth L2) fills these.
	want       [][][]int // expected placement per job
	wantDigest []uint64  // expected engine digest per shard
	simCCT     float64
	l2         []walkTimes // per shard
	roundNo    int
}

func newServe(cfg serveConfig, stateDir string) *serveWorkload {
	return &serveWorkload{cfg: cfg, stateDir: stateDir}
}

func (w *serveWorkload) tracks() []string {
	var out []string
	for s := 0; s < w.cfg.shards; s++ {
		out = append(out, fmt.Sprintf("client-%d", s), fmt.Sprintf("shard-%d", s), fmt.Sprintf("walk-%d", s))
	}
	return out
}

// routeKey finds a key the daemon's FNV-1a routing sends to shard s, so each
// client talks to exactly one shard.
func routeKey(s, shards int) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("k%d", i)
		h := fnv.New32a()
		h.Write([]byte(k))
		if int(h.Sum32())%shards == s {
			return k
		}
	}
}

// prepare generates the job stream and runs it once through bare
// core.OnlineEngines — the reference every deeper rung must reproduce.
func (w *serveWorkload) prepare(seed uint64) error {
	c := w.cfg
	w.specs = make([][]service.JobSpec, c.shards)
	w.bodies = make([][][]byte, c.shards)
	for s := 0; s < c.shards; s++ {
		rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(s)))
		key := routeKey(s, c.shards)
		if c.backlog {
			gap, err := w.meanGap()
			if err != nil {
				return err
			}
			w.specs[s] = backlogJobs(c, s, key, rng, gap)
		} else {
			w.specs[s] = edgeJobs(c, s, key, rng)
		}
		for i := range w.specs[s] {
			b, err := json.Marshal(&w.specs[s][i])
			if err != nil {
				return err
			}
			w.bodies[s] = append(w.bodies[s], b)
		}
	}
	return w.reference()
}

// edgeJobs are explicit nodes×nodes chunk matrices 1000 simulated seconds
// apart: every job finds the network idle, so engine work per job is minimal.
func edgeJobs(c serveConfig, s int, key string, rng *rand.Rand) []service.JobSpec {
	jobs := make([]service.JobSpec, c.jobsPerShard)
	for i := range jobs {
		chunks := make([][]int64, c.nodes)
		for r := range chunks {
			chunks[r] = make([]int64, c.nodes)
			for k := range chunks[r] {
				chunks[r][k] = 1e6 + rng.Int63n(64e6)
			}
		}
		arrival := float64(i+1) * 1000
		jobs[i] = service.JobSpec{Key: key, Name: fmt.Sprintf("s%d-j%05d", s, i), Arrival: &arrival, Chunks: chunks}
	}
	return jobs
}

// backlogBaseCustomers is the median CUSTOMER size of a backlog job; ORDERS is
// ten times that, as in TPC-H.
const backlogBaseCustomers = 20_000

func backlogGen(c serveConfig, customers int64, seed uint64) *workload.Config {
	return &workload.Config{
		Nodes: c.nodes, Partitions: c.partitions,
		CustomerTuples: customers, OrderTuples: 10 * customers, PayloadBytes: 1000,
		Zipf: workload.DefaultZipf, Skew: workload.DefaultSkew, Seed: seed, JitterFrac: 0.05,
	}
}

// meanGap derives the Poisson mean inter-arrival for the configured load from
// the isolated completion time of the median job, scaled to the mean of the
// lognormal (σ = 1) size distribution.
func (w *serveWorkload) meanGap() (float64, error) {
	c := w.cfg
	probe, err := materialise(&service.JobSpec{
		Name: "probe", Arrival: new(float64), HandleSkew: true,
		Gen: backlogGen(c, backlogBaseCustomers, backlogInstance),
	}, c.nodes)
	if err != nil {
		return 0, err
	}
	rep, err := core.RunOnline([]core.OnlineJob{probe}, core.OnlineOptions{CoOptimize: true})
	if err != nil {
		return 0, err
	}
	return rep.AvgCCT * math.Exp(0.5) / c.load, nil
}

// backlogInstance seeds the one fixed instance of the backlog stream: its
// lognormal sizes and Poisson gaps. Queueing under heavy-tailed sizes is far
// too seed-sensitive to redraw per run (completion times and live-coflow
// counts move by tens of percent), so the run's seed only perturbs the
// instance: every job gets its own generator seed (chunk-level jitter) and a
// size jitter of up to ±0.1 %.
const backlogInstance = 7

func backlogJobs(c serveConfig, s int, key string, rng *rand.Rand, gap float64) []service.JobSpec {
	instance := rand.New(rand.NewSource(backlogInstance*1000 + int64(s)))
	jobs := make([]service.JobSpec, c.jobsPerShard)
	now := 0.0
	for i := range jobs {
		now += instance.ExpFloat64() * gap
		arrival := now
		customers := backlogBaseCustomers * math.Exp(instance.NormFloat64()) * (1 + 0.001*(2*rng.Float64()-1))
		jobs[i] = service.JobSpec{
			Key: key, Name: fmt.Sprintf("s%d-j%05d", s, i), Arrival: &arrival, HandleSkew: true,
			Gen: backlogGen(c, max(int64(customers), 100), rng.Uint64()),
		}
	}
	return jobs
}

// materialise expands a job spec the way the daemon's shard does (the
// daemon's own function is unexported; equality of every decision with the
// daemon's is what checks this copy).
func materialise(spec *service.JobSpec, nodes int) (core.OnlineJob, error) {
	var wl *workload.Workload
	if spec.Gen != nil {
		var err error
		if wl, err = workload.Generate(*spec.Gen); err != nil {
			return core.OnlineJob{}, err
		}
	} else {
		m, err := partition.NewChunkMatrix(nodes, len(spec.Chunks[0]))
		if err != nil {
			return core.OnlineJob{}, err
		}
		for i, row := range spec.Chunks {
			copy(m.Row(i), row)
		}
		wl = &workload.Workload{Chunks: m, SkewPartition: -1}
	}
	return core.OnlineJob{
		Name: spec.Name, Arrival: *spec.Arrival, Workload: wl,
		Scheduler: placement.CCF{}, HandleSkew: spec.HandleSkew,
	}, nil
}

// walkTimes is the per-op timing of one shard's stream at ladder depth L2.
type walkTimes struct {
	generate, submit time.Duration
}

// reference is ladder depth L2: each shard's stream through one bare
// core.OnlineEngine, jobs materialised just before Submit (holding every
// chunk matrix at once would dwarf the daemon's own footprint). It yields the
// expected placements, the expected engine digests and sim_avg_cct_s.
func (w *serveWorkload) reference() error {
	c := w.cfg
	w.want = make([][][]int, c.shards)
	w.wantDigest = make([]uint64, c.shards)
	w.l2 = make([]walkTimes, c.shards)
	cctSum := make([]float64, c.shards)
	errs := make([]error, c.shards)
	var wg sync.WaitGroup
	for s := 0; s < c.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = func() error {
				eng, err := core.NewOnlineEngine(c.nodes, core.OnlineOptions{CoOptimize: true})
				if err != nil {
					return err
				}
				lt := &w.l2[s]
				for i := range w.specs[s] {
					t0 := time.Now()
					job, err := materialise(&w.specs[s][i], c.nodes)
					if err != nil {
						return err
					}
					t1 := time.Now()
					dec, err := eng.Submit(job)
					if err != nil {
						return err
					}
					lt.generate += t1.Sub(t0)
					lt.submit += time.Since(t1)
					w.want[s] = append(w.want[s], dec.Placement.Dest)
				}
				w.wantDigest[s] = eng.StateDigest()
				rep, err := eng.Finish()
				if err != nil {
					return err
				}
				cctSum[s] = rep.AvgCCT * float64(len(rep.CCTs))
				return nil
			}()
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	total := 0.0
	for _, v := range cctSum {
		total += v
	}
	w.simCCT = total / float64(c.shards*c.jobsPerShard)
	return nil
}

// daemon is one in-process ccfd: a pool behind the real handler on loopback.
type daemon struct {
	pool   *service.Pool
	srv    *httptest.Server
	client *http.Client
	birth  time.Time
}

// poolConfig is ccfd's flag defaults, except that degradation is off so every
// decision is co-optimized and repeats exactly.
func (w *serveWorkload) poolConfig(dir string, traced bool) service.Config {
	cfg := service.Config{
		Shards: w.cfg.shards, Nodes: w.cfg.nodes, Dir: dir, DegradeAfter: -1,
		Engine: service.EngineConfig{CoOptimize: true, NetworkScheduler: "varys"},
	}
	if traced {
		cfg.Obs = service.Observability{TraceDepth: w.cfg.jobsPerShard}
	}
	return cfg
}

// startDaemon is the daemon's time to ready: restore from the state
// directory, serve, and answer /readyz with 200.
func startDaemon(cfg service.Config) (*daemon, error) {
	d := &daemon{birth: time.Now()}
	pool, err := service.NewPool(cfg)
	if err != nil {
		return nil, err
	}
	if err := pool.Start(context.Background()); err != nil {
		return nil, err
	}
	d.pool = pool
	d.srv = httptest.NewServer(service.NewHandler(pool, service.HTTPConfig{}))
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.Shards}}
	for {
		resp, err := d.client.Get(d.srv.URL + "/readyz")
		if err != nil {
			d.kill()
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// kill is the crash: no drain, no final snapshot; recovery must come from the
// journal.
func (d *daemon) kill() {
	d.client.CloseIdleConnections()
	d.srv.Close()
	d.pool.Kill()
}

// drive is one closed-loop client: shard s's jobs, one request in flight.
// Replies are kept raw and checked after the clock stops.
func (w *serveWorkload) drive(d *daemon, s int, tk *track) (lat []float64, replies [][]byte) {
	lat = make([]float64, 0, len(w.bodies[s]))
	replies = make([][]byte, 0, len(w.bodies[s]))
	url := d.srv.URL + "/v1/jobs"
	var buf bytes.Buffer
	for i, body := range w.bodies[s] {
		t0 := time.Now()
		resp, err := d.client.Post(url, "application/json", bytes.NewReader(body))
		ok := false
		if err == nil {
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			ok = err == nil && resp.StatusCode == http.StatusOK
		}
		el := time.Since(t0)
		lat = append(lat, el.Seconds())
		if ok {
			replies = append(replies, bytes.Clone(buf.Bytes()))
		} else {
			replies = append(replies, nil)
		}
		if tk != nil {
			tk.span("http.roundtrip", "", w.specs[s][i].Name, t0, el)
		}
	}
	return lat, replies
}

// verify checks shard s's replies against the reference and folds them into
// the digest; it returns how many ops failed.
func (w *serveWorkload) verify(s int, replies [][]byte, dg *resultDigest) int {
	failed := 0
	for i, raw := range replies {
		dg.bytes(raw)
		var dec service.Decision
		if raw == nil || json.Unmarshal(raw, &dec) != nil ||
			dec.Shard != s || dec.Seq != uint64(i+1) || dec.Degraded || dec.Lifted ||
			!slices.Equal(dec.Placement, w.want[s][i]) {
			failed++
		}
	}
	return failed
}

func (w *serveWorkload) round(tr *tracer) (*roundResult, error) {
	c := w.cfg
	dir := filepath.Join(w.stateDir, fmt.Sprintf("%s-round-%d", c.name, w.roundNo))
	w.roundNo++
	defer os.RemoveAll(dir)
	cfg := w.poolConfig(dir, tr != nil)
	d, err := startDaemon(cfg)
	if err != nil {
		return nil, err
	}

	res := &roundResult{clients: make([][]float64, c.shards), simCCT: w.simCCT, extra: map[string]float64{}}
	replies := make([][][]byte, c.shards)
	var wg sync.WaitGroup
	begin := time.Now()
	for s := 0; s < c.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var tk *track
			if tr != nil {
				tk = tr.tracks[3*s]
			}
			res.clients[s], replies[s] = w.drive(d, s, tk)
		}(s)
	}
	wg.Wait()
	res.wallS = time.Since(begin).Seconds()

	ctx := context.Background()
	if tr != nil {
		if err := w.collectTraced(ctx, d, dir, tr, res); err != nil {
			d.kill()
			return nil, err
		}
	}
	pre, err := d.pool.State(ctx)
	st := d.pool.Stats()
	d.kill()
	if err != nil {
		return nil, err
	}
	res.extra["batch_mean_jobs"] = float64(st.Admitted) / math.Max(1, float64(st.Batches))
	res.extra["shed"] = float64(st.Shed)
	res.extra["degraded"] = float64(st.Degraded)

	// Set-up is the restart: everything journaled above is restored before
	// /readyz turns 200, and what was restored is what was killed.
	for i := 0; i < c.restarts; i++ {
		t0 := time.Now()
		d2, err := startDaemon(cfg)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		res.setupS += time.Since(t0).Seconds()
		post, err := d2.pool.State(ctx)
		d2.kill()
		if err != nil {
			return nil, err
		}
		for s := range post {
			if post[s].Seq != pre[s].Seq || post[s].Digest != pre[s].Digest {
				return nil, fmt.Errorf("shard %d: restored seq=%d digest=%016x, pre-kill seq=%d digest=%016x",
					s, post[s].Seq, post[s].Digest, pre[s].Seq, pre[s].Digest)
			}
		}
	}

	dg := newResultDigest()
	for s := 0; s < c.shards; s++ {
		res.failed += w.verify(s, replies[s], dg)
		dg.u64(pre[s].Seq)
		dg.u64(pre[s].Digest)
		dg.f64(pre[s].Clock)
		if pre[s].Digest != w.wantDigest[s] || pre[s].Seq != uint64(c.jobsPerShard) {
			return nil, fmt.Errorf("shard %d: state seq=%d digest=%016x, reference seq=%d digest=%016x",
				s, pre[s].Seq, pre[s].Digest, c.jobsPerShard, w.wantDigest[s])
		}
	}
	if st.Shed != 0 || st.Degraded != 0 {
		return nil, fmt.Errorf("daemon shed %d and degraded %d jobs; both must be 0", st.Shed, st.Degraded)
	}
	res.digest = dg.sum()
	return res, nil
}

// collectTraced gathers what only a traced round records: the daemon's four
// per-job spans, the cost of a forced snapshot and the journal's size.
func (w *serveWorkload) collectTraced(ctx context.Context, d *daemon, dir string, tr *tracer, res *roundResult) error {
	byName := map[string][]float64{}
	for _, jt := range d.pool.RecentTraces() {
		tk := tr.tracks[3*jt.Shard+1]
		for _, sp := range jt.Spans {
			start := d.birth.Add(time.Duration(sp.Start * float64(time.Second)))
			tk.span("service."+sp.Name, "http.roundtrip", jt.Name, start, time.Duration(sp.Dur*float64(time.Second)))
			byName[sp.Name] = append(byName[sp.Name], sp.Dur*1e6)
		}
	}
	for _, name := range []string{"queue", "decide", "journal", "reply"} {
		res.extra[name+"_us_p50"] = stats.Percentile(byName[name], 50)
	}
	t0 := time.Now()
	if err := d.pool.SnapshotAll(ctx); err != nil {
		return err
	}
	res.extra["snapshot_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	var size int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			size += info.Size()
		}
	}
	res.extra["state_bytes_per_job"] = float64(size) / float64(w.cfg.shards*w.cfg.jobsPerShard)
	return nil
}
