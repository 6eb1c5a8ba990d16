package service

// HTTP-layer tests: the error→status mapping, and the overload acceptance
// criterion — at roughly 10× queue capacity the daemon sheds with 429s and
// degraded decisions while its health probe stays fast, instead of
// collapsing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccf/internal/workload"
)

func httpTestPool(t *testing.T, cfg Config) (*Pool, *httptest.Server) {
	t.Helper()
	p := startPool(t, cfg)
	srv := httptest.NewServer(NewHandler(p, HTTPConfig{RequestTimeout: 10 * time.Second}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = p.Drain(ctx)
	})
	return p, srv
}

func postJob(t *testing.T, url string, spec JobSpec) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func genSpec(name string, seed uint64) JobSpec {
	return JobSpec{
		Name: name,
		Gen: &workload.Config{
			CustomerTuples: 40,
			OrderTuples:    400,
			PayloadBytes:   1000,
			Zipf:           0.8,
			Seed:           seed,
		},
	}
}

func TestHTTPSubmitAndIntrospection(t *testing.T) {
	cfg := detConfig(t.TempDir())
	_, srv := httpTestPool(t, cfg)

	resp, body := postJob(t, srv.URL, genSpec("first", 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var dec Decision
	if err := json.Unmarshal(body, &dec); err != nil {
		t.Fatalf("decision body: %v", err)
	}
	if dec.Name != "first" || dec.Seq != 1 || len(dec.Placement) == 0 {
		t.Fatalf("decision %+v", dec)
	}

	for _, ep := range []string{"/healthz", "/readyz", "/stats", "/v1/state"} {
		resp, err := http.Get(srv.URL + ep)
		if err != nil {
			t.Fatalf("%s: %v", ep, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", ep, resp.StatusCode)
		}
	}

	resp, err := http.Post(srv.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}

	// Stats reflect the admission.
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Admitted != 1 {
		t.Fatalf("stats admitted = %d, want 1", st.Admitted)
	}
}

// badGenConfigs are generator configs intake refuses (JobSpec.validate);
// journal replay still accepts all but the first, which no daemon survived.
var badGenConfigs = []workload.Config{
	{Partitions: 4_000_000_000_000_000_000},
	{CustomerTuples: -5, OrderTuples: -5},
	{JitterFrac: 5},
	{PayloadBytes: 9_000_000_000_000},
}

func TestHTTPBadJobIs400(t *testing.T) {
	p, srv := httpTestPool(t, detConfig(t.TempDir()))
	cases := []JobSpec{
		{},                                  // no name, no data
		{Name: "x"},                         // neither gen nor chunks
		{Name: "x", Chunks: [][]int64{{1}}}, // wrong row count
		{Name: "x", Placer: "nope", Gen: &workload.Config{}}, // unknown placer
	}
	// Generator configs that must be refused before they reach a shard: the
	// first asks makeslice for 4e18 × nodes cells (a panic on the shard
	// goroutine ends the process), the rest generate nonsense that would be
	// acknowledged and journaled.
	for _, gen := range badGenConfigs {
		cases = append(cases, JobSpec{Name: "x", Gen: &gen})
	}
	for i, spec := range cases {
		resp, body := postJob(t, srv.URL, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after bad jobs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after bad jobs: %d", resp.StatusCode)
	}
	if st := p.Stats(); st.Admitted != 0 {
		t.Fatalf("%d bad jobs admitted", st.Admitted)
	}
	// Malformed JSON body.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}
}

// TestHTTPStrictJobBody pins the intake decoder: an unknown field (here a
// misspelt handle_skew, which would otherwise be decided and journaled
// without partial duplication) and anything after the first JSON value are
// 400 ErrBadJob, while trailing whitespace is not.
func TestHTTPStrictJobBody(t *testing.T) {
	p, srv := httpTestPool(t, detConfig(t.TempDir()))
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, body := range []string{
		`{"name":"a","handleSkew":true,"gen":{"Zipf":0.5,"Skew":0.2}}`,
		`{"name":"b","gen":{"Zipf":0.5,"Bogus":1}}`,
		`{"name":"c","gen":{"Zipf":0.5}}{"name":"d","gen":{"Zipf":0.5}}`,
		`{"name":"e","gen":{"Zipf":0.5}} x`,
	} {
		code, msg := post(body)
		if code != http.StatusBadRequest || !strings.Contains(msg, ErrBadJob.Error()) {
			t.Errorf("%s: %d %s, want 400 %q", body, code, msg, ErrBadJob)
		}
	}
	if st := p.Stats(); st.Admitted != 0 {
		t.Fatalf("%d refused bodies admitted", st.Admitted)
	}
	if code, msg := post("{\"name\":\"ok\",\"handle_skew\":true,\"gen\":{\"Zipf\":0.5}}\n\t "); code != http.StatusOK {
		t.Fatalf("valid body with trailing whitespace: %d %s", code, msg)
	}
}

// TestHTTPOverloadShedsAndStaysResponsive is the 10×-load acceptance test:
// a single shard with a tiny queue is slammed by ~10× more concurrent
// clients than it has capacity; the daemon must (a) answer every request —
// 200, 429 with a Retry-After hint, or a clean timeout — with zero dropped
// connections, (b) actually shed (429s observed), (c) degrade rather than
// stall (degraded decisions observed), and (d) keep /healthz p99 under
// 100ms throughout.
func TestHTTPOverloadShedsAndStaysResponsive(t *testing.T) {
	cfg := Config{
		Shards:     1,
		Nodes:      4,
		QueueDepth: 1,
		// Below the typical per-decision service time, so any request that
		// actually waited behind another lands on the degraded path.
		DegradeAfter: 100 * time.Microsecond,
		RetryAfter:   10 * time.Millisecond,
		Engine:       EngineConfig{CoOptimize: true},
		// No Dir: persistence off keeps the hot loop on the engine, which is
		// what this test is stressing.
	}
	p, srv := httpTestPool(t, cfg)

	// >10× the shard's capacity (queue depth 1), while keeping the number of
	// runnable goroutines small enough that client-side scheduling noise on
	// a single-CPU runner cannot pollute the health-probe percentiles.
	const clients = 16
	const perClient = 25
	var ok200, shed429, other atomic.Uint64
	var wg sync.WaitGroup
	var shedMu sync.Mutex
	var shedBodies [][]byte // the specs that got a 429, resubmitted below

	// The health prober gets its own connection (like a real orchestrator's
	// kubelet would): it must not queue behind the load clients' connection
	// pool, because the claim under test is server responsiveness.
	healthClient := &http.Client{Transport: &http.Transport{}}
	loadClient := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}

	stopHealth := make(chan struct{})
	healthLat := make(chan []float64, 1)
	go func() {
		var lats []float64
		for {
			select {
			case <-stopHealth:
				healthLat <- lats
				return
			default:
			}
			begin := time.Now()
			resp, err := healthClient.Get(srv.URL + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			lats = append(lats, time.Since(begin).Seconds())
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				spec := genSpec(fmt.Sprintf("c%d-j%d", c, j), uint64(c*1000+j))
				// Heavy placement (many partitions) so each decision costs
				// around a millisecond — the queue must actually back up.
				spec.Gen.Partitions = 2048
				b, _ := json.Marshal(spec)
				resp, err := loadClient.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
				if err != nil {
					other.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("429 without Retry-After")
					}
					var eb errorBody
					if err := json.Unmarshal(body, &eb); err != nil || eb.RetryAfterMs <= 0 {
						t.Errorf("429 body %q", body)
					}
					shed429.Add(1)
					shedMu.Lock()
					shedBodies = append(shedBodies, b)
					shedMu.Unlock()
				default:
					other.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopHealth)
	lats := <-healthLat

	total := ok200.Load() + shed429.Load() + other.Load()
	if total != clients*perClient {
		t.Fatalf("dropped requests: %d answered of %d", total, clients*perClient)
	}
	if ok200.Load() == 0 {
		t.Fatal("no successful decisions under load")
	}
	if shed429.Load() == 0 {
		t.Fatal("10x load produced no shedding")
	}
	st := p.Stats()
	if st.Shed == 0 {
		t.Fatalf("stats report no shed: %+v", st)
	}
	if st.Degraded == 0 {
		t.Fatalf("no degraded decisions under sustained queue pressure: %+v", st)
	}

	if len(lats) == 0 {
		t.Fatal("no health samples collected")
	}
	sort.Float64s(lats)
	p99 := lats[(len(lats)*99)/100]
	if p99 >= 0.100 {
		t.Fatalf("healthz p99 = %.1fms under overload, want < 100ms", p99*1e3)
	}

	// Shedding is backpressure, not refusal: once the load is gone, every
	// shed job resubmitted as is gets admitted.
	for _, b := range shedBodies {
		resp, err := loadClient.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resubmitted shed job: %d %s", resp.StatusCode, body)
		}
	}
	t.Logf("overload: 200=%d 429=%d other=%d degraded=%d healthz p99=%.2fms",
		ok200.Load(), shed429.Load(), other.Load(), st.Degraded, p99*1e3)
}

// TestHTTPDrainingIs503 pins the lifecycle mapping: once Drain begins, new
// submissions get a clean 503 (ErrDraining) and readiness drops, while
// liveness stays 200 — the orchestrator should stop routing, not restart.
func TestHTTPDrainingIs503(t *testing.T) {
	p := startPool(t, detConfig(t.TempDir()))
	srv := httptest.NewServer(NewHandler(p, HTTPConfig{}))
	defer srv.Close()

	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body := postJob(t, srv.URL, genSpec("late", 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
}
