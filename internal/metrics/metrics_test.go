package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(7)
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments returned non-zero values")
	}
	var r *Registry
	if r.Counter("x", "h") != nil || r.Gauge("x", "h") != nil || r.Histogram("x", "h", nil) != nil {
		t.Fatal("nil registry returned live instruments")
	}
	r.GaugeFunc("x", "h", func() float64 { return 1 })
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledPathZeroAllocs pins the overhead contract: instrumentation
// calls through nil pointers must not allocate — the service layer relies
// on this to keep its warm loop at the same allocation count whether
// observability is wired or not.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		h.Observe(0.25)
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledHotPathZeroAllocs pins that live instruments are also
// allocation-free per operation (registration may allocate; recording may
// not).
func TestEnabledHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	g := r.Gauge("depth", "depth")
	h := r.Histogram("lat_seconds", "latency", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2)
		h.Observe(0.003)
	})
	if allocs != 0 {
		t.Fatalf("enabled instrumentation allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs", L("shard", "0")...)
	c.Add(41)
	c.Inc()
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	// Same name+labels returns the same instrument.
	if c2 := r.Counter("jobs_total", "jobs", L("shard", "0")...); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("queue_depth", "depth")
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 {
		t.Fatalf("gauge = %g, want 3", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5 (NaN dropped)", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+2+100; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	text := render(t, r)
	for _, want := range []string{
		`lat_bucket{le="0.1"} 2`, // 0.05 and 0.1 (le is inclusive)
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("ccfd_jobs_admitted_total", "Jobs admitted.", L("shard", "0")...).Add(3)
	r.Counter("ccfd_jobs_admitted_total", "Jobs admitted.", L("shard", "1")...).Add(5)
	r.Gauge("ccfd_queue_depth", "Queue depth.", L("shard", "0")...).Set(2)
	r.GaugeFunc("ccfd_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	r.Histogram("ccfd_decision_latency_seconds", "Latency.", []float64{0.001, 0.01}, L("shard", "0")...).Observe(0.002)
	r.Gauge("weird_value", "Escaping.", Label{Name: "path", Value: "a\"b\\c\nd"}).Set(1)

	text := render(t, r)
	if err := ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"# HELP ccfd_jobs_admitted_total Jobs admitted.",
		"# TYPE ccfd_jobs_admitted_total counter",
		`ccfd_jobs_admitted_total{shard="0"} 3`,
		`ccfd_jobs_admitted_total{shard="1"} 5`,
		"# TYPE ccfd_decision_latency_seconds histogram",
		`ccfd_decision_latency_seconds_bucket{shard="0",le="+Inf"} 1`,
		`ccfd_decision_latency_seconds_count{shard="0"} 1`,
		"ccfd_uptime_seconds 12.5",
		`weird_value{path="a\"b\\c\nd"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	NewRegistry().Counter("bad name!", "nope")
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "h")
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "n")
	h := r.Histogram("v", "v", []float64{1, 2, 4})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 5))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if got, want := h.Sum(), float64(workers)*per/5*(0+1+2+3+4); math.Abs(got-want) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
}

// TestExpositionConsistentUnderObserve scrapes while observers run: every
// page must validate, in particular _count must equal the le="+Inf" bucket
// on the same page. Printing h.Count() there (a second atomic, loaded after
// the buckets) failed this within a few hundred scrapes.
func TestExpositionConsistentUnderObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("v", "v", []float64{1, 2, 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(float64(i % 5))
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		if err := ValidateExposition(render(t, r)); err != nil {
			t.Errorf("scrape %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestValidateExpositionRejectsDamage exercises the validator the service
// tests reuse.
func TestValidateExpositionRejectsDamage(t *testing.T) {
	bad := []string{
		"no_type_line 1\n",
		"# TYPE h histogram\n# HELP h h\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n", // non-cumulative
		"# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",                          // no +Inf
	}
	for i, text := range bad {
		if err := ValidateExposition(text); err == nil {
			t.Fatalf("case %d: damaged exposition validated:\n%s", i, text)
		}
	}
}

// BenchmarkObserve keeps an eye on the hot-path cost of one histogram
// observation (a binary search over ~18 bounds plus three atomics).
func BenchmarkObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("lat", "l", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 1e-4)
	}
}
