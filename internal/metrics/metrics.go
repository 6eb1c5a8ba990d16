// Package metrics is the daemon's instrumentation core: atomic counters,
// gauges and fixed-bucket histograms behind a Registry that renders the
// Prometheus text exposition format (version 0.0.4). It is dependency-free
// by design — the repo vendors nothing. Recording allocates nothing, and
// every instrument is safe to call through a nil pointer (a no-op), so
// disabled instrumentation costs one nil check.
//
// Concurrency: instruments are lock-free (single atomics; histograms use
// one atomic per bucket plus a CAS loop for the float sum) and safe for
// any number of writers. Registration takes the registry lock and is
// expected at startup; scraping takes the same lock only to snapshot the
// family list, then reads instrument values atomically, so a scrape never
// blocks a writer.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is ready to
// use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 through nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero value reads 0; a nil
// *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 through nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: observation counts per upper bound (le), a total count, and a
// running sum. Bounds are set at registration and never change, so
// Observe is a binary search plus two atomic adds. A nil *Histogram is a
// no-op.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	// Drop duplicates and non-finite bounds; +Inf is always implicit.
	w := 0
	for i, x := range b {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if w > 0 && b[w-1] == b[i] {
			continue
		}
		b[w] = x
		w++
	}
	b = b[:w]
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. NaN observations are dropped (a NaN sum would
// poison the series forever).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound is >= v; the +Inf bucket backstops.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations (0 through nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 through nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefBuckets are the default latency buckets (seconds), spanning 100µs to
// ~100s — wide enough for both sub-millisecond decisions and multi-second
// snapshot writes.
var DefBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 100,
}

// Label is one name/value pair. Series within a family are identified by
// their ordered label list; register the same (name, labels) twice and you
// get the same instrument back.
type Label struct {
	Name, Value string
}

// L is shorthand for a label list.
func L(pairs ...string) []Label {
	if len(pairs)%2 != 0 {
		panic("metrics: L needs name/value pairs")
	}
	out := make([]Label, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return out
}

// series is one labeled instrument inside a family.
type series struct {
	labels []Label
	key    string // rendered label string, the identity within the family

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name, help string
	typ        string // "counter", "gauge", "histogram"
	buckets    []float64
	series     []*series
	byKey      map[string]*series
}

// Registry holds metric families and renders them. Construct with
// NewRegistry; a nil *Registry returns nil instruments from every
// constructor, so a component wired to a nil registry is fully disabled
// without a single branch at its call sites.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family fetches or creates the named family, enforcing one type and help
// string per name.
func (r *Registry) family(name, help, typ string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, byKey: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// fetch returns the series for the label set, creating it via mk.
func (f *family) fetch(labels []Label, mk func(*series)) *series {
	key := labelKey(labels)
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...), key: key}
		mk(s)
		f.byKey[key] = s
		f.series = append(f.series, s)
		sort.Slice(f.series, func(a, b int) bool { return f.series[a].key < f.series[b].key })
	}
	return s
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, "counter", nil).fetch(labels, func(s *series) { s.counter = &Counter{} })
	if s.counter == nil {
		panic(fmt.Sprintf("metrics: %s%s is not a counter", name, labelKey(labels)))
	}
	return s.counter
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, "gauge", nil).fetch(labels, func(s *series) { s.gauge = &Gauge{} })
	if s.gauge == nil {
		panic(fmt.Sprintf("metrics: %s%s is not a settable gauge", name, labelKey(labels)))
	}
	return s.gauge
}

// GaugeFunc registers a gauge series whose value is read at scrape time.
// The function must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, "gauge", nil).fetch(labels, func(s *series) { s.gaugeFn = fn })
}

// Histogram registers (or fetches) a histogram series. Buckets are fixed
// by the first registration of the family; nil selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "histogram", buckets)
	s := f.fetch(labels, func(s *series) { s.hist = newHistogram(f.buckets) })
	if s.hist == nil {
		panic(fmt.Sprintf("metrics: %s%s is not a histogram", name, labelKey(labels)))
	}
	return s.hist
}

// snapshot returns the family list under the lock; the families' series
// slices are append-only, so rendering can proceed without it.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.families...)
}

// validName checks the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}
