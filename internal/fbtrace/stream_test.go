package fbtrace

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestStreamMatchesGenerate pins the streaming contract: at density 1 the
// stream yields the exact coflow sequence Generate builds — same arrivals,
// names, flow endpoints and sizes, bit for bit — across seeds and shapes.
func TestStreamMatchesGenerate(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		cfg := Config{
			Machines:            4 + int(seed%13),
			Coflows:             30 + int(seed*7),
			MeanInterarrivalSec: 0.25 + float64(seed)*0.5,
			Seed:                seed,
		}
		want, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Density = 1
		st, err := Stream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Total() != len(want) {
			t.Fatalf("seed %d: Total() = %d, want %d", seed, st.Total(), len(want))
		}
		for i, w := range want {
			if got := st.Remaining(); got != len(want)-i {
				t.Fatalf("seed %d: Remaining() = %d at %d, want %d", seed, got, i, len(want)-i)
			}
			c, ok := st.Next()
			if !ok {
				t.Fatalf("seed %d: stream exhausted at %d of %d", seed, i, len(want))
			}
			if c.ID != w.ID || c.Name != w.Name || c.Arrival != w.Arrival || len(c.Flows) != len(w.Flows) {
				t.Fatalf("seed %d: coflow %d mismatch: (%d,%q,%v,%d) != (%d,%q,%v,%d)",
					seed, i, c.ID, c.Name, c.Arrival, len(c.Flows), w.ID, w.Name, w.Arrival, len(w.Flows))
			}
			for j := range w.Flows {
				gf, wf := c.Flows[j], w.Flows[j]
				if gf.ID != wf.ID || gf.Src != wf.Src || gf.Dst != wf.Dst || gf.Size != wf.Size {
					t.Fatalf("seed %d: coflow %d flow %d: (%d,%d→%d,%g) != (%d,%d→%d,%g)",
						seed, i, j, gf.ID, gf.Src, gf.Dst, gf.Size, wf.ID, wf.Src, wf.Dst, wf.Size)
				}
			}
		}
		if c, ok := st.Next(); ok {
			t.Fatalf("seed %d: stream over-produced coflow %d", seed, c.ID)
		}
		if _, ok := st.Next(); ok {
			t.Fatalf("seed %d: exhausted stream yielded again", seed)
		}
	}
}

// TestStreamDensity pins the scaling semantics: Density d yields
// round(Coflows·d) coflows with interarrivals compressed by d, preserving
// strict arrival ordering and the per-coflow validity invariants.
func TestStreamDensity(t *testing.T) {
	base := Config{Machines: 10, Coflows: 40, MeanInterarrivalSec: 1, Seed: 3}
	for _, density := range []float64{0.5, 1, 10, 100} {
		cfg := base
		cfg.Density = density
		st, err := Stream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := int(math.Round(40 * density))
		if st.Total() != want {
			t.Fatalf("density %g: Total() = %d, want %d", density, st.Total(), want)
		}
		prev := -1.0
		n := 0
		var last float64
		for {
			c, ok := st.Next()
			if !ok {
				break
			}
			n++
			if c.Arrival <= prev {
				t.Fatalf("density %g: arrivals not strictly increasing", density)
			}
			prev = c.Arrival
			last = c.Arrival
			if len(c.Flows) == 0 {
				t.Fatalf("density %g: empty coflow", density)
			}
		}
		if n != want {
			t.Fatalf("density %g: yielded %d coflows, want %d", density, n, want)
		}
		// Higher density ⟹ arrivals compress: the span per coflow shrinks
		// like 1/d in expectation. Just sanity-check the ×100 case is far
		// denser than ×1 would be.
		if density == 100 && last/float64(n) > base.MeanInterarrivalSec {
			t.Errorf("density 100: mean spacing %g did not compress", last/float64(n))
		}
	}
}

func TestStreamValidation(t *testing.T) {
	good := Config{Machines: 4, Coflows: 10}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"one machine", func(c *Config) { c.Machines = 1 }},
		{"zero coflows", func(c *Config) { c.Coflows = 0 }},
		{"negative density", func(c *Config) { c.Density = -1 }},
		{"NaN density", func(c *Config) { c.Density = math.NaN() }},
		{"infinite density", func(c *Config) { c.Density = math.Inf(1) }},
		{"density thins to zero", func(c *Config) { c.Density = 1e-9 }},
		{"bad mix", func(c *Config) { c.Mix = Mix{SN: 0.9, LN: 0.9} }},
		{"NaN interarrival", func(c *Config) { c.MeanInterarrivalSec = math.NaN() }},
		{"infinite interarrival", func(c *Config) { c.MeanInterarrivalSec = math.Inf(1) }},
		{"negative infinite interarrival", func(c *Config) { c.MeanInterarrivalSec = math.Inf(-1) }},
		{"negative interarrival", func(c *Config) { c.MeanInterarrivalSec = -0.5 }},
		{"interarrival overflows at density", func(c *Config) { c.MeanInterarrivalSec, c.Density = math.MaxFloat64, 0.5 }},
	} {
		cfg := good
		tc.mutate(&cfg)
		if _, err := Stream(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate accepted", tc.name)
		}
	}
	if _, err := Stream(good); err != nil {
		t.Errorf("baseline rejected: %v", err)
	}
}

// TestStreamExhaustion drains streams shorter than, equal to and longer than
// a producer batch, then checks that Next keeps returning (nil, false) and
// never blocks once the stream is dry.
func TestStreamExhaustion(t *testing.T) {
	for _, n := range []int{1, aheadBatch - 1, aheadBatch, 2*aheadBatch + 1, 5 * aheadBatch} {
		st, err := Stream(Config{Machines: 6, Coflows: n, Seed: uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan int)
		go func() {
			got := 0
			for {
				if _, ok := st.Next(); !ok {
					break
				}
				got++
			}
			for range 3 {
				if c, ok := st.Next(); ok || c != nil {
					got = -1
				}
			}
			done <- got
		}()
		select {
		case got := <-done:
			if got != n {
				t.Errorf("%d coflows: drained %d, or Next yielded after exhaustion (-1)", n, got)
			}
			if r := st.Remaining(); r != 0 {
				t.Errorf("%d coflows: Remaining() = %d after exhaustion", n, r)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d coflows: Next blocked", n)
		}
	}
}

// TestStreamAbandonedLeaksNoGoroutine drops Streamers half-drained, at every
// point of a batch, and unstarted: their producers must finish and exit on
// their own, returning the goroutine count to its baseline.
func TestStreamAbandonedLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for taken := 0; taken <= 2*aheadBatch+1; taken++ {
		st, err := Stream(Config{Machines: 8, Coflows: 1000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for range taken {
			if _, ok := st.Next(); !ok {
				t.Fatal("stream exhausted early")
			}
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after dropping the streams, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
