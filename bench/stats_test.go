package main

import (
	"math"
	"testing"
)

func TestSecondBest(t *testing.T) {
	eight := []float64{5, 3, 9, 4, 8, 7, 6, 10}
	cases := []struct {
		name    string
		rounds  []float64
		lower   bool
		want    float64
		wantErr bool
	}{
		{"eight rounds, lower is better: second-lowest", eight, true, 4, false},
		{"eight rounds, higher is better: second-highest", eight, false, 9, false},
		{"ties count as separate rounds", []float64{2, 2, 2, 5, 5, 5, 5, 5}, true, 2, false},
		{"tie at the top of a rate", []float64{7, 7, 1, 1, 1, 1, 1, 1}, false, 7, false},
		{"all rounds equal", []float64{3, 3, 3, 3, 3, 3, 3, 3}, true, 3, false},
		{"seven rounds are rejected", eight[:7], true, 0, true},
		{"no rounds are rejected", nil, false, 0, true},
		{"nine rounds: rank ⌈9/4⌉ = 3", []float64{9, 8, 7, 6, 5, 4, 3, 2, 1}, true, 3, false},
		{"sixteen rounds: rank 4, the same quantile as 2 of 8", []float64{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, true, 4, false},
		{"sixteen rounds, higher is better", []float64{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, false, 13, false},
	}
	for _, c := range cases {
		got, err := secondBest(c.rounds, c.lower)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: error = %v, want error %v", c.name, err, c.wantErr)
			continue
		}
		if got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	in := append([]float64(nil), eight...)
	if _, err := secondBest(in, true); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != eight[i] {
			t.Fatalf("secondBest reordered its input: %v", in)
		}
	}
}

func TestRoundSpread(t *testing.T) {
	cases := []struct {
		name     string
		rounds   []float64
		reported float64
		want     float64
	}{
		{"rounds agree", []float64{2, 2, 2, 2}, 2, 1},
		{"median above a lower-is-better report", []float64{1, 2, 3, 4, 5}, 2, 1.5},
		{"median below a rate's report", []float64{100, 90, 80, 70}, 90, 85.0 / 90},
		{"zero report has no spread", []float64{1, 2}, 0, 0},
	}
	for _, c := range cases {
		if got := roundSpread(c.rounds, c.reported); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLatencyMs(t *testing.T) {
	// 0.001 s … 0.101 s in 1 ms steps: percentile q sits at index q exactly.
	lat := make([]float64, 101)
	for i := range lat {
		lat[100-i] = float64(i+1) / 1000 // unsorted on purpose
	}
	p50, p90, p99 := latencyMs(lat)
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"p50", p50, 51}, {"p90", p90, 91}, {"p99", p99, 100}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v ms, want %v ms", c.name, c.got, c.want)
		}
	}
	if p50, p90, p99 := latencyMs(nil); p50 != 0 || p90 != 0 || p99 != 0 {
		t.Errorf("empty round: got %v %v %v, want zeros", p50, p90, p99)
	}
}

func TestDecileSlope(t *testing.T) {
	// Latency grows 1 µs per op: 1000 µs per 1000 ops.
	ramp := make([]float64, 1000)
	for i := range ramp {
		ramp[i] = float64(i) * 1e-6
	}
	flat := make([]float64, 1000)
	for i := range flat {
		flat[i] = 3e-4
	}
	cases := []struct {
		name string
		lat  []float64
		want float64
	}{
		{"linear growth", ramp, 1000},
		{"no growth", flat, 0},
		{"too few ops for deciles", ramp[:19], 0},
	}
	for _, c := range cases {
		if got := decileSlope(c.lat); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("%s: got %v µs/kop, want %v", c.name, got, c.want)
		}
	}
}

func TestResultDigest(t *testing.T) {
	fold := func(f func(d *resultDigest)) uint64 {
		d := newResultDigest()
		f(d)
		return d.sum()
	}
	empty := fold(func(*resultDigest) {})
	if empty != 0xcbf29ce484222325 {
		t.Errorf("empty digest = %016x, want the FNV-1a offset basis", empty)
	}
	ab := fold(func(d *resultDigest) { d.u64(1); d.u64(2) })
	ba := fold(func(d *resultDigest) { d.u64(2); d.u64(1) })
	if ab == ba {
		t.Error("digest does not depend on order")
	}
	if again := fold(func(d *resultDigest) { d.u64(1); d.u64(2) }); again != ab {
		t.Error("digest is not repeatable")
	}
	// Byte strings are length-prefixed: moving a byte across a boundary
	// must change the digest.
	x := fold(func(d *resultDigest) { d.bytes([]byte("ab")); d.bytes([]byte("c")) })
	y := fold(func(d *resultDigest) { d.bytes([]byte("a")); d.bytes([]byte("bc")) })
	if x == y {
		t.Error("digest does not separate adjacent byte strings")
	}
	if fold(func(d *resultDigest) { d.bytes(nil) }) == empty {
		t.Error("a missing reply must still change the digest")
	}
	if fold(func(d *resultDigest) { d.f64(0) }) == fold(func(d *resultDigest) { d.f64(math.Copysign(0, -1)) }) {
		t.Error("digest must see float bit patterns, not values")
	}
	if fold(func(d *resultDigest) { d.i64(-1) }) != fold(func(d *resultDigest) { d.u64(math.MaxUint64) }) {
		t.Error("i64 and u64 must fold the same bits")
	}
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		name  string
		a, b  []float64
		bound float64
		want  string
	}{
		{"sets agree", []float64{100, 101, 102}, []float64{101, 102, 103}, 0.1, "ok"},
		{"tight sets, medians apart", []float64{100, 101, 102}, []float64{120, 121, 122}, 0.1, "EXCEEDS BOUND"},
		{"apart in the other direction too", []float64{120, 121, 122}, []float64{100, 101, 102}, 0.1, "EXCEEDS BOUND"},
		{"a set wider than the bound resolves nothing, even with equal medians", []float64{90, 100, 115}, []float64{99, 100, 101}, 0.1, "unresolved"},
		{"wide second set, medians apart", []float64{100, 101, 102}, []float64{110, 125, 140}, 0.1, "unresolved"},
		{"just inside the bound", []float64{100, 100, 100}, []float64{109, 109, 109}, 0.1, "ok"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.bound); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}
