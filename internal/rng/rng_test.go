package rng

import "testing"

// TestStreamsFrozen pins the first outputs of both generators: every frozen
// digest in the repository depends on them.
func TestStreamsFrozen(t *testing.T) {
	g := New(1)
	for i, want := range []uint64{0x47e4ce4b896cdd1d, 0xabcfa6a8e079651d, 0xb9d10d8feb731f57} {
		if got := g.Uint64(); got != want {
			t.Errorf("xorshift64* output %d from state 1 = %#x, want %#x", i, got, want)
		}
	}
	// splitmix64's published first output for seed 0, and the next one.
	for seed, want := range []uint64{0xe220a8397b1dcdaf, 0x910a2dec89025cc1} {
		if got := SplitMix64(uint64(seed)); got != want {
			t.Errorf("SplitMix64(%d) = %#x, want %#x", seed, got, want)
		}
	}
}

func TestRanges(t *testing.T) {
	g := New(0x9E3779B97F4A7C15)
	for i := 0; i < 10000; i++ {
		if f := g.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v, outside [0, 1)", f)
		}
		if n := g.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn(7) = %d", n)
		}
	}
}
