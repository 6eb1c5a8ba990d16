// Package rng is the one seeded generator every workload, table and trace
// generator in the repository draws from: an xorshift64* stream and the
// splitmix64 step. Both are bit-for-bit fixed, because the frozen
// generator digests and the example recordings pin every stream they
// feed. Seed transforms stay with the callers.
package rng

// Gen is an xorshift64* generator (Vigna 2016). A zero state yields zeros
// forever, so a caller whose seeds may be zero maps them away first.
type Gen struct{ state uint64 }

// New returns a generator whose state is seed.
func New(seed uint64) Gen { return Gen{state: seed} }

// Uint64 steps the generator.
func (g *Gen) Uint64() uint64 {
	x := g.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	g.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns an int in [0, n) (modulo reduction, so very slightly biased
// for n that do not divide 2⁶⁴).
func (g *Gen) Intn(n int) int { return int(g.Uint64() % uint64(n)) }

// Float64 returns a uniform float in [0, 1) with 53 random bits.
func (g *Gen) Float64() float64 { return float64(g.Uint64()>>11) / float64(1<<53) }

// SplitMix64 is one splitmix64 step: x advanced by the golden-ratio
// increment, then finalised. It whitens seeds and hashes row keys.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
