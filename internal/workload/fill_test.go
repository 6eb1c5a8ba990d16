package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ccf/internal/rng"
)

// fillReference is fill as one fused loop per row — cell value, rank
// rotation, remainder split and partition bookkeeping together — kept as the
// oracle for the row kernels.
func (g *Generator) fillReference(cfg *Config, normalBytes int64, lo, hi int) {
	n, p := g.m.N, g.m.P
	perPartition := normalBytes / int64(p)
	remainder := int(normalBytes % int64(p)) // partitions below it hold one byte more
	totHi, totLo := float64(perPartition+1), float64(perPartition)
	weights, jitter, shuffle := g.weights, cfg.JitterFrac, cfg.ShuffleRanks
	sum, peak, arg, off := g.sum[lo:hi], g.peak[lo:hi], g.arg[lo:hi], g.off[lo:hi]
	for j := range sum {
		sum[j], peak[j], arg[j] = 0, -1, 0
		if shuffle {
			off[j] = rankOffset(cfg, lo+j)
		}
	}
	for i := 0; i < n; i++ {
		row := g.m.H[i*p+lo : i*p+hi]
		sum, peak, arg, off := sum[:len(row)], peak[:len(row)], arg[:len(row)], off[:len(row)]
		f0 := weights[i]
		rowKey := cfg.Seed ^ uint64(i)<<32
		for j := range row {
			k := lo + j
			f := f0
			if shuffle {
				r := i + off[j]
				if r >= n {
					r -= n
				}
				f = weights[r]
			}
			if jitter > 0 {
				h := rng.SplitMix64(rowKey ^ uint64(k)*0x9E3779B97F4A7C15)
				f *= 1 + float64(jitter*(float64(float64(h>>11)*0x1p-52)-1))
			}
			tot := totLo
			if k < remainder {
				tot = totHi
			}
			v := int64(f * tot)
			row[j] = v
			sum[j] += v
			if v > peak[j] {
				peak[j], arg[j] = v, i
			}
		}
	}
	for k := lo; k < hi; k++ {
		tot := perPartition
		if k < remainder {
			tot++
		}
		rem := tot - g.sum[k]
		if rem >= -g.peak[k] {
			g.m.Add(g.arg[k], k, rem)
			continue
		}
		for rem < 0 {
			big, bigV := 0, int64(-1)
			for i := 0; i < n; i++ {
				if v := g.m.At(i, k); v > bigV {
					big, bigV = i, v
				}
			}
			take := -rem
			if take > bigV {
				take = bigV
			}
			if take == 0 {
				break
			}
			g.m.Add(big, k, -take)
			rem += take
		}
	}
}

// clone copies the fill state of a generator Generate has sized.
func (g *Generator) clone() *Generator {
	c := &Generator{weights: g.weights, theta: g.theta}
	c.m = g.m
	c.m.H = slices.Clone(g.m.H)
	c.sum, c.peak = slices.Clone(g.sum), slices.Clone(g.peak)
	c.arg, c.off = slices.Clone(g.arg), slices.Clone(g.off)
	return c
}

// TestFillMatchesReference runs fill and the fused oracle over one worker's
// partition range [lo, hi) of random shapes, with the boundary of the
// partitions that hold one byte more (normalBytes mod p) before the range, at
// its ends, inside it and after it, and compares every cell and every
// partition's sum, largest cell and holder.
func TestFillMatchesReference(t *testing.T) {
	src := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 1 + src.Intn(40)
		p := n + src.Intn(300)
		lo := src.Intn(p)
		hi := lo + 1 + src.Intn(p-lo)
		for _, shuffle := range []bool{false, true} {
			for _, jitter := range []float64{0, 0.05, 0.9, 1} {
				cfg := Config{Nodes: n, Partitions: p, Zipf: src.Float64() * 1.5, ShuffleRanks: shuffle,
					Seed: src.Uint64(), JitterFrac: jitter, CustomerTuples: 1000, OrderTuples: 10_000, PayloadBytes: 10}
				var g Generator
				w, err := g.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg = w.Config
				per := src.Int63n(1 << 40)
				for _, rem := range []int{0, lo, lo + src.Intn(hi-lo), hi - 1, hi, hi + src.Intn(p-hi+1)} {
					if rem >= p {
						rem = p - 1
					}
					normalBytes := per*int64(p) + int64(rem)
					got, want := g.clone(), g.clone()
					got.fill(&cfg, normalBytes, lo, hi)
					want.fillReference(&cfg, normalBytes, lo, hi)
					name := fmt.Sprintf("%d×%d [%d,%d) shuffle %v jitter %g remainder %d", n, p, lo, hi, shuffle, jitter, rem)
					if !slices.Equal(got.m.H, want.m.H) {
						t.Fatalf("%s: cells differ from the fused loop", name)
					}
					if !slices.Equal(got.sum, want.sum) || !slices.Equal(got.peak, want.peak) ||
						!slices.Equal(got.arg, want.arg) || !slices.Equal(got.off, want.off) {
						t.Fatalf("%s: partition bookkeeping differs from the fused loop", name)
					}
				}
			}
		}
	}
}

// TestGenerateMatchesReferenceFill compares Generate's matrix, inline (64 ×
// 960) and fanned out over GOMAXPROCS workers (128 × 2048), with the fused
// oracle run over all partitions at once. Skew is 0, so the matrix is fill's
// alone; CUSTOMER sizes put normalBytes mod p at 0, inside the first half of
// the partitions and inside the second.
func TestGenerateMatchesReferenceFill(t *testing.T) {
	for _, shape := range [][2]int{{64, 960}, {128, 2048}} {
		n, p := shape[0], shape[1]
		for _, rem := range []int{0, p / 3, 5 * p / 6} {
			for _, shuffle := range []bool{false, true} {
				for _, jitter := range []float64{0, 0.05, 0.9, 1} {
					cfg := Config{Nodes: n, Partitions: p, CustomerTuples: int64(1000*p + rem), OrderTuples: int64(10_000 * p),
						PayloadBytes: 1, Zipf: DefaultZipf, ShuffleRanks: shuffle, Seed: uint64(rem) + 7, JitterFrac: jitter}
					var g Generator
					w, err := g.Generate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := g.clone()
					want.fillReference(&w.Config, cfg.CustomerTuples+cfg.OrderTuples, 0, p)
					if !slices.Equal(w.Chunks.H, want.m.H) {
						t.Fatalf("%d×%d remainder %d shuffle %v jitter %g: Generate differs from the fused loop", n, p, rem, shuffle, jitter)
					}
				}
			}
		}
	}
}

// BenchmarkGenerate times one Generate at 64 × 960 with serve_backlog's
// generator config (20 000 customers, ten times the orders, 1 000-byte
// payloads, Zipf 0.8, 20 % skew, JitterFrac 0.05) on one reused Generator,
// cycling the seed through 1 … 8.
func BenchmarkGenerate(b *testing.B) {
	cfg := Config{Nodes: 64, Partitions: 960, CustomerTuples: 20_000, OrderTuples: 200_000, PayloadBytes: 1000,
		Zipf: DefaultZipf, Skew: DefaultSkew, JitterFrac: 0.05}
	var g Generator
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i%8) + 1
		if _, err := g.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
