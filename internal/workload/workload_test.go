package workload

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"ccf/internal/rng"
)

func TestDefaultsApplied(t *testing.T) {
	w, err := Generate(Config{Nodes: 10, Zipf: 0.5, Skew: 0.1, CustomerTuples: 1000, OrderTuples: 10000, PayloadBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Config.Partitions; got != 150 {
		t.Errorf("default partitions = %d, want 15×10", got)
	}
	w2, err := Generate(Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Config.CustomerTuples != DefaultCustomerTuples || w2.Config.OrderTuples != DefaultOrderTuples {
		t.Errorf("paper-default tuple counts not applied: %+v", w2.Config)
	}
	if w2.Config.PayloadBytes != DefaultPayloadBytes {
		t.Errorf("payload = %d, want %d", w2.Config.PayloadBytes, DefaultPayloadBytes)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Nodes: 0},
		{Nodes: -2},
		{Nodes: 10, Partitions: 5},
		{Nodes: 3, Zipf: -0.1},
		{Nodes: 3, Skew: -0.2},
		{Nodes: 3, Skew: 1.0},
	}
	for _, c := range cases {
		if _, err := Generate(c); err == nil {
			t.Errorf("Generate(%+v) accepted invalid config", c)
		}
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted what Generate refuses", c)
		}
	}
	// What Generate builds nonsense from and only Validate refuses.
	strict := []Config{
		{Nodes: 3, CustomerTuples: -1},
		{Nodes: 3, OrderTuples: -1},
		{Nodes: 3, PayloadBytes: -1},
		{Nodes: 3, Zipf: math.NaN()},
		{Nodes: 3, Zipf: math.Inf(1)},
		{Nodes: 3, Skew: math.NaN()},
		{Nodes: 3, JitterFrac: math.NaN()},
		{Nodes: 3, JitterFrac: -0.1},
		{Nodes: 3, JitterFrac: 1.5},
		{Nodes: 3, CustomerTuples: math.MaxInt64, OrderTuples: 1},
		{Nodes: 3, PayloadBytes: 9_000_000_000_000},
	}
	for _, c := range strict {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
	for _, c := range []Config{{Nodes: 4}, {Nodes: 4, JitterFrac: 1, Zipf: 3, Skew: 0.99, PayloadBytes: 1 << 30}} {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", c, err)
		}
	}
}

func TestTotalBytesConservation(t *testing.T) {
	cfg := Config{Nodes: 8, CustomerTuples: 900, OrderTuples: 9000, PayloadBytes: 100, Zipf: 0.8, Skew: 0.2}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := (cfg.CustomerTuples + cfg.OrderTuples) * cfg.PayloadBytes
	if got := w.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d (all tuples accounted)", got, want)
	}
	if err := w.Chunks.Validate(); err != nil {
		t.Errorf("generated matrix invalid: %v", err)
	}
}

func TestZipfWeightsProperties(t *testing.T) {
	for _, theta := range []float64{0, 0.3, 0.8, 1, 2} {
		w := zipfWeights(50, theta)
		var sum float64
		for r := 0; r < len(w); r++ {
			sum += w[r]
			if r > 0 && w[r] > w[r-1]+1e-15 {
				t.Errorf("theta=%g: weights not non-increasing at rank %d", theta, r)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("theta=%g: weights sum to %g, want 1", theta, sum)
		}
	}
	// theta=0 is uniform.
	w := zipfWeights(4, 0)
	for _, v := range w {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("zipf(0) weight = %g, want 0.25", v)
		}
	}
}

func TestRankAlignmentNodeZeroLargest(t *testing.T) {
	w, err := Generate(Config{Nodes: 20, CustomerTuples: 10_000, OrderTuples: 100_000, PayloadBytes: 100, Zipf: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	_, node := w.Chunks.MaxChunk()
	for k, d := range node {
		if d != 0 {
			t.Fatalf("partition %d: largest chunk on node %d; paper setup requires node 0 (§IV.B.2)", k, d)
		}
	}
}

func TestShuffleRanksBreaksAlignment(t *testing.T) {
	w, err := Generate(Config{Nodes: 20, CustomerTuples: 10_000, OrderTuples: 100_000, PayloadBytes: 100, Zipf: 0.8, ShuffleRanks: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, node := w.Chunks.MaxChunk()
	offNode0 := 0
	for _, d := range node {
		if d != 0 {
			offNode0++
		}
	}
	if offNode0 == 0 {
		t.Error("ShuffleRanks left every partition's largest chunk on node 0")
	}
}

func TestSkewInjection(t *testing.T) {
	cfg := Config{Nodes: 10, CustomerTuples: 1000, OrderTuples: 10_000, PayloadBytes: 10, Zipf: 0.8, Skew: 0.2}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.SkewPartition != SkewKey%w.Config.Partitions {
		t.Errorf("SkewPartition = %d, want %d (key 1 under mod hash)", w.SkewPartition, SkewKey%w.Config.Partitions)
	}
	var skewTotal int64
	for _, b := range w.SkewBytesPerNode {
		if b < 0 {
			t.Fatalf("negative skew bytes: %v", w.SkewBytesPerNode)
		}
		skewTotal += b
	}
	wantSkew := int64(cfg.Skew*float64(cfg.OrderTuples)) * cfg.PayloadBytes
	if skewTotal != wantSkew {
		t.Errorf("skew bytes = %d, want %d (20%% of ORDERS)", skewTotal, wantSkew)
	}
	if w.BroadcastBytes != cfg.PayloadBytes {
		t.Errorf("broadcast = %d bytes, want one customer tuple (%d)", w.BroadcastBytes, cfg.PayloadBytes)
	}
	if w.SkewOwner < 0 || w.SkewOwner >= cfg.Nodes {
		t.Errorf("SkewOwner = %d outside cluster", w.SkewOwner)
	}
}

func TestNoSkewFields(t *testing.T) {
	w, err := Generate(Config{Nodes: 5, CustomerTuples: 100, OrderTuples: 1000, PayloadBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if w.SkewPartition != -1 {
		t.Errorf("SkewPartition = %d for skewless workload, want -1", w.SkewPartition)
	}
	if w.BroadcastBytes != 0 {
		t.Errorf("BroadcastBytes = %d for skewless workload, want 0", w.BroadcastBytes)
	}
}

func TestSkewPartitionIsHeaviest(t *testing.T) {
	w, err := Generate(Config{Nodes: 10, CustomerTuples: 1000, OrderTuples: 10_000, PayloadBytes: 10, Zipf: 0.8, Skew: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	tot := w.Chunks.PartitionTotals()
	for k, v := range tot {
		if k != w.SkewPartition && v > tot[w.SkewPartition] {
			t.Fatalf("partition %d (%d bytes) heavier than skew partition %d (%d bytes)",
				k, v, w.SkewPartition, tot[w.SkewPartition])
		}
	}
}

func TestJitterPreservesConservationAndNonNegativity(t *testing.T) {
	f := func(seed uint64, zipfTenths uint8) bool {
		theta := float64(zipfTenths%11) / 10
		cfg := Config{
			Nodes: 6, CustomerTuples: 500, OrderTuples: 5000, PayloadBytes: 17,
			Zipf: theta, Skew: 0.2, JitterFrac: 0.05, Seed: seed,
		}
		w, err := Generate(cfg)
		if err != nil {
			return false
		}
		if w.Chunks.Validate() != nil {
			return false
		}
		return w.TotalBytes() == (cfg.CustomerTuples+cfg.OrderTuples)*cfg.PayloadBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Nodes: 7, CustomerTuples: 300, OrderTuples: 3000, PayloadBytes: 13, Zipf: 0.6, Skew: 0.1, JitterFrac: 0.02, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Chunks.H {
		if a.Chunks.H[i] != b.Chunks.H[i] {
			t.Fatal("Generate is not deterministic for identical configs")
		}
	}
}

func TestPartitionTotalsNearEqualWithoutSkew(t *testing.T) {
	w, err := Generate(Config{Nodes: 10, CustomerTuples: 10_000, OrderTuples: 100_000, PayloadBytes: 10, Zipf: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	tot := w.Chunks.PartitionTotals()
	var lo, hi int64 = tot[0], tot[0]
	for _, v := range tot {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 1 {
		t.Errorf("uniform-key partition totals spread %d..%d; want within 1 byte", lo, hi)
	}
}

func TestZipfConcentration(t *testing.T) {
	// Higher zipf ⇒ node 0 holds a strictly larger share.
	share := func(theta float64) float64 {
		w, err := Generate(Config{Nodes: 50, CustomerTuples: 100_000, OrderTuples: 1_000_000, PayloadBytes: 100, Zipf: theta})
		if err != nil {
			t.Fatal(err)
		}
		nt := w.Chunks.NodeTotals()
		return float64(nt[0]) / float64(w.TotalBytes())
	}
	s0, s05, s1 := share(0), share(0.5), share(1)
	if !(s0 < s05 && s05 < s1) {
		t.Errorf("node-0 share not increasing with zipf: %g, %g, %g", s0, s05, s1)
	}
	if math.Abs(s0-1.0/50) > 0.001 {
		t.Errorf("zipf=0 node-0 share = %g, want ≈ 1/50", s0)
	}
}

func TestSplitmixAvalanche(t *testing.T) {
	// Adjacent seeds must produce well-separated jitter draws. fill's draw
	// is the top 53 bits of the hash scaled by 2⁻⁵², a value in [0, 2)
	// every platform computes exactly: it equals twice the [0, 1) uniform.
	draw := func(h uint64) float64 { return float64(float64(h>>11) * 0x1p-52) }
	src := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		x := src.Uint64()
		ha, hb := rng.SplitMix64(x), rng.SplitMix64(x+1)
		a, b := draw(ha), draw(hb)
		if a == b {
			t.Fatalf("splitmix64 collision for adjacent seeds at %d", x)
		}
		if a < 0 || a >= 2 || b < 0 || b >= 2 {
			t.Fatalf("jitter draw out of [0, 2): %g %g", a, b)
		}
		if u := float64(ha>>11) / float64(1<<53); a != 2*u {
			t.Fatalf("jitter draw %g != 2 × uniform %g", a, u)
		}
	}
}

func TestGenerateParallelDeterminism(t *testing.T) {
	// Generation fans the partitions of a large matrix (parallelCells) out
	// over GOMAXPROCS workers; the output must be identical at any worker
	// count.
	cfg := Config{
		Nodes: 128, Partitions: 2048, CustomerTuples: 2000, OrderTuples: 20_000,
		PayloadBytes: 50, Zipf: 0.7, Skew: 0.15, JitterFrac: 0.03, Seed: 99,
	}
	if cfg.Nodes*cfg.Partitions < parallelCells {
		t.Fatalf("%d×%d fills inline; pick a shape of at least %d cells", cfg.Nodes, cfg.Partitions, parallelCells)
	}
	prev := runtime.GOMAXPROCS(1)
	serial, err := Generate(cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Chunks.H {
		if serial.Chunks.H[i] != parallel.Chunks.H[i] {
			t.Fatal("parallel generation diverges from serial")
		}
	}
}

// TestGeneratorReuse drives one generator across shapes and skew settings:
// each result must equal a fresh Generate — no cell, SkewBytesPerNode entry or
// SkewPartition left over from the previous, larger or skewed, instance.
func TestGeneratorReuse(t *testing.T) {
	big := Config{Nodes: 64, Partitions: 960, CustomerTuples: 20_000, OrderTuples: 200_000, PayloadBytes: 1000,
		Zipf: DefaultZipf, Skew: DefaultSkew, JitterFrac: 0.05, Seed: 3}
	small := Config{Nodes: 8, Partitions: 8, CustomerTuples: 500, OrderTuples: 5000, PayloadBytes: 10,
		Zipf: 0.3, Skew: 0.1, ShuffleRanks: true, JitterFrac: 0.9, Seed: 4}
	noSkew := big
	noSkew.Skew, noSkew.Seed = 0, 5
	var g Generator
	for step, cfg := range []Config{big, small, big, noSkew, big} {
		got, err := g.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Chunks.N != want.Chunks.N || got.Chunks.P != want.Chunks.P || !slices.Equal(got.Chunks.H, want.Chunks.H) {
			t.Errorf("step %d: reused generator's matrix differs from a fresh Generate", step)
		}
		if !slices.Equal(got.SkewBytesPerNode, want.SkewBytesPerNode) {
			t.Errorf("step %d: SkewBytesPerNode = %v, fresh Generate has %v", step, got.SkewBytesPerNode, want.SkewBytesPerNode)
		}
		if got.SkewPartition != want.SkewPartition || got.SkewOwner != want.SkewOwner ||
			got.BroadcastBytes != want.BroadcastBytes || got.Config != want.Config {
			t.Errorf("step %d: skew bookkeeping %d/%d/%d, fresh Generate has %d/%d/%d", step,
				got.SkewPartition, got.SkewOwner, got.BroadcastBytes, want.SkewPartition, want.SkewOwner, want.BroadcastBytes)
		}
	}
}

// TestGenerateZeroAllocs pins that a reused Generator fills a daemon-sized
// matrix (64 × 960, serve_backlog's config, inline: below parallelCells)
// without allocating — its config included, which only the fan-out path may
// move to the heap.
func TestGenerateZeroAllocs(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		cfg := Config{Nodes: 64, Partitions: 960, CustomerTuples: 20_000, OrderTuples: 200_000, PayloadBytes: 1000,
			Zipf: DefaultZipf, Skew: DefaultSkew, JitterFrac: 0.05, ShuffleRanks: shuffle}
		var g Generator
		if _, err := g.Generate(cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			cfg.Seed++
			if _, err := g.Generate(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("ShuffleRanks %v: Generate on a reused Generator makes %.1f allocations per call, want 0", shuffle, allocs)
		}
	}
}
