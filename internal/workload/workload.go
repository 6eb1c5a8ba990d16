// Package workload synthesises the paper's evaluation workload: a TPC-H-like
// CUSTOMER ⋈ ORDERS join on CUSTKEY at scale factor 600 (90 million customer
// tuples, 900 million order tuples, 1000-byte payloads, ≈ 1 TB input), hash
// partitioned over n nodes with p partitions.
//
// Two levels of fidelity are provided:
//
//   - Chunk level (Generate): produces the h_ik chunk matrix directly, which
//     is all the placement schedulers and the coflow simulator consume. Chunk
//     sizes within each partition follow a Zipf distribution over the nodes
//     with rank-aligned ordering (node 0 always holds the largest chunk, as
//     stated in §IV.B.2 of the paper), and a configurable fraction of the
//     large relation is re-keyed to CUSTKEY 1 to inject skew.
//
//   - Tuple level (package join's generators): materialises actual tuples for
//     end-to-end join verification at reduced scale.
//
// The substitution for TPC-H dbgen is recorded in DESIGN.md §3.
package workload

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"ccf/internal/partition"
	"ccf/internal/rng"
)

// Paper-default workload constants (§IV.A.2 and §IV.A.3).
const (
	// DefaultCustomerTuples is |CUSTOMER| at TPC-H SF = 600.
	DefaultCustomerTuples = 90_000_000
	// DefaultOrderTuples is |ORDERS| at TPC-H SF = 600.
	DefaultOrderTuples = 900_000_000
	// DefaultPayloadBytes is the per-tuple payload the paper fixes.
	DefaultPayloadBytes = 1000
	// DefaultPartitionMultiplier: p = 15 × n in every experiment.
	DefaultPartitionMultiplier = 15
	// DefaultZipf is the default Zipf factor for chunk sizes over nodes.
	DefaultZipf = 0.8
	// DefaultSkew is the default fraction of ORDERS re-keyed to CUSTKEY 1.
	DefaultSkew = 0.20
	// SkewKey is the hot key the paper's skew injection targets.
	SkewKey = 1
)

// Config describes one workload instance.
type Config struct {
	Nodes          int     // n
	Partitions     int     // p; if 0, DefaultPartitionMultiplier × Nodes
	CustomerTuples int64   // |CUSTOMER|; if 0, DefaultCustomerTuples
	OrderTuples    int64   // |ORDERS|; if 0, DefaultOrderTuples
	PayloadBytes   int64   // bytes per tuple; if 0, DefaultPayloadBytes
	Zipf           float64 // Zipf factor θ ∈ [0, ∞); 0 = uniform
	Skew           float64 // fraction of ORDERS tuples re-keyed to SkewKey, ∈ [0, 1)
	// ShuffleRanks breaks the paper's rank alignment: instead of node 0
	// always holding the largest chunk of every partition, the Zipf rank
	// order is rotated per partition. Used by the abl-rank ablation.
	ShuffleRanks bool
	// Seed perturbs the deterministic jitter applied to chunk sizes so that
	// repeated runs can exercise different tie-breaks. Zero is a valid seed.
	Seed uint64
	// JitterFrac adds ±JitterFrac relative noise to each chunk so chunk
	// sizes are not perfectly proportional across partitions. Defaults to 0
	// (exact proportions), which matches the closed-form analysis in
	// EXPERIMENTS.md; the figure runs use a small jitter.
	JitterFrac float64
}

// ScaledTuples returns |CUSTOMER| and |ORDERS| at scale × the paper's sizes.
// It refuses a scale that is not positive, or so small that a count
// truncates to 0, which Config would read as "paper default".
func ScaledTuples(scale float64) (customers, orders int64, err error) {
	customers, orders = int64(scale*DefaultCustomerTuples), int64(scale*DefaultOrderTuples)
	if !(scale > 0) || customers == 0 || orders == 0 {
		return 0, 0, fmt.Errorf("workload: scale must be positive and keep at least one tuple per table, got %g", scale)
	}
	return customers, orders, nil
}

// withDefaults returns a copy with zero fields replaced by paper defaults.
func (c Config) withDefaults() (Config, error) {
	if c.Nodes <= 0 {
		return c, fmt.Errorf("workload: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Partitions == 0 {
		c.Partitions = DefaultPartitionMultiplier * c.Nodes
	}
	if c.Partitions < c.Nodes {
		return c, fmt.Errorf("workload: Partitions (%d) must be >= Nodes (%d)", c.Partitions, c.Nodes)
	}
	if c.CustomerTuples == 0 {
		c.CustomerTuples = DefaultCustomerTuples
	}
	if c.OrderTuples == 0 {
		c.OrderTuples = DefaultOrderTuples
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = DefaultPayloadBytes
	}
	if c.Zipf < 0 {
		return c, fmt.Errorf("workload: Zipf must be non-negative, got %g", c.Zipf)
	}
	if c.Skew < 0 || c.Skew >= 1 {
		return c, fmt.Errorf("workload: Skew must be in [0,1), got %g", c.Skew)
	}
	return c, nil
}

// Validate rejects what Generate would turn into nonsense rather than an
// error: negative tuple counts or payloads, a non-finite Zipf or Skew, a
// JitterFrac outside [0, 1] (a share scaled by 1 ± JitterFrac must stay
// non-negative), and a total of (|C| + |O|) × payload bytes beyond half of
// int64 (jitter may give a chunk up to twice its share). It is the check for configs arriving from outside the program.
// Generate does not call it: a journal replays configs an earlier daemon
// accepted, and must keep producing what that daemon produced.
func (c Config) Validate() error {
	c, err := c.withDefaults()
	if err != nil {
		return err
	}
	if c.CustomerTuples < 0 || c.OrderTuples < 0 || c.PayloadBytes < 0 {
		return fmt.Errorf("workload: negative size (CustomerTuples %d, OrderTuples %d, PayloadBytes %d)",
			c.CustomerTuples, c.OrderTuples, c.PayloadBytes)
	}
	if math.IsNaN(c.Zipf) || math.IsInf(c.Zipf, 0) || math.IsNaN(c.Skew) {
		return fmt.Errorf("workload: Zipf and Skew must be finite, got %g and %g", c.Zipf, c.Skew)
	}
	if !(c.JitterFrac >= 0 && c.JitterFrac <= 1) {
		return fmt.Errorf("workload: JitterFrac must be in [0,1], got %g", c.JitterFrac)
	}
	if c.CustomerTuples > math.MaxInt64-c.OrderTuples ||
		c.CustomerTuples+c.OrderTuples > math.MaxInt64/2/c.PayloadBytes {
		return fmt.Errorf("workload: (%d + %d) tuples of %d bytes overflow int64",
			c.CustomerTuples, c.OrderTuples, c.PayloadBytes)
	}
	return nil
}

// Workload is a generated instance: the chunk matrix of non-skewed data, the
// extra bytes of the hot key per node, and bookkeeping needed by the skew
// handler and the experiment harness.
type Workload struct {
	Config Config
	// Chunks is h_ik for all data including skewed bytes (what a
	// skew-oblivious scheduler like Hash sees).
	Chunks *partition.ChunkMatrix
	// SkewPartition is the partition the hot key hashes to (-1 if skew=0).
	SkewPartition int
	// SkewBytesPerNode[i] is the bytes of hot-key ORDERS tuples resident on
	// node i (contained within Chunks at SkewPartition).
	SkewBytesPerNode []int64
	// SkewOwner is the node holding the CUSTOMER tuple for the hot key: the
	// source of the partial-duplication broadcast.
	SkewOwner int
	// BroadcastBytes is the size of the small-relation tuples that partial
	// duplication replicates to every other node (per destination).
	BroadcastBytes int64
}

// TotalBytes returns the total input size in bytes.
func (w *Workload) TotalBytes() int64 { return w.Chunks.TotalBytes() }

// zipfWeights returns normalised Zipf weights w_r = r^-θ / Σ r^-θ for ranks
// 1..n. θ = 0 yields the uniform distribution.
func zipfWeights(n int, theta float64) []float64 {
	w := make([]float64, n)
	var z float64
	for r := 0; r < n; r++ {
		w[r] = math.Pow(float64(r+1), -theta)
		z += w[r]
	}
	for r := range w {
		w[r] /= z
	}
	return w
}

// parallelCells is the matrix size from which a fill is fanned out over
// GOMAXPROCS goroutines. Measured with the row kernels on two idle cores
// (serve_backlog's generator config, median of 5 runs, inline → two
// goroutines): 64×1024 0.24 → 0.16 ms, 128×2048 1.18 → 0.63 ms, 512×7680
// 15.4 → 8.3 ms. The fan-out pays from 64×1024 on idle cores, but a daemon
// runs one shard per core, so the second core is the other shard's: the line
// stays above ccfd's 64×960 matrices, which fill inline. The paper-scale
// figures (1 000 × 15 000) are far above it.
const parallelCells = 1 << 18

// Generator builds workloads into storage it keeps between calls: the chunk
// matrix, SkewBytesPerNode, the Zipf weights and the per-partition fill
// state. The Workload a call returns, with its Chunks and SkewBytesPerNode,
// belongs to the generator and is valid until the next call. The zero value
// is ready to use; a Generator is not safe for concurrent use.
type Generator struct {
	w       Workload
	m       partition.ChunkMatrix
	weights []float64 // zipfWeights(n, theta)
	theta   float64
	// Per partition: the sum of the cells written so far, the largest of them
	// and the first node holding it, and (ShuffleRanks) the rank rotation.
	sum, peak []int64
	arg, off  []int
}

// Generate builds a workload instance per the paper's §IV.A recipe, in fresh
// storage (see Generator.Generate).
func Generate(cfg Config) (*Workload, error) {
	return new(Generator).Generate(cfg)
}

// Generate builds a workload instance per the paper's §IV.A recipe:
//
//  1. Total bytes = (|C| + |O|) × payload, split evenly over p partitions
//     (uniform custkeys ⇒ near-identical partition totals).
//  2. Within each partition, chunk sizes over the n nodes follow Zipf(θ)
//     with aligned ranks (node 0 largest) unless ShuffleRanks is set.
//  3. skew × |O| tuples are re-keyed to CUSTKEY 1; their bytes concentrate
//     in the hot key's partition, distributed over nodes proportionally to
//     the Zipf weights (the paper picks the re-keyed tuples uniformly at
//     random, so they sit where the data sits).
func (g *Generator) Generate(cfg Config) (*Workload, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n, p := cfg.Nodes, cfg.Partitions
	g.m = partition.ChunkMatrix{N: n, P: p, H: grow(g.m.H, n*p)} // every cell is written below
	g.sum, g.peak = grow(g.sum, p), grow(g.peak, p)
	g.arg, g.off = grow(g.arg, p), grow(g.off, p)
	if len(g.weights) != n || g.theta != cfg.Zipf {
		g.weights, g.theta = zipfWeights(n, cfg.Zipf), cfg.Zipf
	}

	totalTuples := cfg.CustomerTuples + cfg.OrderTuples
	skewOrderTuples := int64(cfg.Skew * float64(cfg.OrderTuples))
	normalTuples := totalTuples - skewOrderTuples
	normalBytes := normalTuples * cfg.PayloadBytes
	skewBytes := skewOrderTuples * cfg.PayloadBytes

	// Spread the non-skewed bytes: partition totals are equal up to
	// integer remainders; within a partition, node shares follow the
	// (possibly rotated) Zipf weights with optional jitter. Ranges of
	// partitions write disjoint matrix columns, so a large matrix fills in
	// parallel; the jitter is hashed per (node, partition), keeping the
	// result deterministic regardless of worker count.
	workers := 1
	if n*p >= parallelCells {
		workers = min(runtime.GOMAXPROCS(0), p)
	}
	if workers == 1 {
		g.fill(&cfg, normalBytes, 0, p)
	} else {
		// The workers share a copy: were the closure to capture cfg, cfg
		// would move to the heap on the inline path as well.
		shared := cfg
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				g.fill(&shared, normalBytes, lo, hi)
			}(p*w/workers, p*(w+1)/workers)
		}
		wg.Wait()
	}

	g.w = Workload{
		Config:           cfg,
		Chunks:           &g.m,
		SkewPartition:    -1,
		SkewBytesPerNode: grow(g.w.SkewBytesPerNode, n),
	}
	w := &g.w
	clear(w.SkewBytesPerNode)

	if skewOrderTuples > 0 {
		part := partition.ModPartitioner{NumPartitions: p}
		ks := part.Partition(SkewKey)
		w.SkewPartition = ks
		// Distribute hot-key bytes over nodes by the same weights, since
		// the re-keyed tuples are sampled uniformly from the relation.
		off := rankOffset(&cfg, ks)
		var assigned int64
		for i := 0; i < n; i++ {
			b := int64(g.weights[(i+off)%n] * float64(skewBytes))
			w.SkewBytesPerNode[i] = b
			assigned += b
		}
		// Put rounding remainder on the largest-share node.
		w.SkewBytesPerNode[largestIdx(w.SkewBytesPerNode)] += skewBytes - assigned
		for i := 0; i < n; i++ {
			g.m.Add(i, ks, w.SkewBytesPerNode[i])
		}
		// The CUSTOMER side of the hot key is a single tuple; it lives on
		// the node owning the largest chunk of the hot partition (where a
		// locality-aware loader would have put it — any single node works,
		// the broadcast volume is what matters).
		w.SkewOwner = largestIdx(w.SkewBytesPerNode)
		w.BroadcastBytes = cfg.PayloadBytes
	}
	return w, nil
}

// grow returns s resized to n elements, reallocating only when it must; the
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// fill splits normalBytes/p bytes (the first normalBytes%p partitions get one
// more) of each partition in [lo, hi) over the nodes. It walks the matrix
// row by row — node outer, partition inner, so the writes are sequential.
// Each row is written by a cell kernel (cells, or shuffledCells under
// ShuffleRanks), called once for the partitions holding one byte more and once
// for the rest, and then read by a second loop that carries each partition's
// running sum, largest cell and its first holder in g.sum, g.peak and g.arg.
// Split in two, neither loop keeps more live values than there are registers:
// fused, the hash state and the loop index went to the stack on every cell.
func (g *Generator) fill(cfg *Config, normalBytes int64, lo, hi int) {
	n, p := g.m.N, g.m.P
	perPartition := normalBytes / int64(p)
	remainder := int(normalBytes % int64(p))  // partitions below it hold one byte more
	split := min(max(remainder, lo), hi) - lo // row[:split] holds them
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
		rowKey := cfg.Seed ^ uint64(i)<<32
		if shuffle {
			shuffledCells(row[:split], lo, i, weights, off[:split], totHi, jitter, rowKey)
			shuffledCells(row[split:], lo+split, i, weights, off[split:], totLo, jitter, rowKey)
		} else {
			cells(row[:split], lo, weights[i], totHi, jitter, rowKey)
			cells(row[split:], lo+split, weights[i], totLo, jitter, rowKey)
		}
		// Resliced to row's length so the compiler drops the bounds checks below.
		sum, peak, arg := sum[:len(row)], peak[:len(row)], arg[:len(row)]
		for j, v := range row {
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
		// Rounding remainder goes to the largest chunk, preserving the argmax.
		// With jitter the shares need not sum to 1, so the remainder can be
		// negative; drain it from the largest chunks without going below zero.
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
				break // tot was 0; nothing to drain
			}
			g.m.Add(big, k, -take)
			rem += take
		}
	}
}

// jitterScale is cell (i, k)'s factor 1 + JitterFrac·u, u ∈ [−1, 1) hashed from
// the seed, the node (in rowKey) and the partition k.
func jitterScale(rowKey uint64, k int, jitter float64) float64 {
	h := rng.SplitMix64(rowKey ^ uint64(k)*0x9E3779B97F4A7C15)
	return 1 + float64(jitter*(float64(float64(h>>11)*0x1p-52)-1))
}

// cells writes one node's cells for partitions k, k+1, …: its Zipf share f of
// tot bytes, scaled by the cell's jitter when jitter > 0, truncated.
func cells(row []int64, k int, f, tot, jitter float64, rowKey uint64) {
	if !(jitter > 0) {
		v := int64(f * tot)
		for j := range row {
			row[j] = v
		}
		return
	}
	for j := range row {
		row[j] = int64(f * jitterScale(rowKey, k+j, jitter) * tot)
	}
}

// shuffledCells is cells under ShuffleRanks: node i's share of partition k+j
// is the weight of rank (i + off[j]) mod n.
func shuffledCells(row []int64, k, i int, weights []float64, off []int, tot, jitter float64, rowKey uint64) {
	off = off[:len(row)]
	for j := range row {
		r := i + off[j]
		if r >= len(weights) {
			r -= len(weights)
		}
		f := weights[r]
		if jitter > 0 {
			f *= jitterScale(rowKey, k+j, jitter)
		}
		row[j] = int64(f * tot)
	}
}

// rankOffset returns the rotation of partition k's Zipf ranks: node i holds
// rank (i + offset) mod n. Zero when ranks are aligned (the paper's default),
// a per-partition hash when ShuffleRanks is set.
func rankOffset(cfg *Config, k int) int {
	if !cfg.ShuffleRanks {
		return 0
	}
	return int(rng.SplitMix64(cfg.Seed^uint64(k)) % uint64(cfg.Nodes))
}

func largestIdx(v []int64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
