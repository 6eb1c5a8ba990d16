// Package skew implements the paper's skew handling (§III.C): detection of
// heavy-hitter join keys and the partial-duplication mitigation of Xu et al.
// (SIGMOD'08) — skewed tuples of the large relation are never transferred;
// instead the few matching tuples of the small relation are broadcast to
// every node, and the broadcast volumes become the initial status v⁰_ij of
// the co-optimization model's flows.
package skew

import (
	"cmp"
	"fmt"
	"slices"

	"ccf/internal/partition"
	"ccf/internal/workload"
)

// Plan is the output of partial duplication on a workload: an adjusted chunk
// matrix h′ (skewed bytes removed — they stay local), the broadcast flow
// volumes, and the equivalent initial port loads for the schedulers.
type Plan struct {
	// Adjusted is h′_ik: the chunk matrix the placement scheduler sees.
	Adjusted *partition.ChunkMatrix
	// Initial holds the port loads of the broadcast flows (v⁰).
	Initial *partition.Loads
	// BroadcastVolumes is the n×n matrix (row-major) of broadcast flows.
	BroadcastVolumes []int64
	// LocalBytes counts the skewed bytes kept in place (saved traffic).
	LocalBytes int64
	// BroadcastBytes counts total bytes the broadcast injects.
	BroadcastBytes int64

	// own is the plan's own storage for Adjusted, kept across
	// PartialDuplicationInto calls (Adjusted aliases the workload's matrix
	// when there is no skew).
	own partition.ChunkMatrix
}

// PartialDuplication derives the skew-handling plan for a generated
// workload. When the workload has no skew the plan is a no-op that shares
// the original matrix.
func PartialDuplication(w *workload.Workload) *Plan {
	return PartialDuplicationInto(new(Plan), w)
}

// PartialDuplicationInto is PartialDuplication building the plan in p's
// storage — the adjusted matrix, the initial loads and the broadcast volumes
// are reused when large enough — and returning p. Everything p held is
// overwritten; nothing of w is retained except, for a workload without skew,
// its matrix as Adjusted.
func PartialDuplicationInto(p *Plan, w *workload.Workload) *Plan {
	n := w.Chunks.N
	if p.Initial == nil {
		p.Initial = &partition.Loads{}
	}
	p.Initial.Egress = zeroed(p.Initial.Egress, n)
	p.Initial.Ingress = zeroed(p.Initial.Ingress, n)
	p.BroadcastVolumes = zeroed(p.BroadcastVolumes, n*n)
	p.LocalBytes, p.BroadcastBytes = 0, 0
	if w.SkewPartition < 0 {
		p.Adjusted = w.Chunks
		return p
	}
	p.own = partition.ChunkMatrix{N: n, P: w.Chunks.P, H: append(p.own.H[:0], w.Chunks.H...)}
	p.Adjusted = &p.own
	for i := 0; i < n; i++ {
		b := w.SkewBytesPerNode[i]
		if b == 0 {
			continue
		}
		p.Adjusted.Add(i, w.SkewPartition, -b)
		p.LocalBytes += b
	}
	// Broadcast the small-relation hot tuples from their owner to every
	// other node.
	src := w.SkewOwner
	for j := 0; j < n; j++ {
		if j == src {
			continue
		}
		p.BroadcastVolumes[src*n+j] = w.BroadcastBytes
		p.Initial.Egress[src] += w.BroadcastBytes
		p.Initial.Ingress[j] += w.BroadcastBytes
		p.BroadcastBytes += w.BroadcastBytes
	}
	return p
}

// zeroed returns s resized to n zero entries, reallocating only when it must.
func zeroed(s []int64, n int) []int64 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// HeavyKey describes one detected heavy hitter.
type HeavyKey struct {
	Key   int64
	Count int64
	Frac  float64
}

// DetectHeavy returns the keys whose frequency exceeds threshold (a fraction
// of total), sorted by descending count. This is the exact-count detector;
// production systems sample first — see Sampler.
func DetectHeavy(freq map[int64]int64, total int64, threshold float64) []HeavyKey {
	if total <= 0 {
		return nil
	}
	var out []HeavyKey
	for k, c := range freq {
		f := float64(c) / float64(total)
		if f > threshold {
			out = append(out, HeavyKey{Key: k, Count: c, Frac: f})
		}
	}
	slices.SortFunc(out, func(a, b HeavyKey) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Key, b.Key))
	})
	return out
}

// Sampler detects heavy hitters from a deterministic 1-in-Rate systematic
// sample of a key stream, the cheap pre-pass the paper says has negligible
// overhead (§III.C citing Kotoulas et al.).
type Sampler struct {
	Rate    int64 // sample every Rate-th key; must be >= 1
	counts  map[int64]int64
	seen    int64
	sampled int64
}

// NewSampler builds a sampler; rate < 1 is promoted to 1 (full counting).
func NewSampler(rate int64) *Sampler {
	if rate < 1 {
		rate = 1
	}
	return &Sampler{Rate: rate, counts: make(map[int64]int64)}
}

// Observe feeds one key.
func (s *Sampler) Observe(key int64) {
	s.seen++
	if s.seen%s.Rate == 0 {
		s.counts[key]++
		s.sampled++
	}
}

// Heavy estimates the keys whose population frequency exceeds threshold.
func (s *Sampler) Heavy(threshold float64) []HeavyKey {
	out := DetectHeavy(s.counts, s.sampled, threshold)
	for i := range out {
		// Scale sampled counts back to population estimates.
		out[i].Count *= s.Rate
	}
	return out
}

// Seen returns how many keys were observed.
func (s *Sampler) Seen() int64 { return s.seen }

// Validate checks plan invariants: no negative adjusted chunk, broadcast
// diagonal empty, and byte conservation (original = adjusted + local bytes
// at the skewed partition). It reads the two matrices once, side by side.
func (p *Plan) Validate(orig *partition.ChunkMatrix) error {
	adj := p.Adjusted
	if adj.N <= 0 || adj.P <= 0 || len(adj.H) != adj.N*adj.P || len(adj.H) != len(orig.H) {
		if err := adj.Validate(); err != nil {
			return fmt.Errorf("skew: adjusted matrix invalid: %w", err)
		}
		return fmt.Errorf("skew: adjusted matrix is %d×%d, original is %d×%d", adj.N, adj.P, orig.N, orig.P)
	}
	var origSum, adjSum, signs int64
	for idx, v := range adj.H {
		signs |= v
		adjSum += v
		origSum += orig.H[idx]
	}
	if signs < 0 {
		// Some cell is negative; the matrix's own check names the first.
		return fmt.Errorf("skew: adjusted matrix invalid: %w", adj.Validate())
	}
	n := orig.N
	for i := 0; i < n; i++ {
		if p.BroadcastVolumes[i*n+i] != 0 {
			return fmt.Errorf("skew: broadcast self-loop at node %d", i)
		}
	}
	if got, want := origSum, adjSum+p.LocalBytes; got != want {
		return fmt.Errorf("skew: byte conservation violated: orig=%d adjusted+local=%d", got, want)
	}
	return nil
}
