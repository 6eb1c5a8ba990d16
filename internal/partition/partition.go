// Package partition models the data-placement state of a distributed
// operator: the chunk matrix h_ik (bytes of partition k resident on node i),
// the hash partitioning function used to build it, and the assignment of
// partitions to destination nodes produced by an application-level scheduler.
//
// Terminology follows the paper: an individual partitioned piece of data on
// one node is a chunk; the group of chunks sharing a hash value is a
// partition. A placement (the x_jk decision variables of the CCF model) maps
// every partition to exactly one destination node.
package partition

import (
	"errors"
	"fmt"
	"slices"
)

// ChunkMatrix holds h_ik: the number of bytes of partition k stored on node
// i before redistribution. The matrix is dense and row-major: entry (i, k)
// lives at H[i*P+k]. Sizes are bytes throughout.
type ChunkMatrix struct {
	N int     // number of nodes
	P int     // number of partitions
	H []int64 // len N*P, row-major
}

// NewChunkMatrix allocates an all-zero chunk matrix for n nodes and p
// partitions. Non-positive dimensions are an error, not a panic, so callers
// deriving n or p from external input (traces, query plans, CLI flags) can
// propagate the failure.
func NewChunkMatrix(n, p int) (*ChunkMatrix, error) {
	if n <= 0 || p <= 0 {
		return nil, fmt.Errorf("partition: invalid chunk matrix dimensions n=%d p=%d", n, p)
	}
	return &ChunkMatrix{N: n, P: p, H: make([]int64, n*p)}, nil
}

// MustChunkMatrix is NewChunkMatrix for statically-known dimensions (tests,
// examples, literal matrices); it panics on invalid input.
func MustChunkMatrix(n, p int) *ChunkMatrix {
	m, err := NewChunkMatrix(n, p)
	if err != nil {
		panic(err)
	}
	return m
}

// At returns h_ik, the bytes of partition k on node i.
func (m *ChunkMatrix) At(i, k int) int64 { return m.H[i*m.P+k] }

// Set stores h_ik.
func (m *ChunkMatrix) Set(i, k int, v int64) { m.H[i*m.P+k] = v }

// Add increments h_ik by v.
func (m *ChunkMatrix) Add(i, k int, v int64) { m.H[i*m.P+k] += v }

// Row returns the slice of chunk sizes held by node i (one entry per
// partition). The slice aliases the matrix storage.
func (m *ChunkMatrix) Row(i int) []int64 { return m.H[i*m.P : (i+1)*m.P] }

// PartitionTotals returns, for each partition k, the total bytes of that
// partition across all nodes (Σ_i h_ik).
func (m *ChunkMatrix) PartitionTotals() []int64 {
	tot := make([]int64, m.P)
	for i := 0; i < m.N; i++ {
		row := m.Row(i)
		for k, v := range row {
			tot[k] += v
		}
	}
	return tot
}

// NodeTotals returns, for each node i, the total bytes resident on that node
// (Σ_k h_ik).
func (m *ChunkMatrix) NodeTotals() []int64 {
	tot := make([]int64, m.N)
	for i := 0; i < m.N; i++ {
		var s int64
		for _, v := range m.Row(i) {
			s += v
		}
		tot[i] = s
	}
	return tot
}

// TotalBytes returns Σ_ik h_ik.
func (m *ChunkMatrix) TotalBytes() int64 {
	var s int64
	for _, v := range m.H {
		s += v
	}
	return s
}

// MaxChunk returns, for each partition, the largest single chunk size and
// the node holding it. Ties resolve to the lowest node index, matching the
// deterministic argmax the Mini scheduler uses.
func (m *ChunkMatrix) MaxChunk() (size []int64, node []int) {
	size = make([]int64, m.P)
	node = make([]int, m.P)
	for i := 0; i < m.N; i++ {
		row := m.Row(i)
		for k, v := range row {
			if i == 0 || v > size[k] {
				size[k] = v
				node[k] = i
			}
		}
	}
	return size, node
}

// Clone returns a deep copy of the matrix.
func (m *ChunkMatrix) Clone() *ChunkMatrix {
	c := &ChunkMatrix{N: m.N, P: m.P, H: make([]int64, len(m.H))}
	copy(c.H, m.H)
	return c
}

// Validate checks structural invariants: dimensions match storage and no
// chunk is negative.
func (m *ChunkMatrix) Validate() error {
	if m.N <= 0 || m.P <= 0 {
		return fmt.Errorf("partition: non-positive dimensions n=%d p=%d", m.N, m.P)
	}
	if len(m.H) != m.N*m.P {
		return fmt.Errorf("partition: storage length %d != n*p = %d", len(m.H), m.N*m.P)
	}
	for idx, v := range m.H {
		if v < 0 {
			return fmt.Errorf("partition: negative chunk %d at (%d,%d)", v, idx/m.P, idx%m.P)
		}
	}
	return nil
}

// Placement is the output of an application-level scheduler: Dest[k] is the
// destination node of partition k (the j with x_jk = 1).
type Placement struct {
	Dest []int
}

// NewPlacement allocates a placement for p partitions with every destination
// initialised to -1 (unassigned).
func NewPlacement(p int) *Placement {
	d := make([]int, p)
	for k := range d {
		d[k] = -1
	}
	return &Placement{Dest: d}
}

// ErrUnassigned is returned by Validate when a partition has no destination.
var ErrUnassigned = errors.New("partition: placement leaves a partition unassigned")

// Validate checks that the placement covers all p partitions of an n-node
// system: every destination is in [0, n).
func (pl *Placement) Validate(n, p int) error {
	if len(pl.Dest) != p {
		return fmt.Errorf("partition: placement covers %d partitions, want %d", len(pl.Dest), p)
	}
	for k, d := range pl.Dest {
		if d == -1 {
			return fmt.Errorf("%w: partition %d", ErrUnassigned, k)
		}
		if d < 0 || d >= n {
			return fmt.Errorf("partition: partition %d assigned to invalid node %d (n=%d)", k, d, n)
		}
	}
	return nil
}

// Loads holds the per-port byte loads induced by a placement on the
// non-blocking switch model: Egress[i] is the bytes node i must send to
// remote destinations, Ingress[j] is the bytes node j must receive.
type Loads struct {
	Egress  []int64
	Ingress []int64
}

// Max returns the bottleneck load T = max(max egress, max ingress) — the
// objective of the CCF model (3). For a single coflow under MADD allocation
// the communication time is exactly T divided by the port bandwidth.
func (l *Loads) Max() int64 {
	var m int64
	for _, v := range l.Egress {
		if v > m {
			m = v
		}
	}
	for _, v := range l.Ingress {
		if v > m {
			m = v
		}
	}
	return m
}

// Traffic returns the total bytes crossing the network (Σ egress, which by
// conservation equals Σ ingress).
func (l *Loads) Traffic() int64 {
	var s int64
	for _, v := range l.Egress {
		s += v
	}
	return s
}

// ComputeLoads derives the port loads of a placement over a chunk matrix,
// starting from optional initial volumes (e.g. the broadcast flows the skew
// handler schedules before the main redistribution). initial may be nil.
func ComputeLoads(m *ChunkMatrix, pl *Placement, initial *Loads) (*Loads, error) {
	if err := pl.Validate(m.N, m.P); err != nil {
		return nil, err
	}
	l := &Loads{Egress: make([]int64, m.N), Ingress: make([]int64, m.N)}
	if initial != nil {
		if len(initial.Egress) != m.N || len(initial.Ingress) != m.N {
			return nil, fmt.Errorf("partition: initial loads sized for %d/%d ports, want %d",
				len(initial.Egress), len(initial.Ingress), m.N)
		}
		copy(l.Egress, initial.Egress)
		copy(l.Ingress, initial.Ingress)
	}
	for i := 0; i < m.N; i++ {
		row := m.Row(i)
		for k, v := range row {
			if v == 0 {
				continue
			}
			d := pl.Dest[k]
			if d == i {
				continue // local move, no network cost
			}
			l.Egress[i] += v
			l.Ingress[d] += v
		}
	}
	return l, nil
}

// FlowVolumes materialises the v_ij matrix of the coflow induced by a
// placement: volumes[i*n+j] is the bytes node i sends to node j (i != j).
// Chunks whose destination equals their holder generate no flow.
func FlowVolumes(m *ChunkMatrix, pl *Placement) ([]int64, error) {
	return FlowVolumesInto(nil, m, pl)
}

// FlowVolumesInto is FlowVolumes writing into vol's storage when it holds
// n×n entries (it allocates otherwise); whatever vol held is overwritten.
func FlowVolumesInto(vol []int64, m *ChunkMatrix, pl *Placement) ([]int64, error) {
	if err := pl.Validate(m.N, m.P); err != nil {
		return nil, err
	}
	n := m.N
	vol = slices.Grow(vol[:0], n*n)[:n*n]
	clear(vol)
	dest := pl.Dest[:m.P]
	for i := 0; i < n; i++ {
		out := vol[i*n : (i+1)*n]
		row := m.Row(i)
		dest := dest[:len(row)] // Row(i) has P entries; resliced so dest[k] carries no bounds check
		for k, v := range row {
			out[dest[k]] += v
		}
		out[i] = 0 // chunks already at their destination do not move
	}
	return vol, nil
}

// Partitioner maps join keys to partitions. The paper uses the simple
// modulus hash f(k) = k mod p throughout; alternative partitioners are
// provided for the tuple-level join engine.
type Partitioner interface {
	// Partition returns the partition index in [0, P()) for a join key.
	Partition(key int64) int
	// P returns the number of partitions.
	P() int
}

// ModPartitioner implements f(key) = key mod p, the paper's hash function.
type ModPartitioner struct{ NumPartitions int }

// Partition implements Partitioner.
func (mp ModPartitioner) Partition(key int64) int {
	v := key % int64(mp.NumPartitions)
	if v < 0 {
		v += int64(mp.NumPartitions)
	}
	return int(v)
}

// P implements Partitioner.
func (mp ModPartitioner) P() int { return mp.NumPartitions }
