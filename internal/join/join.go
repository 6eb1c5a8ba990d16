// Package join is the tuple-level distributed join engine: it materialises
// actual relations, hash-partitions them across a cluster, redistributes the
// partitions through query.Exchange (application-level placement, the shuffle
// as one coflow on the simulated fabric, routing), and executes the local
// hash joins in parallel — the full execution path of the paper's Figure 3 at
// a scale a test machine can hold in memory.
//
// The figure-scale experiments never materialise tuples (they work on the
// chunk matrix directly); this engine exists to prove end-to-end correctness:
// every placement scheduler and the skew handler must produce exactly the
// output cardinality of a single-node reference join.
package join

import (
	"fmt"
	"slices"

	"ccf/internal/parallel"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/query"
	"ccf/internal/skew"
)

// Tuple is one row: the join key plus a payload width in bytes (payload
// contents are irrelevant to redistribution and cardinality, so the engine
// carries sizes, not buffers — the simulator only needs volumes).
type Tuple struct {
	Key     int64
	Payload int64
}

// Relation is a named bag of tuples.
type Relation struct {
	Name   string
	Tuples []Tuple
}

// Bytes returns the relation's total size.
func (r *Relation) Bytes() int64 {
	var s int64
	for _, t := range r.Tuples {
		s += t.Payload
	}
	return s
}

// KeyFreq returns key → multiplicity.
func (r *Relation) KeyFreq() map[int64]int64 {
	f := make(map[int64]int64, len(r.Tuples))
	for _, t := range r.Tuples {
		f[t.Key]++
	}
	return f
}

// Cluster holds the pre-shuffle state: each node's fragments of both input
// relations.
type Cluster struct {
	N     int
	Part  partition.Partitioner
	Left  [][]Tuple // Left[i] = node i's customer-side tuples
	Right [][]Tuple // Right[i] = node i's orders-side tuples
}

// NewCluster creates an empty cluster of n nodes partitioned by part.
func NewCluster(n int, part partition.Partitioner) *Cluster {
	return &Cluster{N: n, Part: part, Left: make([][]Tuple, n), Right: make([][]Tuple, n)}
}

// LoadByPlacement places each tuple on the node given by place(tupleIndex),
// letting tests construct arbitrary localities (e.g. zipf-aligned ones).
func (c *Cluster) LoadByPlacement(left bool, r *Relation, place func(i int, t Tuple) int) {
	for i, t := range r.Tuples {
		node := place(i, t)
		if left {
			c.Left[node] = append(c.Left[node], t)
		} else {
			c.Right[node] = append(c.Right[node], t)
		}
	}
}

// ChunkMatrix derives h_ik (bytes per node per partition, both relations
// combined) from the cluster's current state.
func (c *Cluster) ChunkMatrix() (*partition.ChunkMatrix, error) {
	m, err := partition.NewChunkMatrix(c.N, c.Part.P())
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.N; i++ {
		for _, t := range c.Left[i] {
			m.Add(i, c.Part.Partition(t.Key), t.Payload)
		}
		for _, t := range c.Right[i] {
			m.Add(i, c.Part.Partition(t.Key), t.Payload)
		}
	}
	return m, nil
}

// Options configures a distributed join execution. Ports run at
// netsim.DefaultPortBandwidth and the local joins on GOMAXPROCS workers.
type Options struct {
	// Scheduler decides partition destinations. Required.
	Scheduler placement.Scheduler
	// SkewThreshold enables partial duplication for keys whose right-side
	// (large relation) frequency fraction exceeds it; 0 disables.
	SkewThreshold float64
}

// Result reports one distributed join execution.
type Result struct {
	// OutputTuples is the join cardinality (must equal the reference join).
	OutputTuples int64
	// TrafficBytes moved across the network (shuffle + broadcast).
	TrafficBytes int64
	// CommTime is the shuffle coflow's completion time in seconds as
	// simulated on the fabric.
	CommTime float64
	// BottleneckBytes is the max port load (CommTime × bandwidth).
	BottleneckBytes int64
	// SkewedKeys lists the keys partial duplication kept local.
	SkewedKeys []int64
	// Placement is the partition→node assignment used.
	Placement *partition.Placement
}

// Reference computes the join cardinality on a single node via frequency
// multiplication: |L ⋈ R| = Σ_k freqL(k) · freqR(k).
func Reference(left, right *Relation) int64 {
	lf := left.KeyFreq()
	var out int64
	for _, t := range right.Tuples {
		out += lf[t.Key]
	}
	return out
}

// Execute runs the full distributed pipeline on a loaded cluster:
//
//  1. optional skew detection on the right relation; tuples of hot keys leave
//     the shuffle (partial duplication: the right ones stay home, the few
//     left ones are broadcast to every other node),
//  2. query.Exchange of everything else: application-level placement over
//     the adjusted chunk matrix, the shuffle and the broadcast as one coflow
//     on the simulated fabric, the tuples routed to their destinations,
//  3. parallel local hash joins,
//
// and returns cardinality plus network metrics. Track join is the same call
// on a cluster whose partitioner gives every key its own partition.
func Execute(c *Cluster, opts Options) (*Result, error) {
	if opts.Scheduler == nil {
		return nil, fmt.Errorf("join: Options.Scheduler is required")
	}
	n := c.N
	res := &Result{}

	// Skew detection: exact counting over the large relation. One map for all
	// nodes: per-node counts merged afterwards cost more than they save (the
	// merge is one map operation per node and distinct key, serially).
	hot := map[int64]int{} // hot key → its index in res.SkewedKeys
	if opts.SkewThreshold > 0 {
		freq := make(map[int64]int64)
		var total int64
		for _, frag := range c.Right {
			for _, t := range frag {
				freq[t.Key]++
			}
			total += int64(len(frag))
		}
		for _, h := range skew.DetectHeavy(freq, total, opts.SkewThreshold) {
			res.SkewedKeys = append(res.SkewedKeys, h.Key)
		}
		slices.Sort(res.SkewedKeys)
		for h, k := range res.SkewedKeys {
			hot[k] = h
		}
	}

	// Split the hot keys off, node by node. A hot left tuple is visible on
	// every node after the broadcast, so each hot right tuple joins once, at
	// home, with all of them: that part of the output needs no local join. A
	// node's fragments are copied only when it holds a hot tuple.
	nh := len(hot)
	hotRows := make([]int64, n*nh*2) // per node and hot key: left tuples, right tuples
	hotBytes := make([]int64, n)     // hot left bytes held by node i
	left, right := c.Left, c.Right
	if nh > 0 {
		left, right = make([][]Tuple, n), make([][]Tuple, n)
		_ = parallel.ForEach(0, n, func(i int) error { // no task fails
			rows := hotRows[i*nh*2 : (i+1)*nh*2]
			left[i] = splitHot(c.Left[i], hot, func(h int, t Tuple) {
				rows[2*h]++
				hotBytes[i] += t.Payload
			})
			right[i] = splitHot(c.Right[i], hot, func(h int, _ Tuple) { rows[2*h+1]++ })
			return nil
		})
	}
	for h := 0; h < nh; h++ {
		var lefts, rights int64
		for i := 0; i < n; i++ {
			lefts += hotRows[(i*nh+h)*2]
			rights += hotRows[(i*nh+h)*2+1]
		}
		res.OutputTuples += lefts * rights
	}
	initial := &partition.Loads{Egress: make([]int64, n), Ingress: make([]int64, n)}
	broadcast := make([]int64, n*n)
	for i, b := range hotBytes {
		for j := 0; j < n; j++ {
			if j != i {
				broadcast[i*n+j] = b
				initial.Egress[i] += b
				initial.Ingress[j] += b
			}
		}
	}

	x, err := query.Exchange(opts.Scheduler, c.Part, left, right,
		func(t Tuple) int64 { return t.Key }, func(t Tuple) int64 { return t.Payload }, initial, broadcast)
	if err != nil {
		return nil, fmt.Errorf("join: %w", err)
	}
	res.Placement = x.Placement
	res.CommTime = x.TimeSec
	res.TrafficBytes = int64(x.MovedBytes + 0.5)
	res.BottleneckBytes = x.BottleneckBytes

	counts, err := parallel.Run(0, n, func(d int) (int64, error) { return localHashJoin(x.Sides(d)), nil })
	if err != nil {
		return nil, err
	}
	for _, cnt := range counts {
		res.OutputTuples += cnt
	}
	return res, nil
}

// splitHot returns frag without its hot tuples and calls hit with each hot
// tuple and its index among the hot keys. A fragment without hot tuples is
// returned as it is.
func splitHot(frag []Tuple, hot map[int64]int, hit func(h int, t Tuple)) []Tuple {
	first := slices.IndexFunc(frag, func(t Tuple) bool { _, ok := hot[t.Key]; return ok })
	if first < 0 {
		return frag
	}
	cold := append(make([]Tuple, 0, len(frag)-1), frag[:first]...)
	for _, t := range frag[first:] {
		if h, ok := hot[t.Key]; ok {
			hit(h, t)
		} else {
			cold = append(cold, t)
		}
	}
	return cold
}

// localHashJoin counts the matches of a node's right tuples against its left
// ones.
func localHashJoin(left, right []Tuple) int64 {
	build := make(map[int64]int64, len(left))
	for _, t := range left {
		build[t.Key]++
	}
	var out int64
	for _, t := range right {
		out += build[t.Key]
	}
	return out
}
