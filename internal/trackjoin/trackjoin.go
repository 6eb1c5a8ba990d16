// Package trackjoin implements per-key scheduling, the finest-grained
// placement level the paper discusses (footnote 6): track join
// (Polychroniou et al., SIGMOD'14) minimises network traffic *per join key*
// rather than per hash partition, and the paper notes CCF "can be also
// extended to that level".
//
// The extension is exactly a change of granularity: build the chunk matrix
// with one micro-partition per distinct key and feed it to the same
// application-level schedulers. A KeyPartitioner adapts that granularity to
// the tuple-level join engine, so the whole pipeline — placement, skew
// handling, shuffle simulation, local joins, cardinality verification —
// runs unchanged at key level:
//
//   - Mini over the key matrix = two-phase track join (each key's tuples
//     gather at the node already holding most of that key's bytes —
//     minimal traffic, the paper's per-key baseline);
//   - CCF over the key matrix = per-key CCF, trading a little traffic for
//     a smaller bottleneck, as at partition level.
package trackjoin

import (
	"fmt"
	"slices"

	"ccf/internal/join"
)

// KeyPartitioner maps each distinct join key to its own micro-partition.
// It implements partition.Partitioner over a closed key set.
type KeyPartitioner struct {
	index map[int64]int
}

// NewKeyPartitioner builds the key→micro-partition index from the distinct
// keys of the given relations. Keys are indexed in sorted order so the
// mapping is deterministic.
func NewKeyPartitioner(relations ...*join.Relation) (*KeyPartitioner, error) {
	index := make(map[int64]int)
	for _, r := range relations {
		for _, t := range r.Tuples {
			index[t.Key] = 0
		}
	}
	if len(index) == 0 {
		return nil, fmt.Errorf("trackjoin: no keys observed")
	}
	keys := make([]int64, 0, len(index))
	for k := range index {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		index[k] = i
	}
	return &KeyPartitioner{index: index}, nil
}

// Partition implements partition.Partitioner. Unknown keys (never observed
// at build time) fold onto micro-partition 0.
func (kp *KeyPartitioner) Partition(key int64) int { return kp.index[key] }

// P implements partition.Partitioner.
func (kp *KeyPartitioner) P() int { return len(kp.index) }

// BuildCluster loads two relations onto a cluster partitioned at key
// granularity, using the provided per-tuple home assignment.
func BuildCluster(n int, left, right *join.Relation, place func(i int, t join.Tuple) int) (*join.Cluster, *KeyPartitioner, error) {
	kp, err := NewKeyPartitioner(left, right)
	if err != nil {
		return nil, nil, err
	}
	cl := join.NewCluster(n, kp)
	cl.LoadByPlacement(true, left, place)
	cl.LoadByPlacement(false, right, place)
	return cl, kp, nil
}
