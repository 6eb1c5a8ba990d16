package query_test

import (
	"math/rand"
	"reflect"
	"testing"

	"ccf/internal/join"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/query"
	"ccf/internal/trackjoin"
)

// serialExchange is the routing Exchange had before its sources went onto the
// pool, kept as the oracle: one goroutine, the matrix filled cell by cell, the
// partitioner asked again for every row on the way out, fragments grown by
// append — every left row first, then every right row.
func serialExchange(t *testing.T, sched placement.Scheduler, part partition.Partitioner,
	left, right [][]query.Row, size func(query.Row) int64) ([][]query.Row, []int, *placement.Evaluation) {
	t.Helper()
	n := len(left)
	m, err := partition.NewChunkMatrix(n, part.P())
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range [][][]query.Row{left, right} {
		for i, f := range side {
			for _, row := range f {
				m.Add(i, part.Partition(row.Key), size(row))
			}
		}
	}
	ev, err := placement.Evaluate(sched, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, split := make([][]query.Row, n), make([]int, n)
	for _, f := range left {
		for _, row := range f {
			d := ev.Placement.Dest[part.Partition(row.Key)]
			out[d] = append(out[d], row)
			split[d]++
		}
	}
	for _, f := range right {
		for _, row := range f {
			d := ev.Placement.Dest[part.Partition(row.Key)]
			out[d] = append(out[d], row)
		}
	}
	return out, split, ev
}

// scatter is a Partitioner whose indices do not follow key arithmetic: a
// multiplicative hash, then the modulus.
type scatter struct{ p int }

func (s scatter) Partition(key int64) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15 >> 32) % uint64(s.p))
}
func (s scatter) P() int { return s.p }

// TestExchangeMatchesSerialRouting: on random inputs — empty fragments, empty
// nodes at either end, one node only, a node with only right rows, an empty
// side, no right side — under a modulus, a hash and a per-key partitioner,
// Exchange decides what the serial build decided and lays every
// destination fragment out row for row as the serial append did.
func TestExchangeMatchesSerialRouting(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		left := make([][]query.Row, n)
		var right [][]query.Row
		if seed%5 > 0 {
			right = make([][]query.Row, n)
		}
		keys := &join.Relation{Tuples: []join.Tuple{{Key: 0}}} // the key partitioner wants a key
		for i := 0; i < n; i++ {
			for _, side := range [][][]query.Row{left, right} {
				if side == nil || rng.Intn(4) == 0 {
					continue // an empty fragment
				}
				for r := rng.Intn(200); r > 0; r-- {
					row := query.Row{Key: rng.Int63n(120) - 40, Value: rng.Int63()}
					side[i] = append(side[i], row)
					keys.Tuples = append(keys.Tuples, join.Tuple{Key: row.Key})
				}
			}
		}
		if seed%7 == 3 {
			clear(left) // an empty left side
		}
		perKey, err := trackjoin.NewKeyPartitioner(keys)
		if err != nil {
			t.Fatal(err)
		}
		size := func(r query.Row) int64 { return 8 + (r.Key&3)*50 }
		for _, part := range []partition.Partitioner{
			partition.ModPartitioner{NumPartitions: 1 + rng.Intn(40)},
			scatter{1 + rng.Intn(40)},
			perKey,
		} {
			for _, s := range []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}} {
				x, err := query.Exchange(s, part, left, right, func(r query.Row) int64 { return r.Key }, size, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, split, ev := serialExchange(t, s, part, left, right, size)
				if !reflect.DeepEqual(x.Frags, want) || !reflect.DeepEqual(x.Split, split) {
					t.Fatalf("seed %d, %T, %s: fragments differ from the serial routing\n got %v split at %v\nwant %v split at %v", seed, part, s.Name(), x.Frags, x.Split, want, split)
				}
				if !reflect.DeepEqual(x.Evaluation, ev) {
					t.Fatalf("seed %d, %T, %s: decision differs from the one on the serially built matrix\n got %+v\nwant %+v", seed, part, s.Name(), x.Evaluation, ev)
				}
			}
		}
	}
}
