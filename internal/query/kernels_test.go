package query

import (
	"math/rand"
	"reflect"
	"testing"
)

// mapJoin is the build the local join replaced — key → slice of left values in
// a Go map, the output grown by append — kept as localJoin's oracle.
func mapJoin(left, right []Row) []Row {
	build := make(map[int64][]int64)
	for _, row := range left {
		build[row.Key] = append(build[row.Key], row.Value)
	}
	var out []Row
	for _, row := range right {
		for _, lv := range build[row.Key] {
			out = append(out, Row{Key: row.Key, Value: lv + row.Value})
		}
	}
	return out
}

// kernelKeys are the key populations the kernel tests draw from: a handful of
// keys that repeat, keys a table of any size sends to one home slot's
// neighbourhood unless the hash reads every bit, and the full int64 range.
var kernelKeys = []func(*rand.Rand) int64{
	func(rng *rand.Rand) int64 { return rng.Int63n(12) - 4 },
	func(rng *rand.Rand) int64 { return rng.Int63n(300) << 44 },
	func(rng *rand.Rand) int64 { return int64(rng.Uint64()) },
}

// TestLocalJoinMatchesMapBuild: element for element — right rows in arrival
// order, each against its key's left rows in arrival order — on inputs with
// duplicate keys on both sides, keys that match nothing on either side, a
// side that is empty and a fragment that is empty.
func TestLocalJoinMatchesMapBuild(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := kernelKeys[seed%3]
		var lefts, rights int
		switch seed % 10 {
		case 0: // an empty fragment
		case 1:
			rights = 1 + rng.Intn(50) // nothing to build from
		case 2:
			lefts = 1 + rng.Intn(50) // nothing probes
		default:
			lefts, rights = rng.Intn(400), rng.Intn(400)
		}
		left := make([]Row, lefts)
		for i := range left {
			left[i] = Row{Key: key(rng), Value: rng.Int63n(1 << 40)}
		}
		right := make([]Row, rights)
		for i := range right {
			right[i] = Row{Key: key(rng) + int64(rng.Intn(2)), Value: rng.Int63n(1 << 40)} // half the key space matches only by accident
		}
		if got, want := localJoin(left, right), mapJoin(left, right); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d left, %d right): local join returned %v, the map build %v", seed, lefts, rights, got, want)
		}
	}
}

// TestGroupAndDedupMatchMaps: the combiner (groupSums) against a Go map's
// groups in first-appearance order, the final group-by (sumByKey) against the
// map plus mapToRows (what the aggregate ran before, and what Reference still
// runs), dedup against a map[Row]bool in first-occurrence order.
func TestGroupAndDedupMatchMaps(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := kernelKeys[seed%3]
		rows := make([]Row, rng.Intn(600)*int(seed%7)/6)
		for i := range rows {
			rows[i] = Row{Key: key(rng), Value: rng.Int63n(5) - 2}
		}
		sums := make(map[int64]int64)
		var firsts []int64
		seen := make(map[Row]bool)
		var distinct []Row
		for _, row := range rows {
			if _, ok := sums[row.Key]; !ok {
				firsts = append(firsts, row.Key)
			}
			sums[row.Key] += row.Value
			if !seen[row] {
				seen[row] = true
				distinct = append(distinct, row)
			}
		}
		groups := []Row{}
		for _, k := range firsts {
			groups = append(groups, Row{Key: k, Value: sums[k]})
		}
		if got := groupSums(rows); !reflect.DeepEqual(got, groups) {
			t.Fatalf("seed %d: groupSums returned %v, the map in first-appearance order %v", seed, got, groups)
		}
		if got, want := sumByKey(rows), mapToRows(sums); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sumByKey returned %v, the map %v", seed, got, want)
		}
		if got := dedup(rows); !reflect.DeepEqual(got, distinct) {
			t.Fatalf("seed %d: dedup returned %v, want %v", seed, got, distinct)
		}
	}
}

// TestKeyIndexNumbersKeysInOrder: numbers are dense and in order of first
// appearance, survive every growth, and a lookup adds nothing.
func TestKeyIndexNumbersKeysInOrder(t *testing.T) {
	for _, key := range kernelKeys {
		rng := rand.New(rand.NewSource(7))
		var index keyIndex
		want := map[int64]int32{}
		if got := index.find(1, false); got != -1 {
			t.Fatalf("empty index knows key 1 as %d", got)
		}
		for i := 0; i < 5000; i++ {
			k := key(rng)
			num, known := want[k]
			if got := index.find(k, false); known && got != num || !known && got != -1 {
				t.Fatalf("lookup of %d: %d, want %d (known: %v)", k, got, num, known)
			}
			if !known {
				num = int32(len(want))
				want[k] = num
			}
			if got := index.find(k, true); got != num {
				t.Fatalf("key %d numbered %d, want %d", k, got, num)
			}
		}
		if index.keys != len(want) {
			t.Errorf("index holds %d keys, want %d", index.keys, len(want))
		}
	}
}
