package query

import (
	"math/rand"
	"reflect"
	"testing"
)

// mapJoin is the build the local join replaced — key → slice of left values in
// a Go map, the output grown by append — kept as localJoin's oracle.
func mapJoin(rows []taggedRow) []Row {
	build := make(map[int64][]int64)
	for _, tr := range rows {
		if !tr.right {
			build[tr.row.Key] = append(build[tr.row.Key], tr.row.Value)
		}
	}
	var out []Row
	for _, tr := range rows {
		if !tr.right {
			continue
		}
		for _, lv := range build[tr.row.Key] {
			out = append(out, Row{Key: tr.row.Key, Value: lv + tr.row.Value})
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
		rows := make([]taggedRow, 0, lefts+rights)
		for i := 0; i < lefts+rights; i++ {
			tr := taggedRow{row: Row{Key: key(rng), Value: rng.Int63n(1 << 40)}, right: i >= lefts}
			if tr.right {
				tr.row.Key++ // half the key space matches only by accident
				if rng.Intn(2) == 0 {
					tr.row.Key--
				}
			}
			rows = append(rows, tr)
		}
		// Arrival order interleaves the sides, as after an exchange.
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		if got, want := localJoin(rows), mapJoin(rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d left, %d right): local join returned %v, the map build %v", seed, lefts, rights, got, want)
		}
	}
}

// TestGroupAndDedupMatchMaps: sumByKey against a Go map plus mapToRows (what
// the aggregate ran before, and what Reference still runs), dedup against a
// map[Row]bool in first-occurrence order.
func TestGroupAndDedupMatchMaps(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := kernelKeys[seed%3]
		rows := make([]Row, rng.Intn(600)*int(seed%7)/6)
		for i := range rows {
			rows[i] = Row{Key: key(rng), Value: rng.Int63n(5) - 2}
		}
		sums := make(map[int64]int64)
		seen := make(map[Row]bool)
		var distinct []Row
		for _, row := range rows {
			sums[row.Key] += row.Value
			if !seen[row] {
				seen[row] = true
				distinct = append(distinct, row)
			}
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
