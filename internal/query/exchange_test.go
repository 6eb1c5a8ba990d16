package query

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ccf/internal/partition"
	"ccf/internal/placement"
)

// randomSides draws a join's two inputs over n nodes, every row numbered in
// its Value: empty nodes, nodes that hold only one side's rows, and now and
// then an empty side or no right input at all.
func randomSides(rng *rand.Rand, n int) (left, right [][]Row) {
	left = make([][]Row, n)
	if rng.Intn(5) > 0 {
		right = make([][]Row, n)
	}
	serial := int64(0)
	for i := 0; i < n; i++ {
		for _, side := range [][][]Row{left, right} {
			if side == nil || rng.Intn(4) == 0 {
				continue
			}
			for r := rng.Intn(60); r > 0; r-- {
				side[i] = append(side[i], Row{Key: rng.Int63n(50) - 10, Value: serial})
				serial++
			}
		}
	}
	if rng.Intn(8) == 0 {
		left = make([][]Row, n) // an empty left side
	}
	return left, right
}

// TestExchangeRoutesInInputOrder pins what the local operators and every
// Gather digest lean on: a row goes to the destination of its key's
// partition, and a destination lists its left rows in input order — node 0's
// as node 0 held them, then node 1's — and then its right rows in input
// order, split where Split says.
func TestExchangeRoutesInInputOrder(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		part := partition.ModPartitioner{NumPartitions: 1 + rng.Intn(20)}
		left, right := randomSides(rng, n)
		const payload = 8
		for _, s := range []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}} {
			x, err := Exchange(s, part, left, right, rowKey, func(Row) int64 { return payload }, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantL, wantR := make([][]Row, n), make([][]Row, n)
			vol := make([]int64, n*n)
			for _, side := range []struct{ in, want [][]Row }{{left, wantL}, {right, wantR}} {
				for i, f := range side.in {
					for _, row := range f {
						d := x.Placement.Dest[part.Partition(row.Key)]
						side.want[d] = append(side.want[d], row)
						if d != i {
							vol[i*n+d] += payload
						}
					}
				}
			}
			for d := 0; d < n; d++ {
				gotL, gotR := x.Sides(d)
				if len(gotL)+len(gotR) == 0 && x.Frags[d] != nil {
					t.Fatalf("seed %d, %s: node %d receives nothing but holds %v", seed, s.Name(), d, x.Frags[d])
				}
				if !slices.Equal(gotL, wantL[d]) || !slices.Equal(gotR, wantR[d]) {
					t.Fatalf("seed %d, %s: node %d holds left %v and right %v, want %v and %v", seed, s.Name(), d, gotL, gotR, wantL[d], wantR[d])
				}
			}
			if !reflect.DeepEqual(x.Volumes, vol) {
				t.Fatalf("seed %d, %s: volumes %v, the routed rows weigh %v", seed, s.Name(), x.Volumes, vol)
			}
			if int64(x.MovedBytes+0.5) != x.TrafficBytes {
				t.Errorf("seed %d, %s: simulator moved %g bytes, loads say %d", seed, s.Name(), x.MovedBytes, x.TrafficBytes)
			}
		}
	}
}

// TestExchangeCountsBroadcastAndRowSizes: rows weigh what size says, on
// either side, and the broadcast rides in the same coflow on top of the
// initial loads.
func TestExchangeCountsBroadcastAndRowSizes(t *testing.T) {
	part := partition.ModPartitioner{NumPartitions: 2}
	left := [][]Row{{{Key: 0, Value: 30}}, {{Key: 0, Value: 7}}}
	right := [][]Row{{{Key: 1, Value: 5}}, nil}
	initial := &partition.Loads{Egress: []int64{0, 100}, Ingress: []int64{100, 0}}
	broadcast := []int64{0, 0, 100, 0}
	x, err := Exchange(placement.Hash{}, part, left, right, rowKey, func(r Row) int64 { return r.Value }, initial, broadcast)
	if err != nil {
		t.Fatal(err)
	}
	// Hash sends partition k to node k: 5 bytes go 0→1, 7 + the broadcast's 100 go 1→0.
	if want := []int64{0, 5, 107, 0}; !reflect.DeepEqual(x.Volumes, want) {
		t.Errorf("volumes %v, want %v", x.Volumes, want)
	}
	if x.TrafficBytes != 112 || x.BottleneckBytes != 107 || x.MovedBytes != 112 {
		t.Errorf("traffic %d, bottleneck %d, moved %g; want 112, 107, 112", x.TrafficBytes, x.BottleneckBytes, x.MovedBytes)
	}
	if want := 107 / 128e6; x.TimeSec != want {
		t.Errorf("CCT %g, want %g", x.TimeSec, want)
	}
	if want := [][]Row{{{Key: 0, Value: 30}, {Key: 0, Value: 7}}, {{Key: 1, Value: 5}}}; !reflect.DeepEqual(x.Frags, want) || !slices.Equal(x.Split, []int{2, 0}) {
		t.Errorf("fragments %v split at %v, want %v split at [2 0]", x.Frags, x.Split, want)
	}
	if _, err := Exchange(placement.Hash{}, part, left, right, rowKey, func(r Row) int64 { return r.Value }, nil, make([]int64, 3)); err == nil {
		t.Error("accepted 3 broadcast volumes for 2 nodes")
	}
	if _, err := Exchange(placement.Hash{}, part, left, right[:1], rowKey, func(r Row) int64 { return r.Value }, nil, nil); err == nil {
		t.Error("accepted a right input over 1 node beside a left one over 2")
	}
}

// keyAsPartition is a broken Partitioner: it returns the key itself.
type keyAsPartition struct{ p int }

func (kp keyAsPartition) Partition(key int64) int { return int(key) }
func (kp keyAsPartition) P() int                  { return kp.p }

// TestExchangeRejectsPartitionOutOfRange: a partition index outside [0, P())
// is the partitioner's bug and Exchange's error — not a panic, which on a pool
// worker the caller could not recover from, and not a write into the next
// node's matrix row. The lowest failing source node names the row; within a
// node, its left rows are asked before its right rows.
func TestExchangeRejectsPartitionOutOfRange(t *testing.T) {
	part := keyAsPartition{p: 4}
	for _, c := range []struct {
		name        string
		left, right [][]Row
		want        string
	}{
		{"k = P on node 0", [][]Row{{{Key: 1}, {Key: 4}}, {{Key: 2}}}, nil, "query: partitioner returned 4 for key 4, want [0, 4)"},
		{"k = P on the last node", [][]Row{{{Key: 1}}, {{Key: 2}, {Key: 4}}}, nil, "query: partitioner returned 4 for key 4, want [0, 4)"},
		{"k = -1", [][]Row{{{Key: 3}}, {{Key: -1}}}, nil, "query: partitioner returned -1 for key -1, want [0, 4)"},
		{"both nodes", [][]Row{{{Key: 0}, {Key: 9}}, {{Key: -1}}}, nil, "query: partitioner returned 9 for key 9, want [0, 4)"},
		{"right row on node 0, left row on node 1", [][]Row{{{Key: 0}}, {{Key: 7}}}, [][]Row{{{Key: 5}}, nil}, "query: partitioner returned 5 for key 5, want [0, 4)"},
		{"both sides of node 0", [][]Row{{{Key: 6}}, nil}, [][]Row{{{Key: 5}}, {{Key: -1}}}, "query: partitioner returned 6 for key 6, want [0, 4)"},
		{"a node with right rows only", [][]Row{nil, {{Key: 1}}}, [][]Row{{{Key: 8}}, nil}, "query: partitioner returned 8 for key 8, want [0, 4)"},
	} {
		for _, s := range []placement.Scheduler{placement.Hash{}, placement.CCF{}} {
			x, err := Exchange(s, part, c.left, c.right, rowKey, func(Row) int64 { return 8 }, nil, nil)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s, %s: error %v, want %q", c.name, s.Name(), err, c.want)
			}
			if x != nil {
				t.Errorf("%s, %s: fragments returned beside the error", c.name, s.Name())
			}
		}
	}
}
