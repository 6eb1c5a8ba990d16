package query

import (
	"math/rand"
	"reflect"
	"testing"

	"ccf/internal/partition"
	"ccf/internal/placement"
)

// TestExchangeRoutesInInputOrder pins what the local operators and every
// Gather digest lean on: a row goes to the destination of its key's
// partition, and a destination lists its rows in input order — node 0's as
// node 0 held them, then node 1's.
func TestExchangeRoutesInInputOrder(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		part := partition.ModPartitioner{NumPartitions: 1 + rng.Intn(20)}
		frags := make([][]Row, n)
		serial := int64(0)
		for i := range frags {
			for r := rng.Intn(60); r > 0; r-- {
				frags[i] = append(frags[i], Row{Key: rng.Int63n(50) - 10, Value: serial})
				serial++
			}
		}
		const payload = 8
		for _, s := range []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}} {
			x, err := Exchange(s, part, frags, rowKey, func(Row) int64 { return payload }, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]Row, n)
			vol := make([]int64, n*n)
			for i, f := range frags {
				for _, row := range f {
					d := x.Placement.Dest[part.Partition(row.Key)]
					want[d] = append(want[d], row)
					if d != i {
						vol[i*n+d] += payload
					}
				}
			}
			if !reflect.DeepEqual(x.Frags, want) {
				t.Fatalf("seed %d, %s: fragments %v, want %v", seed, s.Name(), x.Frags, want)
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

// TestExchangeCountsBroadcastAndRowSizes: rows weigh what size says, and the
// broadcast rides in the same coflow on top of the initial loads.
func TestExchangeCountsBroadcastAndRowSizes(t *testing.T) {
	part := partition.ModPartitioner{NumPartitions: 2}
	frags := [][]Row{{{Key: 0, Value: 30}, {Key: 1, Value: 5}}, {{Key: 0, Value: 7}}}
	initial := &partition.Loads{Egress: []int64{0, 100}, Ingress: []int64{100, 0}}
	broadcast := []int64{0, 0, 100, 0}
	x, err := Exchange(placement.Hash{}, part, frags, rowKey, func(r Row) int64 { return r.Value }, initial, broadcast)
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
	if _, err := Exchange(placement.Hash{}, part, frags, rowKey, func(r Row) int64 { return r.Value }, nil, make([]int64, 3)); err == nil {
		t.Error("accepted 3 broadcast volumes for 2 nodes")
	}
}

// keyAsPartition is a broken Partitioner: it returns the key itself.
type keyAsPartition struct{ p int }

func (kp keyAsPartition) Partition(key int64) int { return int(key) }
func (kp keyAsPartition) P() int                  { return kp.p }

// TestExchangeRejectsPartitionOutOfRange: a partition index outside [0, P())
// is the partitioner's bug and Exchange's error — not a panic, which on a pool
// worker the caller could not recover from, and not a write into the next
// node's matrix row. The lowest failing source node names the row.
func TestExchangeRejectsPartitionOutOfRange(t *testing.T) {
	part := keyAsPartition{p: 4}
	for _, c := range []struct {
		name  string
		frags [][]Row
		want  string
	}{
		{"k = P on node 0", [][]Row{{{Key: 1}, {Key: 4}}, {{Key: 2}}}, "query: partitioner returned 4 for key 4, want [0, 4)"},
		{"k = P on the last node", [][]Row{{{Key: 1}}, {{Key: 2}, {Key: 4}}}, "query: partitioner returned 4 for key 4, want [0, 4)"},
		{"k = -1", [][]Row{{{Key: 3}}, {{Key: -1}}}, "query: partitioner returned -1 for key -1, want [0, 4)"},
		{"both nodes", [][]Row{{{Key: 0}, {Key: 9}}, {{Key: -1}}}, "query: partitioner returned 9 for key 9, want [0, 4)"},
	} {
		for _, s := range []placement.Scheduler{placement.Hash{}, placement.CCF{}} {
			x, err := Exchange(s, part, c.frags, rowKey, func(Row) int64 { return 8 }, nil, nil)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s, %s: error %v, want %q", c.name, s.Name(), err, c.want)
			}
			if x != nil {
				t.Errorf("%s, %s: fragments returned beside the error", c.name, s.Name())
			}
		}
	}
}
