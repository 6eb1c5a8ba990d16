package trackjoin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ccf/internal/join"
	"ccf/internal/partition"
	"ccf/internal/placement"
)

func relationsFor(t *testing.T, seed uint64) (*join.Relation, *join.Relation) {
	t.Helper()
	c, o := join.GenerateRelations(join.GenConfig{
		Customers: 60, OrdersPerCust: 10, PayloadBytes: 100, Seed: seed,
	})
	return c, o
}

func TestKeyPartitionerIndexing(t *testing.T) {
	l := &join.Relation{Tuples: []join.Tuple{{Key: 5}, {Key: 2}}}
	r := &join.Relation{Tuples: []join.Tuple{{Key: 2}, {Key: 9}}}
	kp, err := NewKeyPartitioner(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if kp.P() != 3 {
		t.Fatalf("P = %d, want 3 distinct keys", kp.P())
	}
	// Sorted order: 2, 5, 9.
	for i, k := range []int64{2, 5, 9} {
		if kp.Partition(k) != i {
			t.Errorf("Partition(%d) = %d, want %d", k, kp.Partition(k), i)
		}
	}
	if kp.Partition(777) != 0 {
		t.Error("unknown keys must fold to micro-partition 0")
	}
}

func TestNewKeyPartitionerEmpty(t *testing.T) {
	if _, err := NewKeyPartitioner(&join.Relation{}); err == nil {
		t.Error("accepted an empty key set")
	}
}

func TestPerKeyJoinCardinality(t *testing.T) {
	// The whole pipeline runs at key granularity for every scheduler.
	cust, ords := relationsFor(t, 1)
	want := join.Reference(cust, ords)
	for _, s := range []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}} {
		cl, kp, err := BuildCluster(5, cust, ords, join.ZipfPlacer(5, 0.8, 3))
		if err != nil {
			t.Fatal(err)
		}
		if kp.P() != 60 {
			t.Fatalf("distinct keys = %d, want 60", kp.P())
		}
		res, err := join.Execute(cl, join.Options{Scheduler: s})
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputTuples != want {
			t.Errorf("%s per-key: output = %d, want %d", s.Name(), res.OutputTuples, want)
		}
	}
}

func TestPerKeyMiniIsTrackJoin(t *testing.T) {
	// Per-key Mini (two-phase track join) must move no more bytes than
	// partition-level Mini: finer granularity only exposes more locality.
	cust, ords := relationsFor(t, 2)
	place := join.ZipfPlacer(6, 0.8, 4)

	clKey, _, err := BuildCluster(6, cust, ords, place)
	if err != nil {
		t.Fatal(err)
	}
	perKey, err := join.Execute(clKey, join.Options{Scheduler: placement.Mini{}})
	if err != nil {
		t.Fatal(err)
	}

	clPart := join.NewCluster(6, partition.ModPartitioner{NumPartitions: 12})
	clPart.LoadByPlacement(true, cust, join.ZipfPlacer(6, 0.8, 4))
	clPart.LoadByPlacement(false, ords, join.ZipfPlacer(6, 0.8, 4))
	perPart, err := join.Execute(clPart, join.Options{Scheduler: placement.Mini{}})
	if err != nil {
		t.Fatal(err)
	}

	if perKey.TrafficBytes > perPart.TrafficBytes {
		t.Errorf("per-key Mini traffic %d > partition-level %d", perKey.TrafficBytes, perPart.TrafficBytes)
	}
}

func TestPerKeyCCFImprovesBottleneck(t *testing.T) {
	// Finer placement granularity cannot hurt CCF's objective: per-key CCF
	// should achieve a bottleneck at most that of coarse partitioning on
	// the same data (same placer, same loads).
	cust, ords := relationsFor(t, 3)

	clKey, _, err := BuildCluster(6, cust, ords, join.ZipfPlacer(6, 0.8, 5))
	if err != nil {
		t.Fatal(err)
	}
	perKey, err := join.Execute(clKey, join.Options{Scheduler: placement.CCF{}})
	if err != nil {
		t.Fatal(err)
	}

	clPart := join.NewCluster(6, partition.ModPartitioner{NumPartitions: 6})
	clPart.LoadByPlacement(true, cust, join.ZipfPlacer(6, 0.8, 5))
	clPart.LoadByPlacement(false, ords, join.ZipfPlacer(6, 0.8, 5))
	perPart, err := join.Execute(clPart, join.Options{Scheduler: placement.CCF{}})
	if err != nil {
		t.Fatal(err)
	}

	if perKey.BottleneckBytes > perPart.BottleneckBytes {
		t.Errorf("per-key CCF bottleneck %d > coarse %d", perKey.BottleneckBytes, perPart.BottleneckBytes)
	}
}

func TestPerKeyWithSkewHandling(t *testing.T) {
	cust, ords := join.GenerateRelations(join.GenConfig{
		Customers: 50, OrdersPerCust: 20, PayloadBytes: 100, SkewFrac: 0.3, Seed: 4,
	})
	want := join.Reference(cust, ords)
	cl, _, err := BuildCluster(4, cust, ords, join.ZipfPlacer(4, 0.8, 6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := join.Execute(cl, join.Options{Scheduler: placement.CCF{}, SkewThreshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputTuples != want {
		t.Errorf("per-key + skew handling: output = %d, want %d", res.OutputTuples, want)
	}
	if len(res.SkewedKeys) != 1 || res.SkewedKeys[0] != 1 {
		t.Errorf("skewed keys = %v, want [1]", res.SkewedKeys)
	}
}

func TestPerKeyCardinalityProperty(t *testing.T) {
	scheds := []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}}
	f := func(seed uint64, schedIdx uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 + rng.Intn(4)
		cust, ords := join.GenerateRelations(join.GenConfig{
			Customers: 10 + int64(rng.Intn(40)), OrdersPerCust: 3 + int64(rng.Intn(8)),
			PayloadBytes: 10, Seed: seed,
		})
		cl, _, err := BuildCluster(n, cust, ords, join.ZipfPlacer(n, rng.Float64(), seed+5))
		if err != nil {
			return false
		}
		res, err := join.Execute(cl, join.Options{Scheduler: scheds[int(schedIdx)%len(scheds)]})
		if err != nil {
			return false
		}
		return res.OutputTuples == join.Reference(cust, ords)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
