package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ccf/internal/partition"
	"ccf/internal/placement"
)

func smallRelations(t *testing.T, customers, perCust int64, skew float64, seed uint64) (*Relation, *Relation) {
	t.Helper()
	c, o := GenerateRelations(GenConfig{
		Customers: customers, OrdersPerCust: perCust, PayloadBytes: 100,
		SkewFrac: skew, Seed: seed,
	})
	return c, o
}

func TestGenerateRelationsShape(t *testing.T) {
	c, o := smallRelations(t, 100, 10, 0, 1)
	if len(c.Tuples) != 100 || len(o.Tuples) != 1000 {
		t.Fatalf("relation sizes %d/%d, want 100/1000", len(c.Tuples), len(o.Tuples))
	}
	// Customer keys are unique 1..100.
	seen := map[int64]bool{}
	for _, tp := range c.Tuples {
		if tp.Key < 1 || tp.Key > 100 || seen[tp.Key] {
			t.Fatalf("bad customer key %d", tp.Key)
		}
		seen[tp.Key] = true
	}
	// Every order references an existing customer.
	for _, tp := range o.Tuples {
		if tp.Key < 1 || tp.Key > 100 {
			t.Fatalf("order key %d outside customer range", tp.Key)
		}
	}
	if c.Bytes() != 100*100 {
		t.Errorf("customer bytes = %d, want 10000", c.Bytes())
	}
}

func TestGenerateRelationsSkew(t *testing.T) {
	_, o := smallRelations(t, 100, 100, 0.3, 2)
	freq := o.KeyFreq()
	frac := float64(freq[1]) / float64(len(o.Tuples))
	if frac < 0.25 || frac > 0.40 {
		t.Errorf("hot key fraction = %g, want ≈ 0.30 (skew + uniform hits)", frac)
	}
}

func TestReferenceJoinCount(t *testing.T) {
	l := &Relation{Tuples: []Tuple{{Key: 1}, {Key: 1}, {Key: 2}}}
	r := &Relation{Tuples: []Tuple{{Key: 1}, {Key: 2}, {Key: 2}, {Key: 3}}}
	// key 1: 2×1, key 2: 1×2 ⇒ 4.
	if got := Reference(l, r); got != 4 {
		t.Errorf("Reference = %d, want 4", got)
	}
}

func TestClusterChunkMatrix(t *testing.T) {
	part := partition.ModPartitioner{NumPartitions: 4}
	c := NewCluster(2, part)
	c.Left[0] = []Tuple{{Key: 1, Payload: 10}, {Key: 5, Payload: 10}} // both partition 1
	c.Right[1] = []Tuple{{Key: 2, Payload: 20}}                       // partition 2
	m, err := c.ChunkMatrix()
	if err != nil {
		t.Fatalf("ChunkMatrix: %v", err)
	}
	if m.At(0, 1) != 20 {
		t.Errorf("h[0][1] = %d, want 20", m.At(0, 1))
	}
	if m.At(1, 2) != 20 {
		t.Errorf("h[1][2] = %d, want 20", m.At(1, 2))
	}
	if m.TotalBytes() != 40 {
		t.Errorf("total = %d, want 40", m.TotalBytes())
	}
}

func executeOn(t *testing.T, n int, pmult int, custs, perCust int64, skewFrac float64, opts Options, seed uint64) (*Result, int64) {
	t.Helper()
	cust, ords := GenerateRelations(GenConfig{
		Customers: custs, OrdersPerCust: perCust, PayloadBytes: 100,
		SkewFrac: skewFrac, Seed: seed,
	})
	want := Reference(cust, ords)
	part := partition.ModPartitioner{NumPartitions: n * pmult}
	cl := NewCluster(n, part)
	cl.LoadByPlacement(true, cust, ZipfPlacer(n, 0.8, seed+1))
	cl.LoadByPlacement(false, ords, ZipfPlacer(n, 0.8, seed+2))
	res, err := Execute(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, want
}

func TestExecuteCardinalityAllSchedulers(t *testing.T) {
	for _, s := range []placement.Scheduler{
		placement.Hash{}, placement.Mini{}, placement.CCF{}, placement.LPT{},
	} {
		res, want := executeOn(t, 4, 5, 50, 10, 0, Options{Scheduler: s}, 10)
		if res.OutputTuples != want {
			t.Errorf("%s: output = %d, want %d", s.Name(), res.OutputTuples, want)
		}
		if res.CommTime <= 0 {
			t.Errorf("%s: no communication time simulated", s.Name())
		}
	}
}

func TestExecuteCardinalityWithSkewHandling(t *testing.T) {
	for _, s := range []placement.Scheduler{placement.Mini{}, placement.CCF{}} {
		res, want := executeOn(t, 4, 5, 50, 20, 0.3, Options{Scheduler: s, SkewThreshold: 0.1}, 20)
		if res.OutputTuples != want {
			t.Errorf("%s with skew handling: output = %d, want %d", s.Name(), res.OutputTuples, want)
		}
		if len(res.SkewedKeys) == 0 {
			t.Errorf("%s: no skewed keys detected at 30%% skew", s.Name())
		}
		for _, k := range res.SkewedKeys {
			if k != 1 {
				t.Errorf("%s: unexpected skewed key %d", s.Name(), k)
			}
		}
	}
}

func TestSkewHandlingReducesBottleneck(t *testing.T) {
	with, want := executeOn(t, 4, 5, 50, 40, 0.4, Options{Scheduler: placement.CCF{}, SkewThreshold: 0.1}, 30)
	without, want2 := executeOn(t, 4, 5, 50, 40, 0.4, Options{Scheduler: placement.CCF{}}, 30)
	if want != want2 {
		t.Fatal("test bug: different reference cardinalities")
	}
	if with.OutputTuples != want || without.OutputTuples != want {
		t.Fatalf("cardinality broken: with=%d without=%d want=%d", with.OutputTuples, without.OutputTuples, want)
	}
	if with.BottleneckBytes >= without.BottleneckBytes {
		t.Errorf("skew handling did not reduce bottleneck: %d >= %d", with.BottleneckBytes, without.BottleneckBytes)
	}
}

func TestExecuteRequiresScheduler(t *testing.T) {
	cl := NewCluster(2, partition.ModPartitioner{NumPartitions: 2})
	if _, err := Execute(cl, Options{}); err == nil {
		t.Error("Execute accepted nil scheduler")
	}
}

func TestExecuteEmptyCluster(t *testing.T) {
	cl := NewCluster(3, partition.ModPartitioner{NumPartitions: 6})
	res, err := Execute(cl, Options{Scheduler: placement.CCF{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputTuples != 0 || res.TrafficBytes != 0 || res.CommTime != 0 {
		t.Errorf("empty cluster produced %+v", res)
	}
}

func TestExecuteCardinalityProperty(t *testing.T) {
	// Distributed join == reference join for random relations, schedulers,
	// skew settings, and cluster sizes.
	scheds := []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}}
	f := func(seed uint64, schedIdx, skewPct uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 + rng.Intn(4)
		cust, ords := GenerateRelations(GenConfig{
			Customers: 20 + int64(rng.Intn(50)), OrdersPerCust: 5 + int64(rng.Intn(10)),
			PayloadBytes: 10, SkewFrac: float64(skewPct%40) / 100, Seed: seed,
		})
		part := partition.ModPartitioner{NumPartitions: n * (1 + rng.Intn(10))}
		cl := NewCluster(n, part)
		cl.LoadByPlacement(true, cust, func(i int, _ Tuple) int { return i % n })
		cl.LoadByPlacement(false, ords, ZipfPlacer(n, rng.Float64(), seed+9))
		opts := Options{Scheduler: scheds[int(schedIdx)%len(scheds)]}
		if skewPct%2 == 0 {
			opts.SkewThreshold = 0.08
		}
		res, err := Execute(cl, opts)
		if err != nil {
			return false
		}
		return res.OutputTuples == Reference(cust, ords)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestZipfPlacerBiasAndRange(t *testing.T) {
	pl := ZipfPlacer(10, 1.2, 5)
	counts := make([]int, 10)
	for i := 0; i < 20_000; i++ {
		d := pl(i, Tuple{})
		if d < 0 || d >= 10 {
			t.Fatalf("placer returned node %d", d)
		}
		counts[d]++
	}
	if counts[0] <= counts[5] || counts[0] <= counts[9] {
		t.Errorf("zipf placer not biased to node 0: %v", counts)
	}
}

func TestGenDeterminism(t *testing.T) {
	a := newGen(9)
	b := newGen(9)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Gen not deterministic")
		}
	}
	if newGen(0).Uint64() == 0 {
		t.Error("zero seed must be remapped, not produce the zero orbit")
	}
}

func TestKeyZipfProducesHeavyHitters(t *testing.T) {
	_, o := GenerateRelations(GenConfig{
		Customers: 1000, OrdersPerCust: 50, PayloadBytes: 10, KeyZipf: 1.2, Seed: 5,
	})
	freq := o.KeyFreq()
	total := int64(len(o.Tuples))
	// Rank-1 key must dominate and several keys should exceed 1%.
	var heavy int
	var top int64
	for _, c := range freq {
		if c > top {
			top = c
		}
		if float64(c)/float64(total) > 0.01 {
			heavy++
		}
	}
	if float64(top)/float64(total) < 0.05 {
		t.Errorf("top key carries %.3f of orders; zipf 1.2 should exceed 5%%", float64(top)/float64(total))
	}
	if heavy < 3 {
		t.Errorf("only %d keys above 1%%; zipf should produce multiple heavy hitters", heavy)
	}
	// Keys stay within the customer range.
	for k := range freq {
		if k < 1 || k > 1000 {
			t.Fatalf("order key %d outside customers", k)
		}
	}
}

func TestMultiHeavyKeySkewHandling(t *testing.T) {
	// Zipf keys create several heavy hitters; partial duplication must
	// keep every detected one local and preserve the join cardinality.
	cust, ords := GenerateRelations(GenConfig{
		Customers: 200, OrdersPerCust: 50, PayloadBytes: 10, KeyZipf: 1.3, Seed: 7,
	})
	want := Reference(cust, ords)
	cl := NewCluster(5, partition.ModPartitioner{NumPartitions: 50})
	cl.LoadByPlacement(true, cust, ZipfPlacer(5, 0.8, 8))
	cl.LoadByPlacement(false, ords, ZipfPlacer(5, 0.8, 9))
	res, err := Execute(cl, Options{Scheduler: placement.CCF{}, SkewThreshold: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputTuples != want {
		t.Errorf("multi-heavy-key join output = %d, want %d", res.OutputTuples, want)
	}
	if len(res.SkewedKeys) < 2 {
		t.Errorf("detected %d heavy keys (%v); zipf 1.3 at 2%% threshold should find several",
			len(res.SkewedKeys), res.SkewedKeys)
	}
	// Against the skew-oblivious run, the bottleneck must shrink.
	cl2 := NewCluster(5, partition.ModPartitioner{NumPartitions: 50})
	cl2.LoadByPlacement(true, cust, ZipfPlacer(5, 0.8, 8))
	cl2.LoadByPlacement(false, ords, ZipfPlacer(5, 0.8, 9))
	plain, err := Execute(cl2, Options{Scheduler: placement.CCF{}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.OutputTuples != want {
		t.Fatalf("skew-oblivious cardinality broken: %d != %d", plain.OutputTuples, want)
	}
	if res.BottleneckBytes >= plain.BottleneckBytes {
		t.Errorf("multi-key partial duplication did not reduce bottleneck: %d >= %d",
			res.BottleneckBytes, plain.BottleneckBytes)
	}
}
