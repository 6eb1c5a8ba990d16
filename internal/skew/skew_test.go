package skew

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ccf/internal/partition"
	"ccf/internal/workload"
)

func genWorkload(t *testing.T, n int, skewFrac float64) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Nodes: n, CustomerTuples: 1000, OrderTuples: 10_000,
		PayloadBytes: 10, Zipf: 0.8, Skew: skewFrac,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNoSkewIsNoOp(t *testing.T) {
	w := genWorkload(t, 5, 0)
	p := PartialDuplication(w)
	if p.Adjusted != w.Chunks {
		t.Error("skewless plan should share the original matrix")
	}
	if p.LocalBytes != 0 || p.BroadcastBytes != 0 {
		t.Errorf("skewless plan moved bytes: local=%d broadcast=%d", p.LocalBytes, p.BroadcastBytes)
	}
	if err := p.Validate(w.Chunks); err != nil {
		t.Error(err)
	}
}

func TestPartialDuplicationRemovesSkewBytes(t *testing.T) {
	w := genWorkload(t, 8, 0.25)
	p := PartialDuplication(w)
	if err := p.Validate(w.Chunks); err != nil {
		t.Fatal(err)
	}
	wantLocal := int64(0.25*float64(10_000)) * 10
	if p.LocalBytes != wantLocal {
		t.Errorf("LocalBytes = %d, want %d (25%% of ORDERS)", p.LocalBytes, wantLocal)
	}
	// The adjusted skew partition must equal the original minus skew bytes.
	for i := 0; i < 8; i++ {
		want := w.Chunks.At(i, w.SkewPartition) - w.SkewBytesPerNode[i]
		if got := p.Adjusted.At(i, w.SkewPartition); got != want {
			t.Errorf("node %d adjusted chunk = %d, want %d", i, got, want)
		}
	}
	// Other partitions untouched.
	for k := 0; k < w.Chunks.P; k++ {
		if k == w.SkewPartition {
			continue
		}
		for i := 0; i < 8; i++ {
			if p.Adjusted.At(i, k) != w.Chunks.At(i, k) {
				t.Fatalf("partition %d modified by skew handling", k)
			}
		}
	}
}

func TestBroadcastTopology(t *testing.T) {
	w := genWorkload(t, 6, 0.2)
	p := PartialDuplication(w)
	n := 6
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := p.BroadcastVolumes[i*n+j]
			switch {
			case i == j && v != 0:
				t.Errorf("broadcast self-loop %d→%d = %d", i, j, v)
			case i == w.SkewOwner && j != i && v != w.BroadcastBytes:
				t.Errorf("broadcast %d→%d = %d, want %d", i, j, v, w.BroadcastBytes)
			case i != w.SkewOwner && v != 0:
				t.Errorf("non-owner node %d broadcasts %d bytes", i, v)
			}
		}
	}
	if want := int64(n-1) * w.BroadcastBytes; p.BroadcastBytes != want {
		t.Errorf("BroadcastBytes = %d, want %d", p.BroadcastBytes, want)
	}
	// Initial loads mirror the broadcast volumes.
	if p.Initial.Egress[w.SkewOwner] != int64(n-1)*w.BroadcastBytes {
		t.Errorf("owner egress = %d, want %d", p.Initial.Egress[w.SkewOwner], int64(n-1)*w.BroadcastBytes)
	}
	for j := 0; j < n; j++ {
		want := w.BroadcastBytes
		if j == w.SkewOwner {
			want = 0
		}
		if p.Initial.Ingress[j] != want {
			t.Errorf("node %d ingress = %d, want %d", j, p.Initial.Ingress[j], want)
		}
	}
}

func TestPlanConservationProperty(t *testing.T) {
	f := func(seed uint64, skewPct uint8) bool {
		frac := float64(skewPct%50) / 100
		w, err := workload.Generate(workload.Config{
			Nodes: 4, CustomerTuples: 200, OrderTuples: 2000,
			PayloadBytes: 7, Zipf: 0.5, Skew: frac, Seed: seed, JitterFrac: 0.03,
		})
		if err != nil {
			return false
		}
		p := PartialDuplication(w)
		return p.Validate(w.Chunks) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPartialDuplicationIntoReuse carries one Plan across workloads of
// different sizes, with and without skew, scribbling over its buffers between
// calls: every plan must equal a fresh PartialDuplication and validate.
func TestPartialDuplicationIntoReuse(t *testing.T) {
	plan := new(Plan)
	for step, c := range []struct {
		n    int
		skew float64
	}{{8, 0.25}, {4, 0.1}, {8, 0}, {8, 0.25}, {12, 0.3}} {
		w := genWorkload(t, c.n, c.skew)
		want := PartialDuplication(w)
		got := PartialDuplicationInto(plan, w)
		if got != plan {
			t.Fatalf("step %d: PartialDuplicationInto returned another plan", step)
		}
		if (got.Adjusted == w.Chunks) != (c.skew == 0) {
			t.Errorf("step %d: Adjusted shares the workload's matrix: %v, want %v", step, got.Adjusted == w.Chunks, c.skew == 0)
		}
		if got.Adjusted.N != want.Adjusted.N || got.Adjusted.P != want.Adjusted.P ||
			!slices.Equal(got.Adjusted.H, want.Adjusted.H) ||
			!slices.Equal(got.Initial.Egress, want.Initial.Egress) ||
			!slices.Equal(got.Initial.Ingress, want.Initial.Ingress) ||
			!slices.Equal(got.BroadcastVolumes, want.BroadcastVolumes) ||
			got.LocalBytes != want.LocalBytes || got.BroadcastBytes != want.BroadcastBytes {
			t.Errorf("step %d (n=%d, skew=%g): reused plan differs from a fresh one", step, c.n, c.skew)
		}
		if err := got.Validate(w.Chunks); err != nil {
			t.Errorf("step %d: %v", step, err)
		}
		// What the next call must not see.
		for _, buf := range [][]int64{plan.own.H, plan.Initial.Egress, plan.Initial.Ingress, plan.BroadcastVolumes} {
			for i := range buf {
				buf[i] = -1
			}
		}
		plan.LocalBytes, plan.BroadcastBytes = -1, -1
	}
}

// TestPlanValidateErrors pins which violation Validate reports, and how: a
// negative adjusted cell (named by the matrix's own check) before a broadcast
// self-loop before a conservation failure.
func TestPlanValidateErrors(t *testing.T) {
	w := genWorkload(t, 5, 0.2)
	n, p := w.Chunks.N, w.Chunks.P
	negative := func(pl *Plan) { pl.Adjusted.Set(3, 7, -4) }
	selfLoop := func(pl *Plan) { pl.BroadcastVolumes[2*n+2] = 9 }
	leak := func(pl *Plan) { pl.LocalBytes++ }
	for _, c := range []struct {
		name    string
		corrupt []func(*Plan)
		want    string
	}{
		{"negative cell", []func(*Plan){negative}, "skew: adjusted matrix invalid: partition: negative chunk -4 at (3,7)"},
		{"self-loop", []func(*Plan){selfLoop}, "skew: broadcast self-loop at node 2"},
		{"conservation", []func(*Plan){leak}, fmt.Sprintf("skew: byte conservation violated: orig=%d adjusted+local=%d",
			w.Chunks.TotalBytes(), w.Chunks.TotalBytes()+1)},
		{"negative cell wins", []func(*Plan){leak, selfLoop, negative}, "skew: adjusted matrix invalid: partition: negative chunk -4 at (3,7)"},
		{"self-loop before conservation", []func(*Plan){leak, selfLoop}, "skew: broadcast self-loop at node 2"},
		{"storage length", []func(*Plan){func(pl *Plan) { pl.Adjusted.H = pl.Adjusted.H[:n*p-1] }},
			fmt.Sprintf("skew: adjusted matrix invalid: partition: storage length %d != n*p = %d", n*p-1, n*p)},
		{"shape", []func(*Plan){func(pl *Plan) { pl.Adjusted = partition.MustChunkMatrix(n, p+1) }},
			fmt.Sprintf("skew: adjusted matrix is %d×%d, original is %d×%d", n, p+1, n, p)},
	} {
		plan := PartialDuplication(w)
		for _, f := range c.corrupt {
			f(plan)
		}
		err := plan.Validate(w.Chunks)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Validate = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestDetectHeavy(t *testing.T) {
	freq := map[int64]int64{1: 500, 2: 300, 3: 100, 4: 100}
	heavy := DetectHeavy(freq, 1000, 0.2)
	if len(heavy) != 2 {
		t.Fatalf("detected %d heavy keys, want 2", len(heavy))
	}
	if heavy[0].Key != 1 || heavy[1].Key != 2 {
		t.Errorf("heavy order = %v, want key 1 then key 2", heavy)
	}
	if heavy[0].Frac != 0.5 {
		t.Errorf("key 1 frac = %g, want 0.5", heavy[0].Frac)
	}
	if got := DetectHeavy(freq, 1000, 0.6); len(got) != 0 {
		t.Errorf("threshold 0.6 detected %v, want none", got)
	}
	if got := DetectHeavy(freq, 0, 0.1); got != nil {
		t.Errorf("zero total detected %v, want nil", got)
	}
}

func TestDetectHeavyTieBreak(t *testing.T) {
	freq := map[int64]int64{7: 400, 3: 400}
	heavy := DetectHeavy(freq, 1000, 0.1)
	if len(heavy) != 2 || heavy[0].Key != 3 {
		t.Errorf("equal-count keys must sort by key: %v", heavy)
	}
}

func TestSamplerFindsPlantedHeavyHitter(t *testing.T) {
	s := NewSampler(10)
	rng := rand.New(rand.NewSource(1))
	const total = 100_000
	for i := 0; i < total; i++ {
		if rng.Float64() < 0.3 {
			s.Observe(42)
		} else {
			s.Observe(int64(rng.Intn(10_000) + 100))
		}
	}
	if s.Seen() != total {
		t.Errorf("Seen = %d, want %d", s.Seen(), total)
	}
	heavy := s.Heavy(0.1)
	if len(heavy) != 1 || heavy[0].Key != 42 {
		t.Fatalf("sampler found %v, want only key 42", heavy)
	}
	est := float64(heavy[0].Count) / float64(total)
	if est < 0.25 || est > 0.35 {
		t.Errorf("estimated frequency %g, want ≈ 0.3", est)
	}
}

func TestSamplerRatePromotion(t *testing.T) {
	s := NewSampler(0)
	if s.Rate != 1 {
		t.Errorf("rate 0 promoted to %d, want 1", s.Rate)
	}
	s.Observe(5)
	if heavy := s.Heavy(0.5); len(heavy) != 1 {
		t.Errorf("full-rate sampler missed the only key: %v", heavy)
	}
}
