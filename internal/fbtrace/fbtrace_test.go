package fbtrace

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/rng"
	"ccf/internal/trace"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Machines: 1, Coflows: 5}); err == nil {
		t.Error("accepted 1 machine")
	}
	if _, err := Generate(Config{Machines: 4, Coflows: 0}); err == nil {
		t.Error("accepted 0 coflows")
	}
	if _, err := Generate(Config{Machines: 4, Coflows: 5, Mix: Mix{SN: 0.9, LN: 0.9}}); err == nil {
		t.Error("accepted a mix not summing to 1")
	}
}

func TestGenerateShape(t *testing.T) {
	cfs, err := Generate(Config{Machines: 100, Coflows: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfs) != 500 {
		t.Fatalf("generated %d coflows, want 500", len(cfs))
	}
	counts := map[Category]int{}
	var bytesByCat = map[Category]float64{}
	prevArrival := -1.0
	for _, c := range cfs {
		if c.Arrival <= prevArrival {
			t.Fatal("arrivals not strictly increasing")
		}
		prevArrival = c.Arrival
		if len(c.Flows) == 0 {
			t.Fatal("empty coflow generated")
		}
		for _, f := range c.Flows {
			if f.Size <= 0 {
				t.Fatalf("non-positive flow size %g", f.Size)
			}
			if f.Src == f.Dst {
				t.Fatal("self-loop generated")
			}
			if f.Src < 0 || f.Src >= 100 || f.Dst < 0 || f.Dst >= 100 {
				t.Fatal("flow endpoint outside fabric")
			}
		}
		cat := Classify(c)
		counts[cat]++
		bytesByCat[cat] += c.TotalBytes()
	}
	// The count distribution should roughly follow the mix.
	if frac := float64(counts[SN]) / 500; frac < 0.35 || frac > 0.70 {
		t.Errorf("SN fraction = %g, want ≈ 0.52", frac)
	}
	// The byte distribution must be dominated by the long/wide tail.
	total := 0.0
	for _, b := range bytesByCat {
		total += b
	}
	if tail := (bytesByCat[LW] + bytesByCat[LN] + bytesByCat[SW]) / total; tail < 0.8 {
		t.Errorf("long/wide coflows carry %g of bytes, want the heavy tail (> 0.8)", tail)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Machines: 20, Coflows: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Machines: 20, Coflows: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || len(a[i].Flows) != len(b[i].Flows) {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestClassifyThresholds(t *testing.T) {
	mk := func(width int, sizeMB float64) *coflow.Coflow {
		var flows []coflow.Flow
		for i := 0; i < width; i++ {
			flows = append(flows, coflow.Flow{ID: i, Src: 0, Dst: 1 + i%3, Size: sizeMB * 1e6})
		}
		return coflow.New(0, "c", 0, flows)
	}
	cases := []struct {
		width  int
		sizeMB float64
		want   Category
	}{
		{10, 1, SN},
		{10, 100, LN},
		{60, 1, SW},
		{60, 100, LW},
	}
	for _, tc := range cases {
		if got := Classify(mk(tc.width, tc.sizeMB)); got != tc.want {
			t.Errorf("Classify(width=%d, %gMB) = %v, want %v", tc.width, tc.sizeMB, got, tc.want)
		}
	}
	if SN.String() != "SN" || LW.String() != "LW" || Category(9).String() == "" {
		t.Error("Category.String broken")
	}
}

func TestParetoBounds(t *testing.T) {
	g := rng.New(3)
	for i := 0; i < 10_000; i++ {
		v := newSizeClass(1, 100).draw(&g)
		if v < 1-1e-9 || v > 100+1e-9 {
			t.Fatalf("pareto variate %g outside [1,100]", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	g := rng.New(11)
	sum := 0.0
	const n = 50_000
	for i := 0; i < n; i++ {
		sum += exponential(&g, 2.5)
	}
	if mean := sum / n; math.Abs(mean-2.5) > 0.1 {
		t.Errorf("exponential mean = %g, want ≈ 2.5", mean)
	}
}

func TestWorkloadIsSimulable(t *testing.T) {
	cfs, err := Generate(Config{Machines: 12, Coflows: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, c := range cfs {
		total += c.TotalBytes()
	}
	fab, err := netsim.NewFabric(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := netsim.NewSimulator(fab, coflow.NewAalo()).Run(cfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CCTs) != 40 {
		t.Fatalf("completed %d coflows, want 40", len(rep.CCTs))
	}
	if math.Abs(rep.TotalBytes-total)/total > 1e-6 {
		t.Errorf("moved %g bytes, generated %g", rep.TotalBytes, total)
	}
}

func TestToTraceRoundTrip(t *testing.T) {
	cfs, err := Generate(Config{Machines: 8, Coflows: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tr := ToTrace(8, cfs)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Byte totals survive the format conversion.
	var want float64
	for _, c := range cfs {
		want += c.TotalBytes()
	}
	var got float64
	for _, c := range parsed.Coflows() {
		got += c.TotalBytes()
	}
	if math.Abs(got-want)/want > 1e-6 {
		t.Errorf("trace round trip: %g bytes, want %g", got, want)
	}
}

// TestToTraceSumsPerSource: each coflow becomes one job per source machine,
// in source order; a job's reducers are its source's destinations in
// ascending order, repeated pairs summed in flow order; and nothing carries
// over from one coflow to the next.
func TestToTraceSumsPerSource(t *testing.T) {
	a := coflow.New(0, "a", 1.5, []coflow.Flow{
		{ID: 0, Src: 2, Dst: 1, Size: 1e6},
		{ID: 1, Src: 0, Dst: 3, Size: 2e6},
		{ID: 2, Src: 2, Dst: 1, Size: 0.5e6},
		{ID: 3, Src: 2, Dst: 0, Size: 4e6},
	})
	b := coflow.New(1, "b", 2, []coflow.Flow{{ID: 0, Src: 2, Dst: 1, Size: 7e6}})
	want := []trace.Job{
		{ID: 0, ArrivalMillis: 1500, Mappers: []int{0}, Reducers: []trace.Reducer{{Loc: 3, MB: 2}}},
		{ID: 1, ArrivalMillis: 1500, Mappers: []int{2}, Reducers: []trace.Reducer{{Loc: 0, MB: 4}, {Loc: 1, MB: 1.5}}},
		{ID: 2, ArrivalMillis: 2000, Mappers: []int{2}, Reducers: []trace.Reducer{{Loc: 1, MB: 7}}},
	}
	if got := ToTrace(4, []*coflow.Coflow{a, b}); got.NumRacks != 4 || !reflect.DeepEqual(got.Jobs, want) {
		t.Errorf("ToTrace = %+v, want 4 racks and %+v", got, want)
	}
}

// TestToTraceRejectsOutOfRangeEndpoints: a flow with an endpoint outside
// [0, machines) has no cell in a machines-wide trace, so ToTrace panics
// rather than drop it or add it to a neighbouring cell.
func TestToTraceRejectsOutOfRangeEndpoints(t *testing.T) {
	for _, ends := range [][2]int{{4, 0}, {0, 4}, {-1, 1}, {1, -1}} {
		c := coflow.New(0, "c", 0, []coflow.Flow{{Src: ends[0], Dst: ends[1], Size: 1e6}})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ToTrace accepted a flow %d→%d on 4 machines", ends[0], ends[1])
				}
			}()
			ToTrace(4, []*coflow.Coflow{c})
		}()
	}
}

func TestSEBFBehaviourOnFBWorkload(t *testing.T) {
	// The classic coflow-scheduling trade-offs on the FB-like mix:
	// (1) SEBF slashes the CCT of short-narrow coflows relative to
	//     per-flow fairness (its SRPT-like preference), and
	// (2) SEBF beats FIFO on overall average CCT (no head-of-line
	//     blocking behind giant coflows).
	run := func(s coflow.Scheduler) (snAvg, overall float64) {
		cfs, err := Generate(Config{Machines: 16, Coflows: 60, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		fab, err := netsim.NewFabric(16, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := netsim.NewSimulator(fab, s).Run(cfs)
		if err != nil {
			t.Fatal(err)
		}
		var snSum float64
		snCount := 0
		for _, c := range cfs {
			if Classify(c) == SN {
				snSum += rep.CCTs[c.ID]
				snCount++
			}
		}
		if snCount == 0 {
			t.Fatal("no short-narrow coflows in the sample")
		}
		return snSum / float64(snCount), rep.AvgCCT
	}
	sebfSN, sebfAll := run(coflow.NewVarys())
	fairSN, _ := run(coflow.PerFlowFair{})
	_, fifoAll := run(coflow.NewFIFO())
	if sebfSN >= fairSN {
		t.Errorf("SEBF short-narrow avg CCT %g !< per-flow fair %g", sebfSN, fairSN)
	}
	if sebfAll >= fifoAll {
		t.Errorf("SEBF overall avg CCT %g !< FIFO %g", sebfAll, fifoAll)
	}
}

func TestGeneratePropertyAlwaysValid(t *testing.T) {
	f := func(seed uint64, m, c uint8) bool {
		machines := 2 + int(m%30)
		count := 1 + int(c%40)
		cfs, err := Generate(Config{Machines: machines, Coflows: count, Seed: seed})
		if err != nil {
			return false
		}
		if len(cfs) != count {
			return false
		}
		for _, cf := range cfs {
			for _, fl := range cf.Flows {
				if fl.Src == fl.Dst || fl.Size <= 0 ||
					fl.Src < 0 || fl.Src >= machines || fl.Dst < 0 || fl.Dst >= machines {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestParetoDrawMatchesPow: powInvAlpha is math.Pow(x, −1/paretoAlpha) bit
// for bit — over the draws both size classes make, over positive normals
// from the whole exponent range, and at the edges, where it falls back.
func TestParetoDrawMatchesPow(t *testing.T) {
	if runtime.GOARCH == "s390x" {
		t.Skip("math.Pow is assembly on s390x, not the portable pow the kernel follows")
	}
	check := func(x float64) {
		t.Helper()
		got, want := powInvAlpha(x), math.Pow(x, -1/paretoAlpha)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("powInvAlpha(%b) = %b, math.Pow gives %b", x, got, want)
		}
	}
	g := rng.New(48)
	for i := 0; i < 10_000_000; i++ {
		sc := shortFlows
		if i&1 == 1 {
			sc = longFlows
		}
		u := g.Float64()
		check(-(float64(u*sc.ha) - float64(u*sc.la) - sc.ha) / (sc.ha * sc.la))
	}
	for i := 0; i < 2_000_000; i++ {
		mant := g.Uint64() & (1<<52 - 1)
		exp := 1 + g.Uint64()%0x7fe // every normal exponent field, 1 to 0x7fe
		check(math.Float64frombits(exp<<52 | mant))
	}
	// No finite x has a subnormal result; the largest finite comes nearest,
	// and the smallest normal gives the largest result.
	for _, x := range []float64{
		1, math.SmallestNonzeroFloat64 * (1 << 52), math.MaxFloat64,
		math.Nextafter(1, 0), math.Nextafter(1, 2), 0.1, 5, 1000,
		math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64 * (1<<52 - 1),
		0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		check(x)
	}
}
