package trace

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ccf/internal/coflow"
)

const sample = `
# two racks... actually four; comments and blank lines are ignored

4 2
1 0 2 0 1 2 2:10 3:20
2 500 1 3 1 0:5
`

func TestParseSample(t *testing.T) {
	tr, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRacks != 4 || len(tr.Jobs) != 2 {
		t.Fatalf("parsed %d racks / %d jobs, want 4/2", tr.NumRacks, len(tr.Jobs))
	}
	j := tr.Jobs[0]
	if j.ID != 1 || j.ArrivalMillis != 0 {
		t.Errorf("job 0 header = %+v", j)
	}
	if len(j.Mappers) != 2 || j.Mappers[0] != 0 || j.Mappers[1] != 1 {
		t.Errorf("mappers = %v, want [0 1]", j.Mappers)
	}
	if want := []Reducer{{2, 10}, {3, 20}}; !slices.Equal(j.Reducers, want) {
		t.Errorf("reducers = %v, want %v", j.Reducers, want)
	}
	if tr.Jobs[1].ArrivalMillis != 500 {
		t.Errorf("job 1 arrival = %d, want 500", tr.Jobs[1].ArrivalMillis)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"missing jobs":      "4",
		"truncated job":     "4 1\n1 0 2 0",
		"bad reducer pair":  "4 1\n1 0 1 0 1 nope",
		"bad reducer loc":   "4 1\n1 0 1 0 1 x:5",
		"reducer loc range": "4 1\n1 0 1 0 1 9:5",
		"mapper loc range":  "4 1\n1 0 1 9 1 0:5",
		"negative size":     "4 1\n1 0 1 0 1 1:-3",
		"trailing tokens":   "4 1\n1 0 1 0 1 1:5 extra",
		"non-numeric":       "four 1\n",
		"NaN size":          "4 1\n1 0 1 1 1 0:NaN",
		"infinite size":     "4 1\n1 0 1 1 1 0:+Inf",
		"overflowing sum":   "4 1\n1 0 1 0 2 1:1e308 1:1e308",
		"overflowing bytes": "4 1\n0 0 1 1 1 0:1e303",
		"summed bytes":      "4 1\n0 0 1 1 2 0:1e302 0:1e302",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Parse accepted %q", name, in)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		racks := 2 + rng.Intn(6)
		tr := &Trace{NumRacks: racks}
		for j := 0; j < rng.Intn(5); j++ {
			job := Job{ID: j, ArrivalMillis: int64(rng.Intn(10_000))}
			for m := 0; m < 1+rng.Intn(4); m++ {
				job.Mappers = append(job.Mappers, rng.Intn(racks))
			}
			red := map[int]float64{}
			for r := 0; r < 1+rng.Intn(4); r++ {
				red[rng.Intn(racks)] += float64(1+rng.Intn(100)) / 4
			}
			job.Reducers = reducers(red)
			tr.Jobs = append(tr.Jobs, job)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Parse(&buf)
		if err != nil {
			return false
		}
		if got.NumRacks != tr.NumRacks || len(got.Jobs) != len(tr.Jobs) {
			return false
		}
		for i, j := range tr.Jobs {
			g := got.Jobs[i]
			if g.ID != j.ID || g.ArrivalMillis != j.ArrivalMillis || len(g.Mappers) != len(j.Mappers) || len(g.Reducers) != len(j.Reducers) {
				return false
			}
			for k, r := range j.Reducers {
				if g.Reducers[k].Loc != r.Loc || math.Abs(g.Reducers[k].MB-r.MB) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCoflowsExpansion(t *testing.T) {
	tr := &Trace{NumRacks: 3, Jobs: []Job{{
		ID: 7, ArrivalMillis: 1500,
		Mappers:  []int{0, 1},
		Reducers: []Reducer{{2, 10}},
	}}}
	cfs := tr.Coflows()
	if len(cfs) != 1 {
		t.Fatalf("expanded %d coflows, want 1", len(cfs))
	}
	c := cfs[0]
	if c.Arrival != 1.5 {
		t.Errorf("arrival = %g s, want 1.5", c.Arrival)
	}
	if len(c.Flows) != 2 {
		t.Fatalf("flows = %d, want 2 (10 MB split over 2 mappers)", len(c.Flows))
	}
	for _, f := range c.Flows {
		if f.Dst != 2 {
			t.Errorf("flow dst = %d, want 2", f.Dst)
		}
		if math.Abs(f.Size-5e6) > 1e-6 {
			t.Errorf("flow size = %g, want 5e6", f.Size)
		}
	}
}

func TestCoflowsDropSelfLoops(t *testing.T) {
	tr := &Trace{NumRacks: 2, Jobs: []Job{{
		ID:       0,
		Mappers:  []int{0},
		Reducers: []Reducer{{0, 10}, {1, 10}},
	}}}
	cfs := tr.Coflows()
	if len(cfs[0].Flows) != 1 {
		t.Fatalf("flows = %d, want 1 (mapper-local reducer dropped)", len(cfs[0].Flows))
	}
	if cfs[0].Flows[0].Dst != 1 {
		t.Errorf("surviving flow dst = %d, want 1", cfs[0].Flows[0].Dst)
	}
}

func TestFromVolumesRoundTripsThroughCoflows(t *testing.T) {
	n := 3
	vol := []int64{
		0, 2_000_000, 0,
		0, 0, 3_000_000,
		1_000_000, 0, 0,
	}
	tr, err := FromVolumes(n, vol, 250)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRacks != n {
		t.Errorf("racks = %d, want %d", tr.NumRacks, n)
	}
	got := make([]float64, n*n)
	for _, c := range tr.Coflows() {
		if c.Arrival != 0.25 {
			t.Errorf("arrival = %g, want 0.25", c.Arrival)
		}
		for _, f := range c.Flows {
			got[f.Src*n+f.Dst] += f.Size
		}
	}
	for i := range vol {
		if math.Abs(got[i]-float64(vol[i])) > 1 {
			t.Fatalf("volume (%d→%d) = %g, want %d", i/n, i%n, got[i], vol[i])
		}
	}
}

func TestFromVolumesRejectsBadMatrix(t *testing.T) {
	if _, err := FromVolumes(3, make([]int64, 4), 0); err == nil {
		t.Error("FromVolumes accepted a 4-entry matrix for n=3")
	}
}

// reducers lists a machine → megabytes map as a Job's reducer entries.
func reducers(m map[int]float64) []Reducer {
	rs := make([]Reducer, 0, len(m))
	for loc, mb := range m {
		rs = append(rs, Reducer{loc, mb})
	}
	slices.SortFunc(rs, func(a, b Reducer) int { return cmp.Compare(a.Loc, b.Loc) })
	return rs
}

// fmtWrite is the fmt-based writer Write replaced, kept as its oracle.
func fmtWrite(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", tr.NumRacks, len(tr.Jobs))
	for _, j := range tr.Jobs {
		fmt.Fprintf(bw, "%d %d %d", j.ID, j.ArrivalMillis, len(j.Mappers))
		for _, m := range j.Mappers {
			fmt.Fprintf(bw, " %d", m)
		}
		fmt.Fprintf(bw, " %d", len(j.Reducers))
		for _, r := range j.Reducers {
			fmt.Fprintf(bw, " %d:%g", r.Loc, r.MB)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// perFlowCoflows is the per-flow-allocating expansion Coflows replaced.
func perFlowCoflows(tr *Trace) []*coflow.Coflow {
	out := make([]*coflow.Coflow, 0, len(tr.Jobs))
	for _, j := range tr.Jobs {
		c := &coflow.Coflow{ID: j.ID, Name: fmt.Sprintf("job-%d", j.ID), Arrival: float64(j.ArrivalMillis) / 1000}
		if len(j.Mappers) == 0 {
			out = append(out, c)
			continue
		}
		fid := 0
		for _, r := range j.Reducers {
			per := r.MB * 1e6 / float64(len(j.Mappers))
			for _, ml := range j.Mappers {
				if ml == r.Loc || per <= 0 {
					continue
				}
				c.Flows = append(c.Flows, &coflow.Flow{ID: fid, Src: ml, Dst: r.Loc, Size: per, Remaining: per})
				fid++
			}
		}
		out = append(out, c)
	}
	return out
}

func sameCoflows(t *testing.T, got, want []*coflow.Coflow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d coflows, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.Name != w.Name || g.Arrival != w.Arrival || len(g.Flows) != len(w.Flows) || (g.Flows == nil) != (w.Flows == nil) {
			t.Fatalf("coflow %d: (%d,%q,%v,%d flows) != (%d,%q,%v,%d flows)",
				i, g.ID, g.Name, g.Arrival, len(g.Flows), w.ID, w.Name, w.Arrival, len(w.Flows))
		}
		for k, wf := range w.Flows {
			gf := g.Flows[k]
			if gf.ID != wf.ID || gf.Src != wf.Src || gf.Dst != wf.Dst ||
				math.Float64bits(gf.Size) != math.Float64bits(wf.Size) ||
				math.Float64bits(gf.Remaining) != math.Float64bits(wf.Remaining) {
				t.Fatalf("coflow %d flow %d: %+v, want %+v", i, k, *gf, *wf)
			}
		}
	}
}

// TestWriteMatchesFmt: Write's bytes and Coflows' expansion equal the fmt
// writer and the per-flow build they replaced, on random traces and on the
// floats whose %g form is easiest to get wrong.
func TestWriteMatchesFmt(t *testing.T) {
	special := []float64{0, 1e-5, 1e21, 5e-324, math.MaxFloat64, 1, 42, 1e6, 123456789, 0.1, 2.5e-7, 1234567.875}
	var traces []*Trace
	tr := &Trace{NumRacks: 3}
	for i, mb := range special {
		tr.Jobs = append(tr.Jobs, Job{ID: i, ArrivalMillis: int64(i * 1000), Mappers: []int{i % 3}, Reducers: reducers(map[int]float64{(i + 1) % 3: mb, i % 3: mb})})
	}
	tr.Jobs = append(tr.Jobs, Job{ID: 99, Reducers: []Reducer{{0, 1}}}, Job{ID: 100, Mappers: []int{0, 1}})
	traces = append(traces, tr, &Trace{NumRacks: 1})
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 200; n++ {
		racks := 1 + rng.Intn(12)
		tr := &Trace{NumRacks: racks}
		for j := 0; j < rng.Intn(8); j++ {
			job := Job{ID: rng.Intn(1 << 20), ArrivalMillis: rng.Int63n(1 << 40)}
			red := map[int]float64{}
			for m := 0; m < rng.Intn(5); m++ {
				job.Mappers = append(job.Mappers, rng.Intn(racks))
			}
			for r := 0; r < rng.Intn(6); r++ {
				var mb float64
				switch rng.Intn(4) {
				case 0:
					mb = float64(rng.Intn(1000))
				case 1:
					mb = math.Float64frombits(rng.Uint64() &^ (1 << 63))
				default:
					mb = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
				}
				if math.IsNaN(mb) || math.IsInf(mb, 0) {
					mb = 0
				}
				red[rng.Intn(racks)] = mb
			}
			job.Reducers = reducers(red)
			tr.Jobs = append(tr.Jobs, job)
		}
		traces = append(traces, tr)
	}
	for i, tr := range traces {
		var got, want bytes.Buffer
		if err := Write(&got, tr); err != nil {
			t.Fatal(err)
		}
		if err := fmtWrite(&want, tr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trace %d: Write emitted\n%s\nfmt emits\n%s", i, got.Bytes(), want.Bytes())
		}
		sameCoflows(t, tr.Coflows(), perFlowCoflows(tr))
	}
}
