package coflow

import (
	"math"
	"testing"
)

// BenchmarkWaterFill times one backfill over 102 080 flows, every ordered pair
// of 320 ports, whose ports start from distinct residual capacities: ports
// saturate one at a time, so the filling takes hundreds of levels.
func BenchmarkWaterFill(b *testing.B) {
	const n = 320
	block := make([]Flow, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				block = append(block, Flow{ID: len(block), Src: i, Dst: j, Size: 1, Remaining: 1})
			}
		}
	}
	flows := make([]*Flow, len(block))
	egRes, inRes := make([]float64, n), make([]float64, n)
	for p := range egRes {
		egRes[p] = 1e8 + 2e5*float64(p)
		inRes[p] = 1e8 + 2e5*float64(p) + 1e5
	}
	eg, in := make([]float64, n), make([]float64, n)
	s := testScratch(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := range block {
			block[k].Rate = 0
			flows[k] = &block[k]
		}
		copy(eg, egRes)
		copy(in, inRes)
		b.StartTimer()
		waterFill(flows, eg, in, s)
	}
}

// TestWaterFillLeavesScratchClean runs waterFill to each of its exits and
// checks that the per-port counts are all zero afterwards, and that a second
// call with the same scratch on fresh copies of the inputs gives the same
// rates and residual capacities, bit for bit.
func TestWaterFillLeavesScratchClean(t *testing.T) {
	type instance struct {
		flows  []Flow
		eg, in []float64
		check  func(t *testing.T, flows []*Flow, eg, in []float64)
	}
	grantsNothing := func(t *testing.T, flows []*Flow, _, _ []float64) {
		for _, f := range flows {
			if f.Rate != 0 {
				t.Errorf("flow %d granted %g, want nothing", f.ID, f.Rate)
			}
		}
	}
	cases := map[string]instance{
		"all done on entry": {
			flows: []Flow{{ID: 0, Src: 0, Dst: 1, Done: true}, {ID: 1, Src: 1, Dst: 0, Done: true}},
			eg:    []float64{1, 1},
			in:    []float64{1, 1},
			check: grantsNothing,
		},
		"no capacity at the first level": {
			flows: []Flow{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 1, Dst: 2}, {ID: 2, Src: 2, Dst: 0}},
			eg:    []float64{1, 1, 1},
			in:    []float64{1, 0, 1},
			check: grantsNothing,
		},
		// Three flows share egress 0: 1e8 - 3·(1e8/3) leaves 7.45e-9, above
		// the saturation threshold, so no port saturates and the first flow
		// on egress 0 is frozen alone. Flows 1 and 2 then get the rest, which
		// shows on their ingress residuals.
		"single-flow freeze": {
			flows: []Flow{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2}, {ID: 2, Src: 0, Dst: 3}},
			eg:    []float64{1e8, 0, 0, 0},
			in:    []float64{0, 3.4e7, 3.4e7, 3.4e7},
			check: func(t *testing.T, _ []*Flow, eg, in []float64) {
				if !(in[1] > in[2] && in[2] == in[3]) || eg[0] > 1e-12 {
					t.Errorf("residuals egress %g, ingress %v: want flow 0 frozen first, then egress 0 drained", eg[0], in[1:])
				}
			},
		},
		"levels until every flow froze": {
			flows: []Flow{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2}, {ID: 2, Src: 3, Dst: 4},
				{ID: 3, Src: 3, Dst: 2, Done: true}, {ID: 4, Src: 4, Dst: 0}},
			eg: []float64{1, 3, 3, 5, 2},
			in: []float64{7, 1, 4, 3, 3},
			check: func(t *testing.T, flows []*Flow, _, _ []float64) {
				want := []float64{0.5, 0.5, 3, 0, 2}
				for i, f := range flows {
					if f.Rate != want[i] {
						t.Errorf("flow %d rate %g, want %g", f.ID, f.Rate, want[i])
					}
				}
			},
		},
	}
	fresh := func(c instance) (all, arg []*Flow, eg, in []float64) {
		block := append([]Flow(nil), c.flows...)
		for i := range block {
			all = append(all, &block[i])
		}
		return all, append([]*Flow(nil), all...), append([]float64(nil), c.eg...), append([]float64(nil), c.in...)
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			s := testScratch(len(c.eg))
			var rates [2][]float64
			var caps [2][]float64
			for run := range rates {
				all, arg, eg, in := fresh(c)
				waterFill(arg, eg, in, s)
				for p := range eg {
					if s.egCnt[p] != 0 || s.inCnt[p] != 0 {
						t.Fatalf("run %d left counts egress %v, ingress %v", run, s.egCnt, s.inCnt)
					}
				}
				for _, f := range all {
					rates[run] = append(rates[run], f.Rate)
				}
				caps[run] = append(eg, in...)
				if run == 0 {
					c.check(t, all, eg, in)
				}
			}
			for i := range rates[0] {
				if math.Float64bits(rates[0][i]) != math.Float64bits(rates[1][i]) {
					t.Errorf("flow %d: rate %g on the second call, %g on the first", i, rates[1][i], rates[0][i])
				}
			}
			for i := range caps[0] {
				if math.Float64bits(caps[0][i]) != math.Float64bits(caps[1][i]) {
					t.Errorf("capacity %d: %g on the second call, %g on the first", i, caps[1][i], caps[0][i])
				}
			}
		})
	}
}
