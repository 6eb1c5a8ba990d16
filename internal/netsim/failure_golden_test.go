package netsim_test

// Failure golden: an oracle for runs under Failures that is not the event loop
// compared with itself. refsim has no failure model, and the flag-off /
// flag-on comparison in horizon_equiv_test.go runs one loop body twice, so the
// outcomes of the scheduler × seed × retransmission-policy matrix are frozen in
// testdata/failure_golden.json (recorded at the commit before the dense and
// sparse loop bodies were merged) and every run, with EventHorizon off and on,
// must reproduce them.
//
// A run's digest is FNV-1a over the raw bits of every Report, FailureOutcome,
// coflow and flow field the engine writes, except the three byte accumulators
// Report.TotalBytes, Report.WastedBytes and FailureOutcome.WastedBytes. Those
// sum over flows of different coflows, so their rounding follows the order the
// loop visits flows in (under restart-delivered a resurrected flow re-enters at
// the end of its coflow's live list); nothing a decision or a CCT reads depends
// on them. They are stored beside the digest, compared to 1e-12 relative, and
// checked against byte conservation. Flow.Rate is scheduler scratch, not an
// outcome (the allocator leaves a done flow's last rate behind), and is
// left out.
//
// Regenerate with: go test ./internal/netsim/ -run TestFailureGolden -update

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/failure_golden.json from this build")

const failureGoldenPath = "testdata/failure_golden.json"

// failureGoldenRun is one (scheduler, policy, seed) cell of the golden.
type failureGoldenRun struct {
	Digest        string    `json:"digest"`
	TotalBytes    float64   `json:"total_bytes"`
	WastedBytes   float64   `json:"wasted_bytes"`
	FailureWasted []float64 `json:"failure_wasted_bytes"`
}

type bitHash struct{ h hash.Hash64 }

func (b bitHash) u64(v uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	b.h.Write(w[:])
}
func (b bitHash) f64(v float64) { b.u64(math.Float64bits(v)) }
func (b bitHash) int(v int)     { b.u64(uint64(int64(v))) }
func (b bitHash) bool(v bool) {
	if v {
		b.u64(1)
	} else {
		b.u64(0)
	}
}

// digestFailureRun folds everything the run produced except the byte
// accumulators (see the file comment).
func digestFailureRun(rep *netsim.Report, cfs []*coflow.Coflow, err error) failureGoldenRun {
	b := bitHash{fnv.New64a()}
	if err != nil {
		b.h.Write([]byte(err.Error()))
	}
	b.f64(rep.Makespan)
	b.f64(rep.AvgCCT)
	b.f64(rep.MaxCCT)
	b.f64(rep.WeightedAvgCCT)
	b.int(rep.Epochs)
	ids := make([]int, 0, len(rep.CCTs))
	for id := range rep.CCTs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b.int(len(ids))
	for _, id := range ids {
		b.int(id)
		b.f64(rep.CCTs[id])
	}
	ids = ids[:0]
	for id := range rep.Restarts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b.int(len(ids))
	for _, id := range ids {
		b.int(id)
		b.int(rep.Restarts[id])
	}
	out := failureGoldenRun{TotalBytes: rep.TotalBytes, WastedBytes: rep.WastedBytes}
	b.int(len(rep.Failures))
	for _, fo := range rep.Failures {
		b.int(fo.Port)
		b.f64(fo.Down)
		b.f64(fo.Up)
		b.bool(fo.Permanent)
		b.int(fo.FlowsHit)
		b.bool(fo.Recovered)
		b.f64(fo.TimeToRecovery)
		out.FailureWasted = append(out.FailureWasted, fo.WastedBytes)
	}
	for _, c := range cfs {
		b.int(c.ID)
		b.f64(c.Arrival)
		b.bool(c.Completed)
		b.f64(c.Completion)
		b.f64(c.SentBytes)
		b.int(len(c.Flows))
		for _, f := range c.Flows {
			b.int(f.ID)
			b.int(f.Src)
			b.int(f.Dst)
			b.f64(f.Size)
			b.f64(f.Remaining)
			b.bool(f.Done)
			b.f64(f.EndTime)
		}
	}
	out.Digest = fmt.Sprintf("%016x", b.h.Sum64())
	return out
}

// sameBytes reports whether a byte accumulator agrees with its golden value to
// 1e-12 relative, and whether it agrees bit for bit.
func sameBytes(got, want float64) (near, exact bool) {
	return math.Abs(got-want) <= 1e-12*math.Abs(want), math.Float64bits(got) == math.Float64bits(want)
}

func TestFailureGolden(t *testing.T) {
	const seeds = 24
	golden := map[string]failureGoldenRun{}
	if !*updateGolden {
		raw, err := os.ReadFile(failureGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	runs, byteCells, movedCells := 0, 0, 0
	for _, pair := range schedPairs {
		for _, pol := range retransmitPolicies {
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				spec := randomSpec(rng)
				fails := withFailures(rng, &spec)
				fab := spec.fabric(t)
				key := fmt.Sprintf("%s/%s/seed=%d", pair.name, pol.name, seed)
				for _, horizon := range []bool{false, true} {
					tag := fmt.Sprintf("%s/horizon=%v", key, horizon)
					sim := netsim.NewSimulator(fab, pair.prod())
					sim.Events = spec.events
					sim.Deps = spec.deps
					sim.Failures = fails
					sim.Retransmit = pol.policy
					sim.EventHorizon = horizon
					if spec.horizon > 0 {
						sim.Horizon = spec.horizon
					}
					cfs := spec.build()
					var rep netsim.Report
					err := sim.RunInto(cfs, &rep)
					got := digestFailureRun(&rep, cfs, err)
					runs++

					// Byte conservation on runs that delivered everything:
					// wire bytes = delivered + voided, up to the sub-microbyte
					// completion epsilon each flow completion may drop.
					if err == nil && len(rep.CCTs) == len(cfs) {
						want := rep.WastedBytes
						for _, c := range cfs {
							want += c.TotalBytes()
						}
						if math.Abs(rep.TotalBytes-want) > 1e-6*(1+want) {
							t.Errorf("%s: conservation broken: wire %v != sizes + wasted %v", tag, rep.TotalBytes, want)
						}
					}
					var sum float64
					for _, w := range got.FailureWasted {
						sum += w
					}
					if math.Abs(sum-rep.WastedBytes) > 1e-9*(1+rep.WastedBytes) {
						t.Errorf("%s: per-failure waste sums to %v, report says %v", tag, sum, rep.WastedBytes)
					}

					if *updateGolden {
						if prev, ok := golden[key]; ok && fmt.Sprint(prev) != fmt.Sprint(got) {
							t.Errorf("%s: flag on and off disagree; refusing to record\n  off %v\n  on  %v", key, prev, got)
						}
						golden[key] = got
						continue
					}
					want, ok := golden[key]
					if !ok {
						t.Fatalf("%s: not in %s (regenerate with -update)", key, failureGoldenPath)
					}
					if got.Digest != want.Digest {
						t.Errorf("%s: digest %s, golden %s", tag, got.Digest, want.Digest)
					}
					if len(got.FailureWasted) != len(want.FailureWasted) {
						t.Errorf("%s: %d failure outcomes, golden %d", tag, len(got.FailureWasted), len(want.FailureWasted))
						continue
					}
					cells := [][2]float64{{got.TotalBytes, want.TotalBytes}, {got.WastedBytes, want.WastedBytes}}
					for i := range got.FailureWasted {
						cells = append(cells, [2]float64{got.FailureWasted[i], want.FailureWasted[i]})
					}
					for i, c := range cells {
						byteCells++
						near, exact := sameBytes(c[0], c[1])
						if !near {
							t.Errorf("%s: byte accumulator %d = %v, golden %v", tag, i, c[0], c[1])
						}
						if !exact {
							movedCells++
						}
					}
				}
			}
		}
	}
	if *updateGolden {
		if !t.Failed() {
			writeFailureGolden(t, golden)
		}
		return
	}
	if len(golden)*2 != runs {
		t.Errorf("golden holds %d cells, matrix ran %d", len(golden), runs/2)
	}
	t.Logf("%d runs; %d of %d byte-accumulator cells differ from the golden in the last bits", runs, movedCells, byteCells)
}

// writeFailureGolden writes the golden one run a line, keys sorted, so a
// re-record diffs by cell.
func writeFailureGolden(t *testing.T, golden map[string]failureGoldenRun) {
	t.Helper()
	keys := make([]string, 0, len(golden))
	for k := range golden {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("{\n")
	for i, k := range keys {
		line, err := json.Marshal(golden[k])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%q: %s", k, line)
		if i < len(keys)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("}\n")
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(failureGoldenPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d cells to %s", len(keys), failureGoldenPath)
}
