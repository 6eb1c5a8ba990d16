package main

// The run loop shared by every workload: one discarded warm-up round, then
// identical rounds on fresh state until both minRounds rounds and the
// requested measuring time are spent; every end-to-end metric is computed per
// round and reported by the second-best rule (stats.go).

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"ccf/internal/stats"
)

// maxRounds caps a run on a box much faster than the one the op counts were
// sized on, where the measuring time alone would ask for dozens of rounds.
const maxRounds = 64

// runner is one benchmark workload. prepare and layers are harness time;
// round is what gets measured.
type runner interface {
	// prepare builds the seeded inputs and the reference outputs every round
	// is checked against. The program under test only ever sees the inputs.
	prepare(seed uint64) error
	// round runs one full round on fresh state: the timed op phase, the
	// timed set-up, and the round's correctness checks. A non-nil tracer
	// makes it a traced round (spans recorded, in-program tracing on).
	round(tr *tracer) (*roundResult, error)
	// layers runs the probes only the traced run does and adds this
	// workload's per-layer metrics to out. tr holds the last traced round's
	// spans.
	layers(tr *tracer, untraced, traced []*roundResult, out map[string]float64) error
	// tracks names the tracer tracks round records on, in index order.
	tracks() []string
}

// roundResult is what one round produced.
type roundResult struct {
	setupS float64 // program time to ready (definition per workload)
	wallS  float64 // wall time of the op phase
	// clients holds per-op latencies in seconds, one slice per closed-loop
	// client, each in op order.
	clients [][]float64
	failed  int     // ops that errored, were refused, or failed verification
	digest  uint64  // FNV fold of the round's outputs
	simCCT  float64 // mean coflow completion time, simulated seconds
	// extra carries per-round facts only the layer table needs.
	extra map[string]float64
}

func (r *roundResult) ops() int {
	n := 0
	for _, c := range r.clients {
		n += len(c)
	}
	return n
}

func (r *roundResult) flat() []float64 {
	out := make([]float64, 0, r.ops())
	for _, c := range r.clients {
		out = append(out, c...)
	}
	return out
}

func (r *roundResult) opsPerS() float64 { return float64(r.ops()) / r.wallS }

// roundMetrics are the end-to-end metrics computed per round, in print order.
var roundMetrics = []struct {
	name  string
	lower bool // lower is better
}{
	{"setup_s", true},
	{"ops_per_s", false},
	{"op_p50_ms", true},
	{"op_p90_ms", true},
}

// endToEnd is one run's per-round metrics: the series, and the value the
// second-best rule reports for each.
type endToEnd struct {
	series   map[string][]float64
	reported map[string]float64
}

// measure runs the warm-up and the measured rounds. peakRSS is the process's
// high-water mark after the warm-up and the first minRounds rounds — the part
// of a run every box executes — so that it does not depend on how many more
// rounds the box's speed fits into the measuring time.
func measure(w runner, seconds float64) (rounds []*roundResult, peakRSS float64, err error) {
	if _, err := w.round(nil); err != nil {
		return nil, 0, fmt.Errorf("warm-up round: %w", err)
	}
	begin := time.Now()
	for len(rounds) < minRounds || (time.Since(begin).Seconds() < seconds && len(rounds) < maxRounds) {
		runtime.GC()
		r, err := w.round(nil)
		if err != nil {
			return nil, 0, fmt.Errorf("round %d: %w", len(rounds)+1, err)
		}
		rounds = append(rounds, r)
		if len(rounds) == minRounds {
			if peakRSS, err = peakRSSMB(); err != nil {
				return nil, 0, err
			}
		}
	}
	return rounds, peakRSS, nil
}

// roundSeries computes the per-round end-to-end metrics, by name.
func roundSeries(rounds []*roundResult) map[string][]float64 {
	series := map[string][]float64{}
	for _, r := range rounds {
		p50, p90, _ := latencyMs(r.flat())
		series["setup_s"] = append(series["setup_s"], r.setupS)
		series["ops_per_s"] = append(series["ops_per_s"], r.opsPerS())
		series["op_p50_ms"] = append(series["op_p50_ms"], p50)
		series["op_p90_ms"] = append(series["op_p90_ms"], p90)
	}
	return series
}

// summarise applies the second-best rule to the rounds.
func summarise(rounds []*roundResult) (*endToEnd, error) {
	e := &endToEnd{series: roundSeries(rounds), reported: map[string]float64{}}
	for _, m := range roundMetrics {
		v, err := secondBest(e.series[m.name], m.lower)
		if err != nil {
			return nil, err
		}
		e.reported[m.name] = v
	}
	return e, nil
}

// checkRounds enforces what must repeat exactly: every round's result digest
// and simulated CCT equal the first round's, and no op failed.
func checkRounds(rounds []*roundResult) (attempted, failed int, err error) {
	for i, r := range rounds {
		attempted += r.ops()
		failed += r.failed
		if r.digest != rounds[0].digest {
			err = errors.Join(err, fmt.Errorf("round %d: result digest %016x differs from round 1's %016x", i+1, r.digest, rounds[0].digest))
		}
		if r.simCCT != rounds[0].simCCT {
			err = errors.Join(err, fmt.Errorf("round %d: sim_avg_cct_s %v differs from round 1's %v", i+1, r.simCCT, rounds[0].simCCT))
		}
	}
	if failed > 0 {
		err = errors.Join(err, fmt.Errorf("%d of %d ops failed", failed, attempted))
	}
	return attempted, failed, err
}

// printRounds writes the per-round table and the round-spread diagnostic to
// standard error, leaving standard output to the result line.
func printRounds(e *endToEnd) {
	fmt.Fprintf(os.Stderr, "%-6s", "round")
	for _, m := range roundMetrics {
		fmt.Fprintf(os.Stderr, " %12s", m.name)
	}
	fmt.Fprintln(os.Stderr)
	for i := range e.series["setup_s"] {
		fmt.Fprintf(os.Stderr, "%-6d", i+1)
		for _, m := range roundMetrics {
			fmt.Fprintf(os.Stderr, " %12.4f", e.series[m.name][i])
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "%-6s", "report")
	for _, m := range roundMetrics {
		fmt.Fprintf(os.Stderr, " %12.4f", e.reported[m.name])
	}
	fmt.Fprintf(os.Stderr, "\n%-6s", "spread")
	for _, m := range roundMetrics {
		fmt.Fprintf(os.Stderr, " %12.4f", roundSpread(e.series[m.name], e.reported[m.name]))
	}
	fmt.Fprintln(os.Stderr)
}

// bestOpsPerS is the trace run's throughput statistic: it has too few rounds
// for the second-best rule and only feeds the traced/untraced ratio.
func bestOpsPerS(rounds []*roundResult) float64 {
	best := 0.0
	for _, r := range rounds {
		if v := r.opsPerS(); v > best {
			best = v
		}
	}
	return best
}

// medianOf applies f to every round and returns the median.
func medianOf(rounds []*roundResult, f func(*roundResult) float64) float64 {
	v := make([]float64, len(rounds))
	for i, r := range rounds {
		v[i] = f(r)
	}
	return stats.Percentile(v, 50)
}
