package main

// The A/A gate: the same tree measured twice must agree with itself within
// the bounds BENCHMARK.json sets, or no later comparison means anything. Both
// sets run the same seeds, so what must repeat exactly — the result digest
// and sim_avg_cct_s of a seed — is compared exactly, and the host-time
// metrics are compared like with like.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"

	"ccf/internal/stats"
)

// selfcheckRuns is the number of runs per set; run i uses seed goldenSeed+i.
const selfcheckRuns = 3

// childRun is what one end-to-end run of this binary reported.
type childRun struct {
	metrics map[string]float64
	digest  string
}

var digestLine = regexp.MustCompile(`(?m)^digest ([0-9a-f]{16})$`)

// runChild runs one end-to-end benchmark process of this same binary and
// parses its result line and its digest line.
func runChild(name string, seed int, seconds float64, stateDir string) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-state-dir", stateDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", name, seed, err, stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	m := digestLine.FindSubmatch(stderr.Bytes())
	if m == nil {
		return nil, fmt.Errorf("%s seed %d: no digest line", name, seed)
	}
	run := &childRun{metrics: map[string]float64{}, digest: string(m[1])}
	for k, v := range res.Metrics {
		run.metrics[k] = v.Value
	}
	return run, nil
}

// rangeShare is the run-to-run spread of one set: (max − min) / median.
func rangeShare(v []float64) float64 {
	lo, hi := stats.MinMax(v)
	return (hi - lo) / stats.Percentile(v, 50)
}

// verdict compares two sets of runs of one metric against its bound. Where
// either set's own spread is wider than the bound the pair is unresolved: the
// box was too noisy to say the medians agree or differ.
func verdict(a, b []float64, bound float64) string {
	switch ma, mb := stats.Percentile(a, 50), stats.Percentile(b, 50); {
	case math.Max(rangeShare(a), rangeShare(b)) > bound:
		return "unresolved"
	case math.Abs(mb/ma-1) > bound:
		return "EXCEEDS BOUND"
	}
	return "ok"
}

// runSelfcheck measures every workload in two sets of selfcheckRuns runs
// (set A over all workloads, then set B, so the sets are minutes apart) and
// compares the sets metric by metric.
func runSelfcheck(bf *benchmarkFile, seconds float64, stateDir string) error {
	// runs[set][workload] holds one childRun per seed.
	var runs [2]map[string][]*childRun
	for set := range runs {
		runs[set] = map[string][]*childRun{}
		for _, wl := range bf.Workloads {
			for i := 0; i < selfcheckRuns; i++ {
				run, err := runChild(wl.Name, goldenSeed+i, seconds, stateDir)
				if err != nil {
					return err
				}
				runs[set][wl.Name] = append(runs[set][wl.Name], run)
				fmt.Fprintf(os.Stderr, "set %c %s seed %d done\n", 'A'+set, wl.Name, goldenSeed+i)
			}
		}
	}
	fmt.Printf("%-14s %-14s %14s %14s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "B/A", "spread", "bound")
	var failed error
	unresolved, pairs := 0, 0
	for _, wl := range bf.Workloads {
		a, b := runs[0][wl.Name], runs[1][wl.Name]
		for i := range a {
			if a[i].digest != b[i].digest || a[i].metrics["sim_avg_cct_s"] != b[i].metrics["sim_avg_cct_s"] {
				failed = errors.Join(failed, fmt.Errorf("%s seed %d is not deterministic: digest %s sim_avg_cct_s %v, then digest %s sim_avg_cct_s %v",
					wl.Name, goldenSeed+i, a[i].digest, a[i].metrics["sim_avg_cct_s"], b[i].digest, b[i].metrics["sim_avg_cct_s"]))
			}
		}
		for _, m := range bf.EndToEnd {
			var va, vb []float64
			for i := range a {
				va = append(va, a[i].metrics[m.Name])
				vb = append(vb, b[i].metrics[m.Name])
			}
			v := verdict(va, vb, m.Bound)
			pairs++
			switch v {
			case "unresolved":
				unresolved++
			case "EXCEEDS BOUND":
				failed = errors.Join(failed, fmt.Errorf("%s %s: set medians differ by more than %v", wl.Name, m.Name, m.Bound))
			}
			ma, mb := stats.Percentile(va, 50), stats.Percentile(vb, 50)
			fmt.Printf("%-14s %-14s %14.6g %14.6g %8.4f %8.4f %6.3f  %s\n", wl.Name, m.Name, ma, mb, mb/ma,
				math.Max(rangeShare(va), rangeShare(vb)), m.Bound, v)
		}
	}
	fmt.Printf("%d of %d pairs unresolved (a set's own spread exceeded the bound); digests and sim_avg_cct_s compared exactly per seed\n", unresolved, pairs)
	return failed
}
