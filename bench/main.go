// Command bench is the repository's one benchmark: five seeded workloads, six
// end-to-end metrics, and a traced run that attributes time to layers. See
// README.md in this directory for the tables and the reasoning.
//
//	bash bench/run.sh -workload serve_edge -seed 1 -seconds 16 -trace 0   # end-to-end
//	bash bench/run.sh -workload serve_edge -seed 1 -seconds 16 -trace 1   # per-layer
//	bash bench/run.sh -selfcheck                                          # A/A gate
//	bash bench/run.sh -update-golden                                      # rewrite testdata/golden.json
//
// Every run starts at the root of a checkout, where BENCHMARK.json is. The
// last line of standard output is one JSON object: correct, attempted,
// failed, metrics. Everything else goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// newWorkload builds a workload by name; stateDir is where the daemon
// workloads keep their journals.
func newWorkload(name, stateDir string) (runner, error) {
	switch name {
	case "serve_edge":
		return newServe(serveEdge(), stateDir), nil
	case "serve_backlog":
		return newServe(serveBacklog(), stateDir), nil
	case "serve_longrun":
		return newServe(serveLongrun(), stateDir), nil
	case "replay_trace":
		return newReplay(replayTrace()), nil
	case "query_join":
		return newQuery(queryJoin()), nil
	}
	return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json lists them)", name)
}

// benchmarkPath is BENCHMARK.json as seen from the root of a checkout, where
// every run starts. It is the one catalogue of workloads, metrics, units and
// bounds: the program prints what it lists and nothing else.
const benchmarkPath = "BENCHMARK.json"

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// report moves the measured values into the result under the names and units
// defs declares, in that order. A declared metric a workload does not measure
// reads 0 (a layer that is not on its path); a measured value that is not
// declared is an error, so the catalogue cannot fall behind the code.
func (r *result) report(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		r.Metrics[d.Name] = metric{values[d.Name], d.Unit}
		delete(values, d.Name)
	}
	for name := range values {
		return fmt.Errorf("metric %q is measured but not declared in %s", name, benchmarkPath)
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name         = flag.String("workload", "", "workload to run")
		seed         = flag.Uint64("seed", goldenSeed, "input seed; the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 16, "measuring time; at least 8 rounds run regardless")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a Chrome trace")
		stateDir     = flag.String("state-dir", filepath.Join(".bench_build", "state"), "where the serve_* daemons keep their journals; the default is inside the checkout, a tmpfs path takes the disk out of the numbers")
		selfcheck    = flag.Bool("selfcheck", false, "A/A gate: two sets of three runs of every workload on this tree, compared against the bounds")
		updateGolden = flag.Bool("update-golden", false, "re-record bench/testdata/golden.json for the golden seed")
	)
	flag.Parse()
	bf, err := readBenchmarkFile(benchmarkPath)
	if err == nil {
		err = os.MkdirAll(*stateDir, 0o755)
	}
	if err == nil {
		switch {
		case *selfcheck:
			err = runSelfcheck(bf, *seconds, *stateDir)
		case *updateGolden:
			err = runUpdateGolden(bf, *stateDir)
		default:
			err = runOne(bf, *name, *seed, *seconds, *trace != 0, *stateDir)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is one benchmark process: one workload, one seed, one mode.
func runOne(bf *benchmarkFile, name string, seed uint64, seconds float64, traced bool, stateBase string) error {
	stateDir, err := os.MkdirTemp(stateBase, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	w, err := newWorkload(name, stateDir)
	if err != nil {
		return err
	}
	env := readEnvironment(stateDir)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(os.Stderr, "env %s\n", envLine)
	env.warn()

	t0 := time.Now()
	if err := w.prepare(seed); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	inputGen := time.Since(t0).Seconds()
	runtime.GC()

	res := &result{Metrics: map[string]metric{}}
	var checkErr error
	if traced {
		checkErr = runTraced(w, name, bf.PerLayer, filepath.Join("bench", "out"), inputGen, res)
	} else {
		checkErr = runEndToEnd(w, name, bf.EndToEnd, seed, seconds, res)
	}
	res.Correct = checkErr == nil
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "bench: correctness:", checkErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if checkErr != nil {
		return fmt.Errorf("%s failed its correctness checks", name)
	}
	return nil
}

// runEndToEnd measures with tracing off and reports the end-to-end metrics.
func runEndToEnd(w runner, name string, defs []metricDef, seed uint64, seconds float64, res *result) error {
	rounds, rss, err := measure(w, seconds)
	if err != nil {
		return err
	}
	e, err := summarise(rounds)
	if err != nil {
		return err
	}
	printRounds(e)
	e.reported["peak_rss_mb"] = rss
	e.reported["sim_avg_cct_s"] = rounds[0].simCCT
	if err := res.report(defs, e.reported); err != nil {
		return err
	}
	// The A/A gate compares this line across runs of one seed.
	fmt.Fprintf(os.Stderr, "digest %s\n", digestHex(rounds[0].digest))
	var checkErr error
	res.Attempted, res.Failed, checkErr = checkRounds(rounds)
	if checkErr == nil {
		checkErr = checkGolden(name, seed, rounds[0])
	}
	return checkErr
}
