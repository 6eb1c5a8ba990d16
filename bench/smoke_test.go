package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeWorkloads are the five workloads cut down to about twenty ops a round,
// so the whole path — inputs, round, checks, ladder, probes, trace file — runs
// in a test without measuring anything.
func smokeWorkloads(stateDir string) map[string]runner {
	return map[string]runner{
		"serve_edge":    newServe(serveConfig{name: "serve_edge", nodes: 8, shards: 2, jobsPerShard: 10, restarts: 2}, stateDir),
		"serve_longrun": newServe(serveConfig{name: "serve_longrun", nodes: 8, shards: 1, jobsPerShard: 20, restarts: 1}, stateDir),
		"serve_backlog": newServe(serveConfig{name: "serve_backlog", nodes: 16, shards: 2, jobsPerShard: 10,
			backlog: true, partitions: 240, load: 1.4, restarts: 1}, stateDir),
		"replay_trace": newReplay(replayConfig{machines: 16, coflows: 20, density: 1}),
		"query_join":   newQuery(queryConfig{nodes: 4, tableSeeds: 1, customers: 60, loads: 2}),
	}
}

// TestSmoke runs every workload BENCHMARK.json lists on a seed that has no
// golden: an end-to-end run and a traced run must pass their checks and
// measure nothing the file does not declare.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", benchmarkPath))
	if err != nil {
		t.Fatal(err)
	}
	smoke := smokeWorkloads(t.TempDir())
	if len(bf.Workloads) != len(smoke) {
		t.Fatalf("%d workloads in %s, %d smoke configurations", len(bf.Workloads), benchmarkPath, len(smoke))
	}
	for _, wl := range bf.Workloads {
		name, w := wl.Name, smoke[wl.Name]
		t.Run(name, func(t *testing.T) {
			if _, err := newWorkload(name, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			const seed = 3
			if err := w.prepare(seed); err != nil {
				t.Fatal(err)
			}
			res := &result{Metrics: map[string]metric{}}
			if err := runEndToEnd(w, name, bf.EndToEnd, seed, 0, res); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < minRounds*20 || len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("attempted %d failed %d, %d metrics", res.Attempted, res.Failed, len(res.Metrics))
			}
			for _, d := range bf.EndToEnd {
				if v := res.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v; end-to-end metrics are never 0", d.Name, v)
				}
			}

			out := t.TempDir()
			res = &result{Metrics: map[string]metric{}}
			if err := runTraced(w, name, bf.PerLayer, out, 0, res); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 2*tracedRounds*20 || len(res.Metrics) != len(bf.PerLayer) {
				t.Errorf("attempted %d failed %d, %d metrics", res.Attempted, res.Failed, len(res.Metrics))
			}
			b, err := os.ReadFile(filepath.Join(out, name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, err %v", len(doc.TraceEvents), err)
			}
		})
	}
}
