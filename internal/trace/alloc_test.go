package trace_test

import (
	"bytes"
	"testing"

	"ccf/internal/fbtrace"
	"ccf/internal/trace"
)

// TestParseAllocationsPerJob bounds Parse's allocations on the replay
// benchmark's ×100 trace to a fixed number per job: a line, a mapper list
// and a reducer list each, plus the job list's growth. A parser that first
// collects the whole file's tokens, or keeps reducers in maps, exceeds it.
func TestParseAllocationsPerJob(t *testing.T) {
	cfg := fbtrace.Config{Machines: 64, Coflows: 12, MeanInterarrivalSec: 1, Seed: 42, Density: 100}
	cfs, err := fbtrace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := fbtrace.ToTrace(cfg.Machines, cfs)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := trace.Parse(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	jobs := float64(len(tr.Jobs))
	t.Logf("%d jobs, %d bytes: %.0f allocations, %.3f per job", len(tr.Jobs), len(text), allocs, allocs/jobs)
	if allocs > 3*jobs+64 {
		t.Errorf("Parse made %.0f allocations for %d jobs, want at most 3 per job + 64", allocs, len(tr.Jobs))
	}
}
