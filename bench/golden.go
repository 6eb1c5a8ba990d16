package main

// Goldens: for the golden seed, each workload's result digest and
// sim_avg_cct_s are pinned in testdata/golden.json. Any other seed is checked
// by cross-round equality alone.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSeed is the seed the goldens were recorded with.
const goldenSeed = 1

//go:embed testdata/golden.json
var goldenJSON []byte

// golden is one workload's pinned outputs. The digest is hex text: JSON
// numbers cannot hold 64 bits.
type golden struct {
	Digest string  `json:"digest"`
	SimCCT float64 `json:"sim_avg_cct_s"`
}

func digestHex(d uint64) string { return fmt.Sprintf("%016x", d) }

// checkGolden compares a round of the golden seed with the pinned outputs.
func checkGolden(name string, seed uint64, r *roundResult) error {
	if seed != goldenSeed {
		return nil
	}
	var all map[string]golden
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return fmt.Errorf("testdata/golden.json: %w", err)
	}
	g, ok := all[name]
	if !ok {
		return fmt.Errorf("no golden for %s; record one with -update-golden", name)
	}
	if got := digestHex(r.digest); got != g.Digest || r.simCCT != g.SimCCT {
		return fmt.Errorf("%s: digest %s sim_avg_cct_s %v, golden has %s and %v (re-record with -update-golden if the change is intended)",
			name, got, r.simCCT, g.Digest, g.SimCCT)
	}
	return nil
}

// runUpdateGolden runs one round of every workload on the golden seed and
// rewrites bench/testdata/golden.json. Like every run, it starts at the root
// of the checkout.
func runUpdateGolden(bf *benchmarkFile, stateDir string) error {
	all := map[string]golden{}
	for _, wl := range bf.Workloads {
		w, err := newWorkload(wl.Name, stateDir)
		if err != nil {
			return err
		}
		if err := w.prepare(goldenSeed); err != nil {
			return fmt.Errorf("%s: prepare: %w", wl.Name, err)
		}
		r, err := w.round(nil)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		if r.failed > 0 {
			return fmt.Errorf("%s: %d ops failed; not recording a golden", wl.Name, r.failed)
		}
		all[wl.Name] = golden{Digest: digestHex(r.digest), SimCCT: r.simCCT}
		fmt.Fprintf(os.Stderr, "%s: digest %s sim_avg_cct_s %v\n", wl.Name, all[wl.Name].Digest, r.simCCT)
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "testdata", "golden.json"), append(b, '\n'), 0o644)
}
