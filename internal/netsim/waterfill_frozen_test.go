package netsim_test

// Frozen digests of many-level water-filling. refsim's random specs and the
// n = 10 pipelines in internal/core stop after a few filling levels; a 256-node
// shuffle with zipf data needs many per epoch, in the work-conserving backfill
// (Varys), in per-flow max-min sharing (PerFlowFair) and in the one-destination
// filter (SequentialByDest). Serving one destination at a time, the last
// schedule takes 65 280 epochs over Hash's 65 280 flows, each of them O(flows),
// so its runs stop at a horizon: the placement's lone-coflow optimum, the
// Varys run's makespan (≈ 500 epochs under Hash).
//
// testdata/frozen_waterfill.json was recorded before coflow's progressive
// filling walked a compacted list of unfrozen flows, and is not meant to be
// re-recorded: a different digest means a result moved in some bit.
//
// A run's digest is FNV-1a over the raw bits of every Report field and of each
// flow's EndTime, Remaining and Done. Flow.Rate is scheduler scratch and is
// left out.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/placement"
	"ccf/internal/workload"
)

func digestWaterFillRun(rep *netsim.Report, c *coflow.Coflow) string {
	b := bitHash{fnv.New64a()}
	b.f64(rep.Makespan)
	b.f64(rep.AvgCCT)
	b.f64(rep.MaxCCT)
	b.f64(rep.WeightedAvgCCT)
	b.f64(rep.TotalBytes)
	b.int(rep.Epochs)
	b.f64(rep.WastedBytes)
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
	b.int(len(rep.Restarts))
	b.int(len(rep.Failures))
	b.int(len(c.Flows))
	for _, f := range c.Flows {
		b.f64(f.EndTime)
		b.f64(f.Remaining)
		b.bool(f.Done)
	}
	return fmt.Sprintf("%016x", b.h.Sum64())
}

func TestFrozenWaterFill(t *testing.T) {
	const n = 256
	w, err := workload.Generate(workload.Config{
		Nodes:          n,
		Zipf:           0.8,
		Skew:           0.2,
		CustomerTuples: int64(0.01 * workload.DefaultCustomerTuples),
		OrderTuples:    int64(0.01 * workload.DefaultOrderTuples),
	})
	if err != nil {
		t.Fatal(err)
	}
	fab, err := netsim.NewFabric(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, pl := range []placement.Scheduler{placement.Hash{}, placement.Mini{}} {
		eval, err := placement.Evaluate(pl, w.Chunks, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		optimum := -1.0
		for _, sched := range []coflow.Scheduler{coflow.NewVarys(), coflow.PerFlowFair{}, coflow.SequentialByDest{}} {
			c, err := coflow.FromVolumes(0, pl.Name(), 0, n, eval.Volumes)
			if err != nil {
				t.Fatal(err)
			}
			sim := netsim.NewSimulator(fab, sched)
			if _, seq := sched.(coflow.SequentialByDest); seq {
				sim.Horizon = optimum
			}
			rep, err := sim.Run([]*coflow.Coflow{c})
			if err != nil {
				t.Fatal(err)
			}
			if optimum < 0 {
				optimum = rep.Makespan
			}
			got[pl.Name()+"/"+sched.Name()] = digestWaterFillRun(rep, c)
		}
	}

	const path = "testdata/frozen_waterfill.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, %d recorded", len(got), len(want))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, recorded %s", name, d, want[name])
		}
	}
}
