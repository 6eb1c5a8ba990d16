package core

// Frozen digests of the one-shot pipelines: RunScheduler (closed form and
// event simulator, skew handling on and off), RunWithNodeLoss under both
// recovery policies, and the motivating example. testdata/frozen_pipeline.json
// was recorded at the parent of PR 20, when each of them placed, built flow
// volumes and ran its coflow with its own copy of the step, and is not meant
// to be re-recorded: a different digest means a result moved in some bit.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/workload"
)

// frozenDigest hashes words: int64s as they are, floats by their bits.
type frozenDigest struct{ words []int64 }

func (d *frozenDigest) ints(v ...int64) { d.words = append(d.words, v...) }

func (d *frozenDigest) floats(v ...float64) {
	for _, x := range v {
		d.words = append(d.words, int64(math.Float64bits(x)))
	}
}

func (d *frozenDigest) placement(pl *partition.Placement) {
	d.ints(int64(len(pl.Dest)))
	for _, dst := range pl.Dest {
		d.ints(int64(dst))
	}
}

func (d *frozenDigest) sum() string {
	h := fnv.New64a()
	for _, v := range d.words {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestFrozenPipelines(t *testing.T) {
	got := map[string]string{}

	for seed := uint64(1); seed <= 4; seed++ {
		for _, skewFrac := range []float64{0, 0.2} {
			w, err := workload.Generate(workload.Config{
				Nodes: 10, CustomerTuples: 3_000, OrderTuples: 30_000, PayloadBytes: 1000,
				Zipf: 0.8, Skew: skewFrac, Seed: seed, JitterFrac: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}, placement.LPT{}} {
				for _, handleSkew := range []bool{false, true} {
					for _, eventSim := range []bool{false, true} {
						r, err := RunScheduler(w, s, handleSkew, Options{UseEventSim: eventSim})
						if err != nil {
							t.Fatal(err)
						}
						var d frozenDigest
						d.ints(r.TrafficBytes, r.BottleneckBytes)
						d.floats(r.TimeSec)
						if r.SkewHandled {
							d.ints(1)
						}
						d.placement(r.Placement)
						got[fmt.Sprintf("run/seed%d/skew%g/%s/handle=%v/eventsim=%v", seed, skewFrac, r.Approach, handleSkew, eventSim)] = d.sum()
					}
				}
			}
		}
	}

	for seed := uint64(0); seed < 4; seed++ {
		w := recoveryWorkload(t, seed)
		for _, policy := range []RecoveryPolicy{RecoverReplace, RecoverRetryInPlace} {
			for _, failTime := range []float64{1e-3, 0.06} {
				r, err := RunWithNodeLoss(w, placement.CCF{}, NodeLossSpec{FailNode: 3, FailTime: failTime}, policy, Options{Bandwidth: 1e6})
				if err != nil {
					t.Fatal(err)
				}
				var d frozenDigest
				d.floats(r.CleanMakespan, r.WastedBytes, r.LostBytes, r.PostMakespan, r.TotalMakespan)
				d.ints(int64(r.ReplacedPartitions), r.ReplacedBytes)
				got[fmt.Sprintf("nodeloss/seed%d/%s/fail@%g", seed, policy, failTime)] = d.sum()
			}
		}
	}

	m, err := MotivatingExample()
	if err != nil {
		t.Fatal(err)
	}
	var d frozenDigest
	for _, p := range []MotivatingPlan{m.SP0, m.SP1, m.SP2, m.CCF} {
		d.placement(p.Placement)
		d.ints(p.Traffic)
		d.floats(p.OptimalCCT, p.WorstCCT)
	}
	d.ints(m.OptimalT)
	got["motivating"] = d.sum()

	const path = "testdata/frozen_pipeline.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, %d recorded", len(got), len(want))
	}
	for name, dg := range got {
		if want[name] != dg {
			t.Errorf("%s: digest %s, recorded %s", name, dg, want[name])
		}
	}
}
