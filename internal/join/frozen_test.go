package join_test

// Frozen digests of join.Execute over the four ways the repository runs it —
// plain hash join, partial duplication of one hot key, per-key track join and
// several Zipf hot keys with per-tuple payloads — under Hash, Mini and CCF.
// testdata/frozen_execute.json was recorded at the parent of PR 20, when
// Execute still carried its own matrix build, placement, simulation and
// routing, and is not meant to be re-recorded: a different digest means a
// result moved in some bit.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"ccf/internal/join"
	"ccf/internal/partition"
	"ccf/internal/placement"
	"ccf/internal/trackjoin"
)

func digestResult(r *join.Result) string {
	h := fnv.New64a()
	word := func(v int64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	word(r.OutputTuples)
	word(r.TrafficBytes)
	word(r.BottleneckBytes)
	word(int64(math.Float64bits(r.CommTime)))
	word(int64(len(r.SkewedKeys)))
	for _, k := range r.SkewedKeys {
		word(k)
	}
	word(int64(len(r.Placement.Dest)))
	for _, d := range r.Placement.Dest {
		word(int64(d))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestFrozenExecute(t *testing.T) {
	const n = 6
	got := map[string]string{}
	for seed := uint64(1); seed <= 8; seed++ {
		for _, kind := range []string{"uniform", "skewed", "perkey", "zipf"} {
			cfg := join.GenConfig{Customers: 300, OrdersPerCust: 10, PayloadBytes: 100, Seed: seed}
			var threshold float64
			switch kind {
			case "skewed":
				cfg.SkewFrac, threshold = 0.2, 0.05
			case "zipf":
				cfg.KeyZipf, threshold = 1.1, 0.02
			}
			cust, ords := join.GenerateRelations(cfg)
			if kind == "zipf" {
				// Payloads that differ from tuple to tuple: the chunk matrix
				// and the broadcast must be sized per row.
				for _, r := range []*join.Relation{cust, ords} {
					for i := range r.Tuples {
						r.Tuples[i].Payload = 40 + 20*(r.Tuples[i].Key%5)
					}
				}
			}
			want := join.Reference(cust, ords)
			for _, s := range []placement.Scheduler{placement.Hash{}, placement.Mini{}, placement.CCF{}} {
				var cl *join.Cluster
				if kind == "perkey" {
					var err error
					if cl, _, err = trackjoin.BuildCluster(n, cust, ords, join.ZipfPlacer(n, 0.8, seed+1)); err != nil {
						t.Fatal(err)
					}
				} else {
					cl = join.NewCluster(n, partition.ModPartitioner{NumPartitions: 15 * n})
					cl.LoadByPlacement(true, cust, join.ZipfPlacer(n, 0.8, seed+1))
					cl.LoadByPlacement(false, ords, join.ZipfPlacer(n, 0.8, seed+2))
				}
				res, err := join.Execute(cl, join.Options{Scheduler: s, SkewThreshold: threshold})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed%d/%s/%s", seed, kind, s.Name())
				if res.OutputTuples != want {
					t.Errorf("%s: %d output tuples, reference join has %d", name, res.OutputTuples, want)
				}
				if kind == "zipf" && len(res.SkewedKeys) < 2 {
					t.Errorf("%s: %d hot keys, the case is meant to have several", name, len(res.SkewedKeys))
				}
				got[name] = digestResult(res)
			}
		}
	}
	checkFrozen(t, "testdata/frozen_execute.json", got)
}

// checkFrozen compares digests with the recorded file, case by case.
func checkFrozen(t *testing.T, path string, got map[string]string) {
	t.Helper()
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
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, recorded %s", name, d, want[name])
		}
	}
}
