package placement

// A frozen oracle for CCF.Place on the instances ccfd actually serves. The
// property suite (TestCCFMatchesReferenceImplementation) compares Place with
// the textbook loop on small random matrices; this one pins it on the
// serve_backlog family — 64 nodes × 960 partitions, Zipf 0.8, 20 % skew,
// JitterFrac 0.05, skew-adjusted by partial duplication — against an idle
// network and against a backlog vector recorded from a live engine (job 150 of
// the benchmark's seed-1 stream, 19 coflows resident). The digest in
// testdata/ccf_serve_backlog.json was recorded at the commit before Place got
// its typed sort, incremental ingress top-2 and early-exit candidate scan, and
// is not meant to be re-recorded: a different value means placements moved.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"ccf/internal/partition"
	"ccf/internal/skew"
	"ccf/internal/workload"
)

func TestCCFServeBacklogDigest(t *testing.T) {
	raw, err := os.ReadFile("testdata/ccf_serve_backlog.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		BacklogEgress  []int64 `json:"backlog_egress"`
		BacklogIngress []int64 `json:"backlog_ingress"`
		Digest         string  `json:"digest"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	const n, p = 64, 960
	if len(golden.BacklogEgress) != n || len(golden.BacklogIngress) != n {
		t.Fatalf("recorded backlog spans %d/%d ports, want %d", len(golden.BacklogEgress), len(golden.BacklogIngress), n)
	}
	h := fnv.New64a()
	for seed := uint64(1); seed <= 8; seed++ {
		customers := int64(5000 * seed) // 5 k … 40 k: jobs below and above the stream's median
		w, err := workload.Generate(workload.Config{
			Nodes: n, Partitions: p, CustomerTuples: customers, OrderTuples: 10 * customers, PayloadBytes: 1000,
			Zipf: workload.DefaultZipf, Skew: workload.DefaultSkew, Seed: seed, JitterFrac: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan := skew.PartialDuplication(w)
		for _, backlog := range []bool{false, true} {
			initial := &partition.Loads{
				Egress:  append([]int64(nil), plan.Initial.Egress...),
				Ingress: append([]int64(nil), plan.Initial.Ingress...),
			}
			if backlog {
				for i := 0; i < n; i++ {
					initial.Egress[i] += golden.BacklogEgress[i]
					initial.Ingress[i] += golden.BacklogIngress[i]
				}
			}
			pl, err := CCF{}.Place(plan.Adjusted, initial)
			if err != nil {
				t.Fatal(err)
			}
			var word [8]byte
			for _, d := range pl.Dest {
				binary.LittleEndian.PutUint64(word[:], uint64(d))
				h.Write(word[:])
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != golden.Digest {
		t.Errorf("Dest digest over 8 seeds × {idle, backlog} = %s, recorded %s", got, golden.Digest)
	}
}
