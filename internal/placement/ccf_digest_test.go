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

// backlogCase is one instance of the serve_backlog family.
type backlogCase struct {
	m       *partition.ChunkMatrix
	initial *partition.Loads
}

// serveBacklogCases returns the 16 instances TestCCFServeBacklogDigest hashes,
// in its order — seeds 1 … 8, each against an idle network and then against
// the recorded backlog — and the recorded digest.
func serveBacklogCases(tb testing.TB) ([]backlogCase, string) {
	tb.Helper()
	raw, err := os.ReadFile("testdata/ccf_serve_backlog.json")
	if err != nil {
		tb.Fatal(err)
	}
	var golden struct {
		BacklogEgress  []int64 `json:"backlog_egress"`
		BacklogIngress []int64 `json:"backlog_ingress"`
		Digest         string  `json:"digest"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		tb.Fatal(err)
	}
	const n, p = 64, 960
	if len(golden.BacklogEgress) != n || len(golden.BacklogIngress) != n {
		tb.Fatalf("recorded backlog spans %d/%d ports, want %d", len(golden.BacklogEgress), len(golden.BacklogIngress), n)
	}
	var cases []backlogCase
	for seed := uint64(1); seed <= 8; seed++ {
		customers := int64(5000 * seed) // 5 k … 40 k: jobs below and above the stream's median
		w, err := workload.Generate(workload.Config{
			Nodes: n, Partitions: p, CustomerTuples: customers, OrderTuples: 10 * customers, PayloadBytes: 1000,
			Zipf: workload.DefaultZipf, Skew: workload.DefaultSkew, Seed: seed, JitterFrac: 0.05,
		})
		if err != nil {
			tb.Fatal(err)
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
			cases = append(cases, backlogCase{plan.Adjusted, initial})
		}
	}
	return cases, golden.Digest
}

func TestCCFServeBacklogDigest(t *testing.T) {
	cases, digest := serveBacklogCases(t)
	h := fnv.New64a()
	for _, c := range cases {
		pl, err := CCF{}.Place(c.m, c.initial)
		if err != nil {
			t.Fatal(err)
		}
		var word [8]byte
		for _, d := range pl.Dest {
			binary.LittleEndian.PutUint64(word[:], uint64(d))
			h.Write(word[:])
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != digest {
		t.Errorf("Dest digest over 8 seeds × {idle, backlog} = %s, recorded %s", got, digest)
	}
}

// BenchmarkCCFPlace times one CCF.Place at 64 × 960, cycling through the 16
// instances of TestCCFServeBacklogDigest: half carry only the job's broadcast
// loads, half sit on the recorded backlog, where the candidate scan stops
// early. Place keeps neither argument, so the instances are reused as they are.
func BenchmarkCCFPlace(b *testing.B) {
	cases, _ := serveBacklogCases(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cases[i%len(cases)]
		if _, err := (CCF{}).Place(c.m, c.initial); err != nil {
			b.Fatal(err)
		}
	}
}
