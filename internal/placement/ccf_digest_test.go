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
	"math/rand"
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

// BenchmarkCCFPlace times one CCF.Place per op on three shapes. 64x960 cycles
// through the 16 instances of TestCCFServeBacklogDigest: half carry only the
// job's broadcast loads, half sit on the recorded backlog, where the candidate
// scan stops early. 12x180 is query_join's exchange shape: 8 generated
// instances, skew-adjusted the same way, on an idle network. 8x8 is
// serve_edge's jobs: 16 matrices of 1 … 65 MB chunks on an idle network.
// Place keeps neither argument, so the instances are reused as they are.
func BenchmarkCCFPlace(b *testing.B) {
	backlog, _ := serveBacklogCases(b)
	edge := make([]backlogCase, 16)
	src := rand.New(rand.NewSource(1))
	for c := range edge {
		m, err := partition.NewChunkMatrix(8, 8)
		if err != nil {
			b.Fatal(err)
		}
		for i := range m.H {
			m.H[i] = 1e6 + src.Int63n(64e6)
		}
		edge[c] = backlogCase{m: m}
	}
	var exchange []backlogCase
	for seed := uint64(1); seed <= 8; seed++ {
		w, err := workload.Generate(workload.Config{
			Nodes: 12, Partitions: 180, CustomerTuples: 4000, OrderTuples: 40_000, PayloadBytes: 500,
			Zipf: workload.DefaultZipf, Skew: workload.DefaultSkew, Seed: seed, JitterFrac: 0.05,
		})
		if err != nil {
			b.Fatal(err)
		}
		plan := skew.PartialDuplication(w)
		exchange = append(exchange, backlogCase{plan.Adjusted, plan.Initial})
	}
	for _, shape := range []struct {
		name  string
		cases []backlogCase
	}{{"64x960", backlog}, {"12x180", exchange}, {"8x8", edge}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := shape.cases[i%len(shape.cases)]
				if _, err := (CCF{}).Place(c.m, c.initial); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
