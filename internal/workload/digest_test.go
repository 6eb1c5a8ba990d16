package workload

// Frozen digests of what Generate produces, recorded at the commit before the
// generator went row-major (one strided Set per cell behind rankOf and
// assignPartition, partitions fanned out over GOMAXPROCS goroutines at every
// size). Each shape's digest is FNV-1a over Chunks.H, SkewBytesPerNode,
// SkewPartition and SkewOwner across {ShuffleRanks off, on} × {JitterFrac 0,
// 0.05, 0.9, 1} × {Skew 0, 0.2} × 8 seeds; JitterFrac 0.9 and 1 take the
// negative-remainder drain (194 and 290 of 64×960's 7 680 partitions per
// setting). 64×960, ccfd's benchmark shape, fills inline; 128×2048 is the
// smallest power-of-two shape that fills in parallel (parallelCells). The
// values in testdata/generate_digests.json are not meant to be re-recorded.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"testing"
)

func hashInts(h hash.Hash64, vs ...int64) {
	var word [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
}

// digestWorkload folds everything Generate computes per instance.
func digestWorkload(h hash.Hash64, w *Workload) {
	hashInts(h, w.Chunks.H...)
	hashInts(h, w.SkewBytesPerNode...)
	hashInts(h, int64(w.SkewPartition), int64(w.SkewOwner), w.BroadcastBytes)
}

// digestFamily visits the frozen config family of one shape in a fixed order.
func digestFamily(t *testing.T, n, p int, visit func(Config)) {
	t.Helper()
	for _, shuffle := range []bool{false, true} {
		for _, jitter := range []float64{0, 0.05, 0.9, 1} {
			for _, skew := range []float64{0, 0.2} {
				for seed := uint64(1); seed <= 8; seed++ {
					visit(Config{
						Nodes: n, Partitions: p, CustomerTuples: 20_000, OrderTuples: 200_000, PayloadBytes: 1000,
						Zipf: DefaultZipf, Skew: skew, ShuffleRanks: shuffle, Seed: seed, JitterFrac: jitter,
					})
				}
			}
		}
	}
}

func TestGenerateFrozenDigests(t *testing.T) {
	raw, err := os.ReadFile("testdata/generate_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][2]int{{8, 8}, {5, 77}, {64, 960}, {128, 2048}} {
		n, p := shape[0], shape[1]
		h := fnv.New64a()
		digestFamily(t, n, p, func(cfg Config) {
			w, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			digestWorkload(h, w)
		})
		name := fmt.Sprintf("%dx%d", n, p)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != golden[name] {
			t.Errorf("%s: digest %s, recorded %s", name, got, golden[name])
		}
	}
}
