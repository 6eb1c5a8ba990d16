package main

// Run-level statistics. A run is one discarded warm-up round plus at least
// minRounds identical rounds on fresh state; every end-to-end metric is
// computed per round and the run reports the second-best round. The box this
// was sized on sees interference as multi-second slow periods plus the odd
// lucky quiet round: the median of rounds moves with the former, the best
// round with the latter, the second-best with neither (README, "Round rule").

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"ccf/internal/stats"
)

// minRounds is the fewest measured rounds the second-best rule accepts.
const minRounds = 8

// secondBest returns the reported round: with eight rounds the second-best
// (second-lowest when lower is better, second-highest otherwise), and in
// general the round at rank ⌈R/4⌉ from the best, so a run that fits more
// rounds into its measuring time keeps the same quantile. Ties count as
// separate rounds. Fewer than minRounds rounds is an error, not a weaker
// statistic.
func secondBest(rounds []float64, lowerIsBetter bool) (float64, error) {
	if len(rounds) < minRounds {
		return 0, fmt.Errorf("second-best needs at least %d rounds, got %d", minRounds, len(rounds))
	}
	s := append([]float64(nil), rounds...)
	sort.Float64s(s)
	k := (len(s) + 3) / 4
	if lowerIsBetter {
		return s[k-1], nil
	}
	return s[len(s)-k], nil
}

// roundSpread is the diagnostic kept beside every reported value: the median
// round divided by the reported round. 1 means the rounds agreed; for a
// lower-is-better metric it is >= 1, for a rate <= 1.
func roundSpread(rounds []float64, reported float64) float64 {
	if reported == 0 {
		return 0
	}
	return stats.Percentile(rounds, 50) / reported
}

// latencyMs summarises one round's per-op latencies (seconds) as the
// percentiles the benchmark reports, in milliseconds. p90 is the highest
// percentile with at least ten samples beyond it at 600 ops per round; p99
// is kept for the per-layer table only.
func latencyMs(lat []float64) (p50, p90, p99 float64) {
	return stats.Percentile(lat, 50) * 1e3, stats.Percentile(lat, 90) * 1e3, stats.Percentile(lat, 99) * 1e3
}

// decileSlope is the history slope of a round: mean latency of the last
// tenth of the ops minus that of the first tenth, per 1000 ops between the
// two decile centres. lat is in seconds and in op order; the result is in
// microseconds per 1000 ops. Fewer than 20 ops has no deciles and reports 0.
func decileSlope(lat []float64) float64 {
	n := len(lat)
	d := n / 10
	if d < 2 {
		return 0
	}
	first := stats.Mean(lat[:d])
	last := stats.Mean(lat[n-d:])
	return (last - first) * 1e6 / (float64(n-d) / 1000)
}

// resultDigest folds a round's outputs into one FNV-1a fingerprint. Every
// workload writes its outputs in a fixed order, so equal digests mean equal
// outputs; the digest is compared across rounds and with the golden.
type resultDigest struct{ h hash.Hash64 }

func newResultDigest() *resultDigest { return &resultDigest{h: fnv.New64a()} }

func (d *resultDigest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d *resultDigest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *resultDigest) i64(v int64) { d.u64(uint64(v)) }

func (d *resultDigest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *resultDigest) sum() uint64 { return d.h.Sum64() }
