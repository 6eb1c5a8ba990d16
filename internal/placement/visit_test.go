package placement

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ccf/internal/partition"
)

// comparatorOrder is Algorithm 1's line 1 as a comparison sort: partitions by
// largest chunk, descending, then by index. It is the oracle for visitOrder's
// radix sort.
func comparatorOrder(largest []int64) []int {
	order := make([]int, len(largest))
	for k := range order {
		order[k] = k
	}
	slices.SortFunc(order, func(a, b int) int {
		if la, lb := largest[a], largest[b]; la != lb {
			if la > lb {
				return -1
			}
			return 1
		}
		return a - b
	})
	return order
}

// TestVisitOrderMatchesComparatorSort compares visitOrder's totals and order
// with a column scan and the comparison sort, on matrices whose largest chunks
// are all equal, negative (a journal may replay such jobs), at the ends of
// int64 and around ±2⁵², random over a wide or a narrow range, shared by many
// partitions, and differing only in the high half of one byte, for lengths on
// both sides of radixMin.
func TestVisitOrderMatchesComparatorSort(t *testing.T) {
	extremes := []int64{math.MinInt64, math.MaxInt64, 1 << 52, -1 << 52, 1<<52 + 1, -1<<52 - 1, 0, -1, 1}
	values := []struct {
		name  string
		value func(r *rand.Rand) int64
	}{
		{"equal", func(*rand.Rand) int64 { return 1 << 30 }},
		{"negative", func(r *rand.Rand) int64 { return -1 - r.Int63n(1<<40) }},
		{"extremes", func(r *rand.Rand) int64 { return extremes[r.Intn(len(extremes))] }},
		{"wide", func(r *rand.Rand) int64 { return int64(r.Uint64()) }},
		{"narrow", func(r *rand.Rand) int64 { return 1e6 + r.Int63n(64e6) }},
		{"few", func(r *rand.Rand) int64 { return int64(r.Intn(4)) << 40 }},
		{"nibble", func(r *rand.Rand) int64 { return int64(r.Intn(16))<<12 | 1<<40 }},
		{"signed", func(r *rand.Rand) int64 { return r.Int63n(1<<20) - 1<<19 }},
	}
	src := rand.New(rand.NewSource(1))
	for _, p := range []int{1, 2, 8, radixMin - 1, radixMin, 180, 960, 15_000} {
		for _, c := range values {
			name := c.name
			n := 1 + src.Intn(3)
			m, err := partition.NewChunkMatrix(n, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.H {
				m.H[i] = c.value(src)
			}
			largest, wantTot := make([]int64, p), make([]int64, p)
			for k := 0; k < p; k++ {
				largest[k] = m.At(0, k)
				for i := 0; i < n; i++ {
					largest[k] = max(largest[k], m.At(i, k))
					wantTot[k] += m.At(i, k)
				}
			}
			tot, order := visitOrder(m, true)
			if !slices.Equal(tot, wantTot) {
				t.Errorf("%s, %d×%d: totals differ from a column scan", name, n, p)
			}
			if want := comparatorOrder(largest); !slices.Equal(order, want) {
				t.Errorf("%s, %d×%d: order %s, comparison sort %s", name, n, p, head(order), head(want))
			}
			_, order = visitOrder(m, false)
			for k, got := range order {
				if got != k {
					t.Fatalf("%s, %d×%d: unsorted order[%d] = %d", name, n, p, k, got)
				}
			}
		}
	}
}

// head prints the first few entries of an order.
func head(order []int) string {
	return fmt.Sprint(order[:min(len(order), 12)])
}
