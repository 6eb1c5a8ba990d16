package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Histogram is a fixed-bucket histogram: len(Bounds) finite buckets with
// ascending upper bounds, plus one implicit overflow bucket. Bucket i holds
// observations x with Bounds[i-1] <= x < Bounds[i] (the first bucket is
// unbounded below); the overflow bucket holds x >= Bounds[len(Bounds)-1].
// The telemetry summary uses it for the per-coflow stretch distribution.
type Histogram struct {
	Bounds []float64
	Counts []int // len(Bounds)+1; last entry is the overflow bucket
	N      int
	Sum    float64
	Min    float64
	Max    float64
}

// NewHistogram builds a histogram over strictly ascending bucket bounds.
func NewHistogram(bounds ...float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("stats: histogram bounds not ascending at %d (%g <= %g)",
				i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]int, len(bounds)+1),
	}, nil
}

// Observe adds one observation. NaNs are ignored.
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	if h.N == 0 || x < h.Min {
		h.Min = x
	}
	if h.N == 0 || x > h.Max {
		h.Max = x
	}
	h.N++
	h.Sum += x
	for i, b := range h.Bounds {
		if x < b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Bounds)]++
}

// Mean returns Sum/N (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Render writes the histogram as fixed-width text rows, one per non-empty
// prefix of buckets, with a proportional bar of at most barWidth cells
// (barWidth <= 0 uses 40).
func (h *Histogram) Render(w io.Writer, barWidth int) error {
	if barWidth <= 0 {
		barWidth = 40
	}
	peak := 0
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	for i, c := range h.Counts {
		var label string
		switch {
		case i == 0:
			label = fmt.Sprintf("      < %-8s", trimFloat(h.Bounds[0]))
		case i == len(h.Bounds):
			label = fmt.Sprintf("     >= %-8s", trimFloat(h.Bounds[len(h.Bounds)-1]))
		default:
			label = fmt.Sprintf("%7s-%-8s", trimFloat(h.Bounds[i-1]), trimFloat(h.Bounds[i]))
		}
		bar := ""
		if peak > 0 {
			bar = strings.Repeat("#", c*barWidth/peak)
		}
		if _, err := fmt.Fprintf(w, "  %s %6d %s\n", label, c, bar); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  n=%d mean=%.3f min=%.3f max=%.3f\n", h.N, h.Mean(), h.Min, h.Max)
	return err
}
