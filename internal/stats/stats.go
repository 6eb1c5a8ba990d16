// Package stats provides the small numeric and presentation helpers the
// experiment harness shares: labelled series, speedup computation, and
// fixed-width ASCII / CSV rendering of the paper's figure data.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is one labelled curve: a y-value per x point.
type Series struct {
	Label  string
	Values []float64
}

// Table is the data behind one figure panel: shared x axis, several curves.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// AddSeries appends a curve, validating its length against the x axis.
func (t *Table) AddSeries(label string, values []float64) error {
	if len(values) != len(t.X) {
		return fmt.Errorf("stats: series %q has %d values for %d x points", label, len(values), len(t.X))
	}
	t.Series = append(t.Series, Series{Label: label, Values: values})
	return nil
}

// Get returns the series with the given label.
func (t *Table) Get(label string) (Series, bool) {
	for _, s := range t.Series {
		if s.Label == label {
			return s, true
		}
	}
	return Series{}, false
}

// Speedups returns, pointwise, base/other — "how many times faster other is
// than base" when the values are times.
func Speedups(base, other Series) ([]float64, error) {
	if len(base.Values) != len(other.Values) {
		return nil, fmt.Errorf("stats: speedup of %q vs %q: lengths %d vs %d",
			other.Label, base.Label, len(other.Values), len(base.Values))
	}
	out := make([]float64, len(base.Values))
	for i := range out {
		if other.Values[i] == 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = base.Values[i] / other.Values[i]
	}
	return out, nil
}

// MinMax returns the extrema of a slice (NaNs ignored); (0,0) when empty.
func MinMax(v []float64) (lo, hi float64) {
	first := true
	for _, x := range v {
		if math.IsNaN(x) {
			continue
		}
		if first {
			lo, hi = x, x
			first = false
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Percentile returns the q-th percentile (q in [0,100]) using linear
// interpolation over the sorted copy of v. Degenerate windows stay finite:
// an empty input reports 0, a single sample reports that sample for every
// q, NaN samples are ignored, and a NaN q reports 0 rather than indexing
// with an undefined int(NaN) conversion. The service's /stats percentiles
// feed from live latency rings, so these edges are routine, not exotic.
func Percentile(v []float64, q float64) float64 {
	if len(v) == 0 || math.IsNaN(q) {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// sort.Float64s places NaNs first; slice them off so they cannot
	// poison the interpolation.
	for len(s) > 0 && math.IsNaN(s[0]) {
		s = s[1:]
	}
	if len(s) == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	// The float64 conversions round each product, so no architecture
	// fuses one into the subtraction or addition that follows.
	pos := float64(q / 100 * float64(len(s)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return float64(s[lo]*(1-frac)) + float64(s[lo+1]*frac)
}

// RenderASCII writes the table as a fixed-width text table matching the
// rows the paper's figures plot.
func RenderASCII(w io.Writer, t *Table) error {
	if _, err := fmt.Fprintf(w, "%s  (%s vs %s)\n", t.Title, t.YLabel, t.XLabel); err != nil {
		return err
	}
	header := fmt.Sprintf("%14s", t.XLabel)
	for _, s := range t.Series {
		header += fmt.Sprintf("%16s", s.Label)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for i, x := range t.X {
		row := fmt.Sprintf("%14s", trimFloat(x))
		for _, s := range t.Series {
			row += fmt.Sprintf("%16s", trimFloat(s.Values[i]))
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV (x column first).
func RenderCSV(w io.Writer, t *Table) error {
	cols := []string{t.XLabel}
	for _, s := range t.Series {
		cols = append(cols, s.Label)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i, x := range t.X {
		row := []string{formatCSV(x)}
		for _, s := range t.Series {
			row = append(row, formatCSV(s.Values[i]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.2f", x)
}

func formatCSV(x float64) string {
	return fmt.Sprintf("%g", x)
}
