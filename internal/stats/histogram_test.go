package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewHistogram(1, 1); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	if _, err := NewHistogram(2, 1); err == nil {
		t.Error("descending bounds accepted")
	}
	if _, err := NewHistogram(1, 2, 3); err != nil {
		t.Errorf("valid bounds rejected: %v", err)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h, err := NewHistogram(1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Bucket i holds Bounds[i-1] <= x < Bounds[i]; first is unbounded
	// below, last (overflow) holds x >= the final bound.
	for _, x := range []float64{0.5, 1, 1.5, 2, 3.9, 4, 100} {
		h.Observe(x)
	}
	want := []int{1, 2, 2, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket %d count = %d, want %d (all: %v)", i, c, want[i], h.Counts)
		}
	}
	if h.N != 7 {
		t.Errorf("N = %d, want 7", h.N)
	}
	if h.Min != 0.5 || h.Max != 100 {
		t.Errorf("min/max = %g/%g, want 0.5/100", h.Min, h.Max)
	}
	if got := h.Mean(); got != h.Sum/7 {
		t.Errorf("Mean = %g, want %g", got, h.Sum/7)
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	h, _ := NewHistogram(1)
	h.Observe(math.NaN())
	if h.N != 0 {
		t.Errorf("NaN counted: N = %d", h.N)
	}
	if got := h.Mean(); got != 0 {
		t.Errorf("empty Mean = %g, want 0", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(1, 2)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(1.6)
	var buf bytes.Buffer
	if err := h.Render(&buf, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"< 1", "1-2", ">= 2", "n=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The fullest bucket gets the full-width bar.
	if !strings.Contains(out, strings.Repeat("#", 10)) {
		t.Errorf("render missing full-width bar:\n%s", out)
	}
}
