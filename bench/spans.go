package main

// The harness's own span recorder. Spans are taken around the calls into each
// layer from this package (the layers themselves are not edited), kept in
// memory, and written as one Chrome trace-event file when the traced run
// ends. Each span carries its job and its parent span's name, so the file
// shows one causal chain per op.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ccf/internal/telemetry"
)

// tracer collects spans on per-goroutine tracks. A track is owned by the one
// goroutine that records on it, so recording takes no lock; tracks are
// created up front by the driver.
type tracer struct {
	epoch  time.Time
	tracks []*track
}

type track struct {
	name  string
	spans []span
	// sum and calls aggregate span time by name for the layer table.
	sum   map[string]time.Duration
	calls map[string]int
}

// span is one closed span as recorded; it becomes a telemetry.Span only when
// the trace is written, so recording allocates nothing per span.
type span struct {
	name, parent, job string
	start             time.Time
	dur               time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// track adds a named track; call before the goroutines that record start.
func (t *tracer) track(name string) *track {
	tk := &track{name: name, sum: map[string]time.Duration{}, calls: map[string]int{}}
	t.tracks = append(t.tracks, tk)
	return tk
}

// span records one closed span. parent names the enclosing span ("" for a
// root); job identifies the op all of a request's spans share.
func (tk *track) span(name, parent, job string, start time.Time, dur time.Duration) {
	tk.spans = append(tk.spans, span{name, parent, job, start, dur})
	tk.sum[name] += dur
	tk.calls[name]++
}

// total sums a span name over every track; calls counts its occurrences.
func (t *tracer) total(name string) (sum time.Duration, calls int) {
	for _, tk := range t.tracks {
		sum += tk.sum[name]
		calls += tk.calls[name]
	}
	return sum, calls
}

// usPerOp is a span name's total time divided over ops, in microseconds.
func (t *tracer) usPerOp(name string, ops int) float64 {
	if ops == 0 {
		return 0
	}
	sum, _ := t.total(name)
	return float64(sum.Microseconds()) / float64(ops)
}

// reset drops recorded spans and aggregates, keeping the tracks: only the
// last traced round is written out.
func (t *tracer) reset() {
	for _, tk := range t.tracks {
		tk.spans = tk.spans[:0]
		clear(tk.sum)
		clear(tk.calls)
	}
}

// write stores the spans as bench/out/<workload>.trace.json (Chrome
// trace-event JSON, loadable in Perfetto).
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	tracks := make([]telemetry.SpanTrack, 0, len(t.tracks))
	for i, tk := range t.tracks {
		// Nested spans are recorded when they close, children first; the
		// exporter wants ascending starts.
		sort.SliceStable(tk.spans, func(a, b int) bool { return tk.spans[a].start.Before(tk.spans[b].start) })
		out := telemetry.SpanTrack{Pid: 1, Tid: i + 1, Process: "bench " + workload, Thread: tk.name}
		for _, sp := range tk.spans {
			args := map[string]any{"job": sp.job}
			if sp.parent != "" {
				args["parent"] = sp.parent
			}
			out.Spans = append(out.Spans, telemetry.Span{
				Name: sp.name, Start: sp.start.Sub(t.epoch).Seconds(), Dur: sp.dur.Seconds(), Args: args,
			})
		}
		tracks = append(tracks, out)
	}
	if err := telemetry.WriteSpanTrace(f, tracks); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
