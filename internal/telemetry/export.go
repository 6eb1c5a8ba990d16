package telemetry

// Exporters: Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) and JSONL metric lines.
//
// Trace layout: pid 1 "ports" carries one counter track per port with
// egress/ingress utilization series; pid 2 "coflows" carries one thread
// track per coflow with its lifetime as a complete ("X") slice and its
// lifecycle events as instants; pid 3 "fabric" carries failure down/up
// instants, one thread per failed port. Events are emitted grouped per
// track in ascending-timestamp order, so timestamps are monotone within
// every (pid, tid) track — a property CI validates on every trace.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Trace-event process IDs.
const (
	pidPorts   = 1
	pidCoflows = 2
	pidFabric  = 3
)

// traceEvent is one Chrome trace-event object. Field order follows the
// trace-event spec's conventional ordering.
type traceEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const usec = 1e6 // trace-event timestamps are microseconds

// traceEncoder streams one Chrome trace-event JSON document: header, comma-
// separated events, footer. It is the emission machinery shared by the
// Recorder's trace export and the service layer's per-job span export.
type traceEncoder struct {
	bw    *bufio.Writer
	first bool
}

func newTraceEncoder(w io.Writer) (*traceEncoder, error) {
	e := &traceEncoder{bw: bufio.NewWriter(w), first: true}
	if _, err := e.bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *traceEncoder) emit(ev traceEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if !e.first {
		if err := e.bw.WriteByte(','); err != nil {
			return err
		}
	}
	e.first = false
	if err := e.bw.WriteByte('\n'); err != nil {
		return err
	}
	_, err = e.bw.Write(b)
	return err
}

// meta emits a process_name/thread_name metadata event.
func (e *traceEncoder) meta(pid, tid int, kind, name string) error {
	return e.emit(traceEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}})
}

// close writes the document footer and flushes.
func (e *traceEncoder) close() error {
	if _, err := e.bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return e.bw.Flush()
}

// WriteChromeTrace writes the recording as a Chrome trace-event JSON file.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	enc, err := newTraceEncoder(w)
	if err != nil {
		return err
	}
	emit := enc.emit
	meta := enc.meta

	// Process metadata.
	if err := meta(pidPorts, 0, "process_name", "ports"); err != nil {
		return err
	}
	if err := meta(pidCoflows, 0, "process_name", "coflows"); err != nil {
		return err
	}
	if len(r.portEvents) > 0 {
		if err := meta(pidFabric, 0, "process_name", "fabric"); err != nil {
			return err
		}
	}

	// One counter track per port, chronological within the track.
	for p := 0; p < r.ports; p++ {
		for i := range r.samples {
			s := &r.samples[i]
			if err := emit(traceEvent{
				Name: fmt.Sprintf("port%d", p), Ph: "C", Ts: s.Start * usec,
				Pid: pidPorts, Tid: p,
				Args: map[string]any{"egress": s.EgressUtil(p), "ingress": s.IngressUtil(p)},
			}); err != nil {
				return err
			}
		}
		if len(r.samples) > 0 {
			// Close the counter at the end of the run so the last window
			// does not render as extending forever.
			if err := emit(traceEvent{
				Name: fmt.Sprintf("port%d", p), Ph: "C", Ts: r.end * usec,
				Pid: pidPorts, Tid: p,
				Args: map[string]any{"egress": 0.0, "ingress": 0.0},
			}); err != nil {
				return err
			}
		}
	}

	// One thread track per coflow: a complete slice for its lifetime plus
	// instants for the lifecycle events. ordered is input order; track
	// naming keeps Perfetto's UI sorted by coflow ID.
	for _, tr := range r.ordered {
		if err := meta(pidCoflows, tr.id, "thread_name", fmt.Sprintf("coflow %d (%s)", tr.id, tr.name)); err != nil {
			return err
		}
		if !tr.admitted {
			continue
		}
		endT := tr.completion
		args := map[string]any{"bytes": tr.bytes, "lower_bound_s": tr.lower}
		if endT < 0 {
			endT = r.end
			args["incomplete"] = true
		}
		if err := emit(traceEvent{
			Name: fmt.Sprintf("cf%d", tr.id), Ph: "X",
			Ts: tr.arrival * usec, Dur: (endT - tr.arrival) * usec,
			Pid: pidCoflows, Tid: tr.id, Args: args,
		}); err != nil {
			return err
		}
		for _, ev := range r.events {
			if ev.Coflow != tr.id || ev.Kind == EvArrival {
				continue
			}
			if err := emit(traceEvent{
				Name: ev.Kind.String(), Ph: "i", Ts: ev.T * usec,
				Pid: pidCoflows, Tid: tr.id, S: "t",
			}); err != nil {
				return err
			}
		}
	}

	// Failure edges, one fabric thread per port, chronological per port.
	seen := map[int]bool{}
	for _, pe := range r.portEvents {
		if !seen[pe.Port] {
			seen[pe.Port] = true
			if err := meta(pidFabric, pe.Port, "thread_name", fmt.Sprintf("port %d", pe.Port)); err != nil {
				return err
			}
		}
	}
	for _, pe := range r.portEvents {
		name := "down"
		if pe.Up {
			name = "up"
		}
		if err := emit(traceEvent{
			Name: name, Ph: "i", Ts: pe.T * usec,
			Pid: pidFabric, Tid: pe.Port, S: "t",
		}); err != nil {
			return err
		}
	}

	return enc.close()
}

// Span is one closed duration on a span track. Times are in seconds on
// whatever clock the caller uses; the exporter only requires that spans on
// one track are given in ascending Start order.
type Span struct {
	Name  string
	Start float64 // seconds
	Dur   float64 // seconds
	Args  map[string]any
}

// SpanTrack is one (pid, tid) thread of spans — the unit the service layer
// uses to export per-job lifecycle traces. Spans must be in ascending Start
// order, so emitted timestamps stay monotone within the track (the property
// CI validates).
type SpanTrack struct {
	Pid, Tid int
	Process  string // process_name metadata, first track per pid wins
	Thread   string // thread_name metadata
	Spans    []Span
}

// WriteSpanTrace writes the tracks as a Chrome trace-event JSON document
// loadable in Perfetto or chrome://tracing.
func WriteSpanTrace(w io.Writer, tracks []SpanTrack) error {
	enc, err := newTraceEncoder(w)
	if err != nil {
		return err
	}
	seenPid := map[int]bool{}
	for _, tr := range tracks {
		if !seenPid[tr.Pid] && tr.Process != "" {
			seenPid[tr.Pid] = true
			if err := enc.meta(tr.Pid, 0, "process_name", tr.Process); err != nil {
				return err
			}
		}
	}
	for _, tr := range tracks {
		if tr.Thread != "" {
			if err := enc.meta(tr.Pid, tr.Tid, "thread_name", tr.Thread); err != nil {
				return err
			}
		}
		for _, sp := range tr.Spans {
			if err := enc.emit(traceEvent{
				Name: sp.Name, Ph: "X", Ts: sp.Start * usec, Dur: sp.Dur * usec,
				Pid: tr.Pid, Tid: tr.Tid, Args: sp.Args,
			}); err != nil {
				return err
			}
		}
	}
	return enc.close()
}

// jsonl line payloads; field order is fixed by the struct definitions so
// output diffs cleanly.
type jlMeta struct {
	Type     string  `json:"type"`
	Ports    int     `json:"ports"`
	Makespan float64 `json:"makespan_s"`
	Epochs   int     `json:"epochs"`
	Samples  int     `json:"samples"`
	Events   int     `json:"events"`
}

type jlSample struct {
	Type    string  `json:"type"`
	T       float64 `json:"t"`
	Dur     float64 `json:"dur"`
	Port    int     `json:"port"`
	Egress  float64 `json:"egress"`
	Ingress float64 `json:"ingress"`
}

type jlEvent struct {
	Type   string  `json:"type"`
	T      float64 `json:"t"`
	Coflow int     `json:"coflow"`
	Kind   string  `json:"kind"`
}

type jlPortEvent struct {
	Type string  `json:"type"`
	T    float64 `json:"t"`
	Port int     `json:"port"`
	Up   bool    `json:"up"`
}

type jlAudit struct {
	Type  string  `json:"type"`
	T     float64 `json:"t"`
	Order []int   `json:"order"`
}

type jlCoflow struct {
	Type       string  `json:"type"`
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	Bytes      float64 `json:"bytes"`
	Arrival    float64 `json:"arrival"`
	FirstByte  float64 `json:"first_byte"`
	Completion float64 `json:"completion"`
	CCT        float64 `json:"cct"`
	LowerBound float64 `json:"lower_bound"`
	Stretch    float64 `json:"stretch"`
	QueueDelay float64 `json:"queue_delay"`
	Preempts   int     `json:"preemptions"`
	Restarts   int     `json:"restarts"`
}

type jlSummary struct {
	Type            string  `json:"type"`
	MeanUtilization float64 `json:"mean_utilization"`
	PeakUtilization float64 `json:"peak_utilization"`
	JainFairness    float64 `json:"jain_fairness"`
	MeanStretch     float64 `json:"mean_stretch"`
	MaxStretch      float64 `json:"max_stretch"`
	TruncatedEvents int     `json:"truncated_events"`
	TruncatedAudits int     `json:"truncated_audits"`
}

// WriteJSONL writes the recording as JSONL metric lines: one meta line,
// then samples (time-major, port-minor), lifecycle events, failure edges,
// audit snapshots, per-coflow metrics sorted by ID, and a final summary
// line. Every ordering is deterministic so runs diff cleanly.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	sum := r.Summary()

	if err := enc.Encode(jlMeta{
		Type: "meta", Ports: r.ports, Makespan: r.end,
		Epochs: r.epochs, Samples: len(r.samples), Events: len(r.events),
	}); err != nil {
		return err
	}
	for i := range r.samples {
		s := &r.samples[i]
		for p := 0; p < r.ports; p++ {
			if err := enc.Encode(jlSample{
				Type: "sample", T: s.Start, Dur: s.Dur, Port: p,
				Egress: s.EgressUtil(p), Ingress: s.IngressUtil(p),
			}); err != nil {
				return err
			}
		}
	}
	for _, ev := range r.events {
		if err := enc.Encode(jlEvent{Type: "event", T: ev.T, Coflow: ev.Coflow, Kind: ev.Kind.String()}); err != nil {
			return err
		}
	}
	for _, pe := range r.portEvents {
		if err := enc.Encode(jlPortEvent{Type: "port_event", T: pe.T, Port: pe.Port, Up: pe.Up}); err != nil {
			return err
		}
	}
	for _, a := range r.audits {
		if err := enc.Encode(jlAudit{Type: "audit", T: a.T, Order: a.Order}); err != nil {
			return err
		}
	}
	for _, c := range sum.Coflows {
		if err := enc.Encode(jlCoflow{
			Type: "coflow", ID: c.ID, Name: c.Name, Bytes: c.Bytes,
			Arrival: c.Arrival, FirstByte: c.FirstByte, Completion: c.Completion,
			CCT: c.CCT, LowerBound: c.LowerBound, Stretch: c.Stretch,
			QueueDelay: c.QueueDelay, Preempts: c.Preemptions, Restarts: c.Restarts,
		}); err != nil {
			return err
		}
	}
	if err := enc.Encode(jlSummary{
		Type:            "summary",
		MeanUtilization: sum.MeanUtilization, PeakUtilization: sum.PeakUtilization,
		JainFairness: sum.JainFairness, MeanStretch: sum.MeanStretch, MaxStretch: sum.MaxStretch,
		TruncatedEvents: sum.TruncatedEvents, TruncatedAudits: sum.TruncatedAudits,
	}); err != nil {
		return err
	}
	return bw.Flush()
}
