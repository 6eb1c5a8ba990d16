package telemetry_test

// Recorder behavior against real simulator runs: lifecycle event edges,
// preemption detection, failure hits, audit snapshots, ring downsampling,
// and the derived summary metrics.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/telemetry"
)

// mustFabric builds a homogeneous fabric or fails the test.
func mustFabric(t *testing.T, n int, bw float64) netsim.Fabric {
	t.Helper()
	f, err := netsim.NewFabric(n, bw)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// record runs the coflows under the scheduler with a fresh default Recorder
// attached and returns the recorder and report.
func record(t *testing.T, sched coflow.Scheduler, cfs []*coflow.Coflow, mod func(*netsim.Simulator)) (*telemetry.Recorder, *netsim.Report) {
	t.Helper()
	sim := netsim.NewSimulator(mustFabric(t, 4, 100), sched)
	rec := telemetry.NewRecorder(telemetry.Config{})
	sim.Probe = rec
	if mod != nil {
		mod(sim)
	}
	rep, err := sim.Run(cfs)
	if err != nil {
		t.Fatal(err)
	}
	return rec, rep
}

// kinds returns the event kinds recorded for one coflow, in time order.
func kinds(rec *telemetry.Recorder, id int) []telemetry.EventKind {
	var out []telemetry.EventKind
	for _, ev := range rec.Events() {
		if ev.Coflow == id {
			out = append(out, ev.Kind)
		}
	}
	return out
}

func TestLifecycleEvents(t *testing.T) {
	// cf0 is a long transfer on port 0->1; cf1 is a short one on the same
	// pair arriving mid-run. Varys (SEBF) serves the shorter coflow first,
	// so cf0 is preempted at cf1's arrival and resumes after it completes.
	cf0 := coflow.New(0, "long", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 10_000}})
	cf1 := coflow.New(1, "short", 5, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 100}})
	rec, rep := record(t, coflow.NewVarys(), []*coflow.Coflow{cf0, cf1}, nil)

	want0 := []telemetry.EventKind{
		telemetry.EvArrival, telemetry.EvFirstByte,
		telemetry.EvPreempt, telemetry.EvResume, telemetry.EvComplete,
	}
	got0 := kinds(rec, 0)
	if len(got0) != len(want0) {
		t.Fatalf("coflow 0 events = %v, want %v", got0, want0)
	}
	for i := range want0 {
		if got0[i] != want0[i] {
			t.Fatalf("coflow 0 events = %v, want %v", got0, want0)
		}
	}
	want1 := []telemetry.EventKind{telemetry.EvArrival, telemetry.EvFirstByte, telemetry.EvComplete}
	got1 := kinds(rec, 1)
	if len(got1) != len(want1) {
		t.Fatalf("coflow 1 events = %v, want %v", got1, want1)
	}

	sum := rec.Summary()
	if sum.Makespan != rep.Makespan {
		t.Errorf("summary makespan %v != report %v", sum.Makespan, rep.Makespan)
	}
	for _, c := range sum.Coflows {
		if c.CCT < 0 {
			t.Fatalf("coflow %d incomplete in summary", c.ID)
		}
		if c.Stretch < 1 {
			t.Errorf("coflow %d stretch %v < 1", c.ID, c.Stretch)
		}
		if c.QueueDelay < 0 {
			t.Errorf("coflow %d queue delay %v < 0", c.ID, c.QueueDelay)
		}
	}
	// cf0: 10000 bytes at 100 B/s alone would take 100 s; being starved for
	// cf1's single second stretches it, and cf1 goes straight through.
	if sum.Coflows[0].Preemptions != 1 {
		t.Errorf("coflow 0 preemptions = %d, want 1", sum.Coflows[0].Preemptions)
	}
	if sum.Coflows[0].Stretch <= 1 {
		t.Errorf("coflow 0 stretch = %v, want > 1 (it was preempted)", sum.Coflows[0].Stretch)
	}
	if sum.Coflows[1].Stretch != 1 {
		t.Errorf("coflow 1 stretch = %v, want exactly 1", sum.Coflows[1].Stretch)
	}
	if sum.JainFairness <= 0 || sum.JainFairness > 1 {
		t.Errorf("Jain fairness = %v, want in (0,1]", sum.JainFairness)
	}
	if sum.PeakUtilization <= 0 || sum.MeanUtilization <= 0 {
		t.Errorf("utilization mean=%v peak=%v, want positive", sum.MeanUtilization, sum.PeakUtilization)
	}
}

func TestFailureEventsAndRestarts(t *testing.T) {
	cf := coflow.New(0, "cf", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 1_000}})
	rec, rep := record(t, coflow.NewVarys(), []*coflow.Coflow{cf}, func(sim *netsim.Simulator) {
		sim.Failures = []netsim.PortFailure{{Port: 0, Down: 2, Up: 4}}
		sim.Retransmit = netsim.RetransmitRestart
	})
	if len(rec.PortEvents()) != 2 {
		t.Fatalf("port events = %v, want down+up", rec.PortEvents())
	}
	if pe := rec.PortEvents()[0]; pe.Up || pe.Port != 0 || pe.T != 2 {
		t.Errorf("first port event = %+v, want down on port 0 at t=2", pe)
	}
	restarts := 0
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.EvRestart {
			restarts++
		}
	}
	if want := rep.Restarts[0]; restarts != want {
		t.Errorf("recorded %d restart events, report says %d", restarts, want)
	}
	if restarts == 0 {
		t.Error("expected at least one restart event from the mid-flow outage")
	}
	sum := rec.Summary()
	if sum.Coflows[0].Restarts != restarts {
		t.Errorf("summary restarts = %d, want %d", sum.Coflows[0].Restarts, restarts)
	}
}

func TestAuditSnapshots(t *testing.T) {
	// Two coflows whose Varys priority order flips when the short one
	// arrives: the audit log must capture both orders.
	cf0 := coflow.New(0, "long", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 10_000}})
	cf1 := coflow.New(1, "short", 5, []coflow.Flow{{ID: 0, Src: 2, Dst: 3, Size: 100}})
	rec, _ := record(t, coflow.NewVarys(), []*coflow.Coflow{cf0, cf1}, nil)
	audits := rec.Audits()
	if len(audits) < 2 {
		t.Fatalf("audit snapshots = %v, want at least 2 (order changes on cf1 arrival)", audits)
	}
	if len(audits[0].Order) != 1 || audits[0].Order[0] != 0 {
		t.Errorf("first audit order = %v, want [0]", audits[0].Order)
	}
	sawFlip := false
	for _, a := range audits {
		if len(a.Order) == 2 && a.Order[0] == 1 {
			sawFlip = true
		}
	}
	if !sawFlip {
		t.Errorf("no audit snapshot shows the short coflow at the head: %v", audits)
	}
}

func TestRingDownsamplingBoundedAndExact(t *testing.T) {
	// Many staggered coflows produce far more epochs than MaxSamples; the
	// ring must stay bounded while conserving the rate integral exactly
	// (pair-merging sums integrals, so total bytes recorded == bytes moved).
	var cfs []*coflow.Coflow
	var total float64
	for i := 0; i < telemetry.MaxSamples; i++ {
		size := 100 + float64(i%40)*10
		cfs = append(cfs, coflow.New(i, "cf", float64(i)*0.7,
			[]coflow.Flow{{ID: 0, Src: i % 4, Dst: (i + 1) % 4, Size: size}}))
		total += size
	}
	sim := netsim.NewSimulator(mustFabric(t, 4, 100), coflow.NewVarys())
	rec := telemetry.NewRecorder(telemetry.Config{})
	sim.Probe = rec
	rep, err := sim.Run(cfs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs <= telemetry.MaxSamples {
		t.Fatalf("%d epochs do not overflow the %d-sample ring", rep.Epochs, telemetry.MaxSamples)
	}
	samples := rec.Samples()
	if len(samples) > telemetry.MaxSamples {
		t.Fatalf("ring grew to %d samples, cap is %d", len(samples), telemetry.MaxSamples)
	}
	var moved, span float64
	last := math.Inf(-1)
	for i := range samples {
		s := &samples[i]
		if s.Start < last {
			t.Errorf("sample %d starts at %v, before previous window", i, s.Start)
		}
		last = s.Start
		span += s.Dur
		// Utilization times capacity (constant 100 B/s, no events) times
		// window duration recovers the bytes moved in the window; summed it
		// must equal the workload exactly — pair-merging conserves integrals.
		for p := 0; p < 4; p++ {
			moved += s.EgressUtil(p) * 100 * s.Dur
		}
	}
	if math.Abs(span-rep.Makespan) > 1e-6*rep.Makespan {
		t.Errorf("sample windows span %v, makespan %v", span, rep.Makespan)
	}
	if math.Abs(moved-total) > 1e-6*total {
		t.Errorf("rate integral %v bytes, workload %v bytes", moved, total)
	}
	sum := rec.Summary()
	if got := sum.MeanUtilization; got <= 0 || got > 1 {
		t.Errorf("mean utilization %v out of (0,1]", got)
	}
	if sum.TruncatedEvents != 0 {
		t.Errorf("unexpected event truncation: %d", sum.TruncatedEvents)
	}
}

func TestGridResolution(t *testing.T) {
	// Resolution 0.5 on a ~3.1 s run: windows align to the 0.5 s grid.
	cf := coflow.New(0, "cf", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 310}})
	sim := netsim.NewSimulator(mustFabric(t, 4, 100), coflow.NewVarys())
	rec := telemetry.NewRecorder(telemetry.Config{Resolution: 0.5})
	sim.Probe = rec
	if _, err := sim.Run([]*coflow.Coflow{cf}); err != nil {
		t.Fatal(err)
	}
	samples := rec.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	for i := range samples {
		s := &samples[i]
		if r := math.Mod(s.Start, 0.5); r > 1e-9 && r < 0.5-1e-9 {
			t.Errorf("sample %d start %v not grid-aligned", i, s.Start)
		}
		if u := s.EgressUtil(0); u < 0 || u > 1+1e-9 {
			t.Errorf("sample %d egress util %v out of [0,1]", i, u)
		}
	}
}

func TestEventTruncationCounted(t *testing.T) {
	var cfs []*coflow.Coflow
	// Each coflow logs at least an arrival, a first byte and a completion.
	// A port is busy 3 s of every 4, so the active set stays small.
	for i := 0; i < telemetry.MaxEvents/3+1; i++ {
		cfs = append(cfs, coflow.New(i, "cf", float64(i),
			[]coflow.Flow{{ID: 0, Src: i % 4, Dst: (i + 1) % 4, Size: 300}}))
	}
	sim := netsim.NewSimulator(mustFabric(t, 4, 100), coflow.NewVarys())
	rec := telemetry.NewRecorder(telemetry.Config{})
	sim.Probe = rec
	if _, err := sim.Run(cfs); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) > telemetry.MaxEvents {
		t.Fatalf("event log grew to %d, cap is %d", len(rec.Events()), telemetry.MaxEvents)
	}
	if rec.Summary().TruncatedEvents == 0 {
		t.Error("expected truncated events to be counted")
	}
}

// traceDoc mirrors the Chrome trace-event JSON shape for validation.
type traceDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
}

func TestChromeTraceValidAndMonotone(t *testing.T) {
	cf0 := coflow.New(0, "a", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 5_000}})
	cf1 := coflow.New(1, "b", 3, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 200}})
	rec, _ := record(t, coflow.NewVarys(), []*coflow.Coflow{cf0, cf1}, func(sim *netsim.Simulator) {
		sim.Failures = []netsim.PortFailure{{Port: 2, Down: 1, Up: 2}}
	})

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	// Timestamps monotone (non-decreasing) within every (pid, tid) track.
	last := map[[2]int]float64{}
	counterTracks := map[string]bool{}
	coflowSlices := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		key := [2]int{ev.Pid, ev.Tid}
		if prev, ok := last[key]; ok && ev.Ts < prev {
			t.Fatalf("track pid=%d tid=%d: ts %v after %v", ev.Pid, ev.Tid, ev.Ts, prev)
		}
		last[key] = ev.Ts
		if ev.Ph == "C" {
			counterTracks[ev.Name] = true
		}
		if ev.Ph == "X" && ev.Pid == 2 {
			coflowSlices[ev.Tid] = true
			if ev.Dur <= 0 {
				t.Errorf("coflow %d slice has non-positive duration %v", ev.Tid, ev.Dur)
			}
		}
	}
	for p := 0; p < 4; p++ {
		if !counterTracks[fmt.Sprintf("port%d", p)] {
			t.Errorf("missing counter track for port %d (have %v)", p, counterTracks)
		}
	}
	for id := 0; id < 2; id++ {
		if !coflowSlices[id] {
			t.Errorf("missing lifetime slice for coflow %d", id)
		}
	}
}

func TestJSONLWellFormed(t *testing.T) {
	cf := coflow.New(0, "cf", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 1_000}})
	rec, _ := record(t, coflow.NewVarys(), []*coflow.Coflow{cf}, nil)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var types []string
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		typ, _ := line["type"].(string)
		if typ == "" {
			t.Fatalf("line missing type: %q", sc.Text())
		}
		types = append(types, typ)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 || types[0] != "meta" {
		t.Fatalf("first line type = %v, want meta", types)
	}
	if types[len(types)-1] != "summary" {
		t.Fatalf("last line type = %s, want summary", types[len(types)-1])
	}
}

func TestRenderSummary(t *testing.T) {
	cf := coflow.New(0, "cf", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 1_000}})
	rec, _ := record(t, coflow.NewVarys(), []*coflow.Coflow{cf}, nil)
	var buf bytes.Buffer
	if err := telemetry.RenderSummary(&buf, rec.Summary()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"telemetry:", "stretch", "n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
}
