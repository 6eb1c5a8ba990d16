package core

// Tier-1 equivalence: every experiment routed through the worker pool must
// return *deeply equal* results at any worker count. parallel.Run aggregates
// by input index, so the folds in sweep(), RunChaos, and the recovery /
// telemetry experiments perform the same float additions and appends in the
// same order as the serial loop — this test pins that contract end to end
// with reflect.DeepEqual (no epsilons).

import (
	"reflect"
	"testing"
)

var equivWorkers = []int{1, 2, 7}

func TestFigSweepParallelMatchesSerial(t *testing.T) {
	base := func(w int) SweepOptions { return SweepOptions{Scale: 0.001, Workers: w} }
	serial, err := Fig6(nil, 40, base(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range equivWorkers[1:] {
		got, err := Fig6(nil, 40, base(w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("Fig6 at workers=%d diverged from serial", w)
		}
	}
}

func TestChaosParallelMatchesSerial(t *testing.T) {
	run := func(w int) *ChaosResult {
		t.Helper()
		res, err := RunChaos(ChaosConfig{Seeds: 4, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range equivWorkers[1:] {
		if got := run(w); !reflect.DeepEqual(serial, got) {
			t.Errorf("RunChaos at workers=%d diverged from serial:\nserial: %+v\ngot:    %+v", w, serial, got)
		}
	}
}

func TestTelemetryParallelMatchesSerial(t *testing.T) {
	run := func(w int) []TelemetryRow {
		t.Helper()
		rows, err := TelemetryExperiment(TelemetryConfig{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := run(1)
	for _, w := range equivWorkers[1:] {
		if got := run(w); !reflect.DeepEqual(serial, got) {
			t.Errorf("TelemetryExperiment at workers=%d diverged from serial", w)
		}
	}
}
