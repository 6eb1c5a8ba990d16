package service

import (
	"testing"

	"ccf/internal/workload"
)

// TestDaemonSchedulerNames pins the placer and network-scheduler names the
// daemon admits, what "" resolves to, and the exact error text an HTTP
// client reads for any other name.
func TestDaemonSchedulerNames(t *testing.T) {
	for _, tc := range []struct{ placer, err string }{
		{"", ""}, {"ccf", ""}, {"hash", ""}, {"mini", ""},
		{"lpt", `service: invalid job: unknown placer "lpt" (want ccf, hash or mini)`},
		{"ccf-nosort", `service: invalid job: unknown placer "ccf-nosort" (want ccf, hash or mini)`},
		{"random", `service: invalid job: unknown placer "random" (want ccf, hash or mini)`},
		{"CCF", `service: invalid job: unknown placer "CCF" (want ccf, hash or mini)`},
	} {
		spec := JobSpec{Name: "x", Placer: tc.placer, Gen: &workload.Config{}}
		err := spec.validate(4)
		if got := errText(err); got != tc.err {
			t.Errorf("placer %q: error %q, want %q", tc.placer, got, tc.err)
		}
	}
	for _, tc := range []struct{ name, sched, err string }{
		{"", "varys-sebf", ""}, {"varys", "varys-sebf", ""}, {"aalo", "aalo-dclas", ""},
		{"fifo", "fifo", ""}, {"scf", "scf", ""}, {"ncf", "ncf", ""},
		{"per-flow-fair", "", `service: unknown network scheduler "per-flow-fair" (want varys, aalo, fifo, scf or ncf)`},
		{"sequential-by-dest", "", `service: unknown network scheduler "sequential-by-dest" (want varys, aalo, fifo, scf or ncf)`},
		{"fair", "", `service: unknown network scheduler "fair" (want varys, aalo, fifo, scf or ncf)`},
	} {
		opts, err := EngineConfig{NetworkScheduler: tc.name}.options()
		if got := errText(err); got != tc.err {
			t.Errorf("network scheduler %q: error %q, want %q", tc.name, got, tc.err)
		}
		if err == nil && opts.NetworkScheduler.Name() != tc.sched {
			t.Errorf("network scheduler %q resolved to %s, want %s", tc.name, opts.NetworkScheduler.Name(), tc.sched)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
