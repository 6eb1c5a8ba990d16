package coflow

import "testing"

// TestByName pins the coflow-scheduler table: its names in the chaos
// sweep's order, the scheduler each selects, and a fresh instance per call.
func TestByName(t *testing.T) {
	want := map[string]string{
		"varys": "varys-sebf", "fifo": "fifo", "scf": "scf", "ncf": "ncf",
		"aalo": "aalo-dclas", "per-flow-fair": "per-flow-fair",
		"sequential-by-dest": "sequential-by-dest",
	}
	if got := Names(); got != "varys, fifo, scf, ncf, aalo, per-flow-fair, sequential-by-dest" {
		t.Fatalf("Names() = %s", got)
	}
	seen := map[string]bool{}
	for _, sc := range Schedulers {
		name := sc.Name
		if seen[name] {
			t.Errorf("name %q appears twice", name)
		}
		seen[name] = true
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != want[name] {
			t.Errorf("ByName(%q).Name() = %q, want %q", name, s.Name(), want[name])
		}
	}
	// The five ordered schedulers keep per-simulation state.
	for _, name := range []string{"aalo", "varys", "fifo", "scf", "ncf"} {
		a, _ := ByName(name)
		b, _ := ByName(name)
		if a == b {
			t.Errorf("two ByName(%q) calls returned the same instance", name)
		}
	}
	// The ccfsim spellings before the table had one are not aliases.
	for _, name := range []string{"", "fair", "sequential", "Varys", "varys-sebf"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted an unknown name", name)
		}
	}
	_, err := ByName("fair")
	if want := `unknown coflow scheduler "fair" (want varys, fifo, scf, ncf, aalo, per-flow-fair, sequential-by-dest)`; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}
