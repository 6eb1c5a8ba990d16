package placement

import (
	"testing"

	"ccf/internal/partition"
)

// TestByName pins every row of the placer table: the scheduler each name
// selects and its skew policy, as ccfsim and datagen ran them before the
// table existed (Mini and the CCF variants with partial duplication, Hash
// and LPT without).
func TestByName(t *testing.T) {
	want := []struct {
		name, scheduler string
		skew            bool
	}{
		{"hash", "Hash", false},
		{"mini", "Mini", true},
		{"ccf", "CCF", true},
		{"ccf-nosort", "CCF-nosort", true},
		{"lpt", "LPT", false},
	}
	if got := Names(); got != "hash, mini, ccf, ccf-nosort, lpt" {
		t.Fatalf("Names() = %s", got)
	}
	m := partition.MustChunkMatrix(3, 6)
	for k := 0; k < 6; k++ {
		m.Set(k%3, k, int64(10+k))
	}
	for _, w := range want {
		p, err := ByName(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != w.name || p.Scheduler.Name() != w.scheduler || p.HandleSkew != w.skew {
			t.Errorf("ByName(%q) = {%s %s %v}, want {%s %s %v}",
				w.name, p.Name, p.Scheduler.Name(), p.HandleSkew, w.name, w.scheduler, w.skew)
		}
		pl, err := p.Scheduler.Place(m, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := pl.Validate(3, 6); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	seen := map[string]bool{}
	for _, p := range Placers {
		if seen[p.Name] {
			t.Errorf("name %q appears twice", p.Name)
		}
		seen[p.Name] = true
	}
	for _, name := range []string{"", "random", "Hash", "ccf "} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted an unknown name", name)
		}
	}
	_, err := ByName("random")
	if want := `unknown placer "random" (want hash, mini, ccf, ccf-nosort, lpt)`; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	// The daemon resolves a placer for every job it decides.
	if n := testing.AllocsPerRun(100, func() { _, _ = ByName("mini") }); n != 0 {
		t.Errorf("ByName allocates %v objects per call, want 0", n)
	}
}
