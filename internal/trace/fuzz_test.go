package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzParse asserts Parse's robustness contract: any input either parses or
// returns an error — never a panic, and never memory proportional to forged
// counts rather than actual input. The seeds include the crashers the
// fuzzer originally found: a negative reducer count (panicked make) and a
// huge forged reducer count (preallocation OOM shape).
func FuzzParse(f *testing.F) {
	// Valid traces.
	f.Add("2 1\n0 0 1 0 1 1:10\n")
	f.Add("3 2\n# comment\n0 0 2 0 1 2 1:5 2:7.5\n1 100 1 2 1 0:1\n")
	f.Add("1 0\n")
	// Crashers and hostile inputs.
	f.Add("0 1 0 0 0 -1")                     // negative reducer count: make(map, -1) panicked
	f.Add("1 1 0 0 0 999999999")              // forged count: preallocation OOM shape
	f.Add("-3 0")                             // negative rack count
	f.Add("2 -1")                             // negative job count
	f.Add("2 1\n0 -5 0 0")                    // negative arrival
	f.Add("2 1\n0 0 -2 0")                    // negative mapper count
	f.Add("2 1\n0 0 1 9 1 1:10\n")            // mapper outside rack range
	f.Add("2 1\n0 0 1 0 1 1:")                // truncated reducer entry
	f.Add("2 1\n0 0 1 0 1 x:10\n")            // non-numeric reducer location
	f.Add("2 1\n0 0 1 0 1 1:-4\n")            // negative megabytes
	f.Add("2 1\n0 0 1 0 1 1:NaN\n")           // NaN megabytes
	f.Add("2 1\n0 0 1 0 2 1:1e308 1:1e308\n") // duplicates summing past MaxFloat64
	f.Add("2 1")                              // truncated job list
	f.Add("2 1\n0 0 1 0 1 1:10 7")            // trailing tokens
	f.Add("")
	f.Add("\xff\xfe garbage ::")

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		// Successful parses must satisfy the structural invariants the
		// rest of the pipeline assumes.
		if tr.NumRacks <= 0 {
			t.Fatalf("parsed trace with non-positive NumRacks %d", tr.NumRacks)
		}
		for _, j := range tr.Jobs {
			if j.ArrivalMillis < 0 {
				t.Fatalf("job %d has negative arrival", j.ID)
			}
			for _, m := range j.Mappers {
				if m < 0 || m >= tr.NumRacks {
					t.Fatalf("job %d mapper %d outside [0,%d)", j.ID, m, tr.NumRacks)
				}
			}
			for loc, mb := range j.ReducerMB {
				if loc < 0 || loc >= tr.NumRacks || !(mb >= 0) || math.IsInf(mb, 0) {
					t.Fatalf("job %d reducer %d:%g invalid", j.ID, loc, mb)
				}
			}
		}
		// Expansion and round-trip must not panic on accepted input.
		_ = tr.Coflows()
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write of parsed trace failed: %v", err)
		}
		if _, err := Parse(&buf); err != nil {
			t.Fatalf("round-trip re-parse failed: %v", err)
		}
	})
}
