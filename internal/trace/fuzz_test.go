package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse asserts Parse's robustness contract: any input either parses or
// returns an error — never a panic, and never memory proportional to forged
// counts rather than actual input. An accepted trace lists each job's
// reducers once each, in ascending order, with no -0 size, expands into
// flows of finite size, and Write then Parse gives it back unchanged. The seeds include the crashers the
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
	f.Add("4 1\n0 0 1 0 3 3:1 1:2 3:4\n")     // out-of-order duplicates
	f.Add("4 1\n0 0 1 0 1 1:1e303\n")         // finite megabytes, +Inf bytes
	f.Add("2 1\n0 0 1 0 1 1:-0\n")            // negative zero
	f.Add("3\u00a01\n0 0\u0085 1 0 1 1:1\n")  // Unicode spaces
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
			for k, r := range j.Reducers {
				if r.Loc < 0 || r.Loc >= tr.NumRacks || !(r.MB >= 0) || math.IsInf(r.MB, 0) || math.Signbit(r.MB) {
					t.Fatalf("job %d reducer %d:%g invalid", j.ID, r.Loc, r.MB)
				}
				if k > 0 && r.Loc <= j.Reducers[k-1].Loc {
					t.Fatalf("job %d reducers %v not strictly ascending", j.ID, j.Reducers)
				}
			}
		}
		// Expansion must not panic on accepted input, and gives only
		// finite flow sizes.
		for _, c := range tr.Coflows() {
			for _, fl := range c.Flows {
				if math.IsNaN(fl.Size) || math.IsInf(fl.Size, 0) {
					t.Fatalf("coflow %d flow %d has non-finite size %g", c.ID, fl.ID, fl.Size)
				}
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write of parsed trace failed: %v", err)
		}
		again, err := Parse(&buf)
		if err != nil {
			t.Fatalf("round-trip re-parse failed: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip changed the trace:\n%+v\nbecame\n%+v", tr, again)
		}
	})
}
