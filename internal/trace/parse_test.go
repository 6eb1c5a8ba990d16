package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The expectations in this file were recorded from the parser that kept each
// job's reducers in a map and split the whole input into one token list
// before reading it. They pin what streaming Parse must keep: strings.Fields's
// token boundaries, comment and blank-line skipping, jobs that span or share
// lines, duplicate entries summed in input order from +0, and every error.

func TestParseSemantics(t *testing.T) {
	cases := []struct {
		name, in string
		jobs     []Job  // nil: not compared
		write    string // Write's text for the parsed trace
	}{
		{
			name:  "NBSP and NEL separate tokens",
			in:    "2\u00a01\n0\u00850 1 0 1 1:10\n",
			jobs:  []Job{{ID: 0, Mappers: []int{0}, Reducers: []Reducer{{1, 10}}}},
			write: "2 1\n0 0 1 0 1 1:10\n",
		},
		{
			name:  "NBSP-indented comment, Unicode spaces inside and at line ends",
			in:    "\u00a0# c\n3\u00852\u00a0\n0 0\u00a01 2 1\u0085 0:1\n1 5 1 0 1 2:3\n",
			write: "3 2\n0 0 1 2 1 0:1\n1 5 1 0 1 2:3\n",
		},
		{
			name: "job split over lines, two jobs on one line, comments between",
			in:   "3 2\n0 0 1\n# comment\n\n  # another\n0 2 1:5 2:7.5 1 100\n# mid\n1 2 1 0:1\n",
			jobs: []Job{
				{ID: 0, Mappers: []int{0}, Reducers: []Reducer{{1, 5}, {2, 7.5}}},
				{ID: 1, ArrivalMillis: 100, Mappers: []int{2}, Reducers: []Reducer{{0, 1}}},
			},
			write: "3 2\n0 0 1 0 2 1:5 2:7.5\n1 100 1 2 1 0:1\n",
		},
		{
			name:  "out-of-order duplicates",
			in:    "4 1\n0 0 1 0 3 3:1 1:2 3:4\n",
			jobs:  []Job{{ID: 0, Mappers: []int{0}, Reducers: []Reducer{{1, 2}, {3, 5}}}},
			write: "4 1\n0 0 1 0 2 1:2 3:5\n",
		},
		{name: "negative zero", in: "2 1\n0 0 1 0 1 1:-0\n", write: "2 1\n0 0 1 0 1 1:0\n"},
		{name: "negative zero twice", in: "2 1\n0 0 1 0 2 1:-0 1:-0\n", write: "2 1\n0 0 1 0 1 1:0\n"},
		{name: "negative zero out of order", in: "2 1\n0 0 1 0 2 1:0 0:-0\n", write: "2 1\n0 0 1 0 2 0:0 1:0\n"},
		{name: "CRLF", in: "4 1\r\n0 0 1 0 1 1:5\r\n", write: "4 1\n0 0 1 0 1 1:5\n"},
		{name: "ASCII control spaces", in: "4 1\n0\v0\f1\t0 1 1:5", write: "4 1\n0 0 1 0 1 1:5\n"},
	}
	for _, c := range cases {
		tr, err := Parse(strings.NewReader(c.in))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if c.jobs != nil && !reflect.DeepEqual(tr.Jobs, c.jobs) {
			t.Errorf("%s: jobs %+v, want %+v", c.name, tr.Jobs, c.jobs)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if buf.String() != c.write {
			t.Errorf("%s: writes %q, want %q", c.name, buf.String(), c.write)
		}
	}
}

func TestParseErrorMessages(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "trace: missing numRacks: unexpected EOF"},
		{"4", "trace: missing numJobs: unexpected EOF"},
		{"four 1\n", `trace: bad numRacks "four": strconv.Atoi: parsing "four": invalid syntax`},
		{"-3 0", "trace: numRacks must be positive, got -3"},
		{"0 1 0 0 0 -1", "trace: numRacks must be positive, got 0"},
		{"2 -1", "trace: negative numJobs -1"},
		{"4 1 \xff\n", `trace: bad jobID "\xff": strconv.Atoi: parsing "\xff": invalid syntax`},
		{"2 1\n0 -5 0 0", "trace: job 0 has negative arrival -5"},
		{"2 1\n0 0 -2 0", "trace: job 0 has negative mapper count -2"},
		{"4 1\n1 0 2 0", "trace: missing mapper location: unexpected EOF"},
		{"4 1\n1 0 1 9 1 0:5", "trace: job 1 mapper at rack 9 outside [0,4)"},
		{"1 1 0 0 0 999999999", "trace: job 0 missing reducer 0: unexpected EOF"},
		{"4 1\n0 0 1 0 99999999 1:5\n", "trace: job 0 missing reducer 1: unexpected EOF"},
		{"4 1\n1 0 1 0 1 nope", `trace: job 1 reducer entry "nope" not loc:MB`},
		{"4 1\n1 0 1 0 1 x:5", `trace: job 1 reducer location "x": strconv.Atoi: parsing "x": invalid syntax`},
		{"4 1\n0 0 1 0 1 :5\n", `trace: job 0 reducer location "": strconv.Atoi: parsing "": invalid syntax`},
		{"4 1\n1 0 1 0 1 9:5", "trace: job 1 reducer at rack 9 outside [0,4)"},
		{"2 1\n0 0 1 0 1 1:", `trace: job 0 reducer MB "": strconv.ParseFloat: parsing "": invalid syntax`},
		{"4 1\n0 0 1 0 1 1:5:6\n", `trace: job 0 reducer MB "5:6": strconv.ParseFloat: parsing "5:6": invalid syntax`},
		{"4 1\n0 0 1 0 1 1:1e400\n", `trace: job 0 reducer MB "1e400": strconv.ParseFloat: parsing "1e400": value out of range`},
		{"4 1\n1 0 1 0 1 1:-3", "trace: job 1 reducer 1 has negative size -3"},
		{"4 1\n1 0 1 1 1 0:NaN", "trace: job 1 reducer 0 has non-finite size NaN"},
		{"4 1\n1 0 1 1 1 0:+Inf", "trace: job 1 reducer 0 has non-finite size +Inf"},
		{"4 1\n0 0 1 0 3 2:1 1:NaN\n", "trace: job 0 reducer 1 has non-finite size NaN"},
		{"4 1\n0 0 1 0 3 2:1 2:+Inf\n", "trace: job 0 reducer 2 has non-finite size +Inf"},
		{"4 1\n1 0 1 0 2 1:1e308 1:1e308", "trace: job 1 reducer 1 has non-finite size +Inf"},
		// An overflowing sum outranks a later bad entry and a missing one,
		// and of two overflowing sums the first in input order is reported.
		{"4 1\n0 0 1 0 3 3:1e308 3:1e308 1:x\n", "trace: job 0 reducer 3 has non-finite size +Inf"},
		{"4 1\n0 0 1 0 3 3:1e308 3:1e308\n", "trace: job 0 reducer 3 has non-finite size +Inf"},
		{"4 1\n0 0 1 0 4 3:1e308 2:1e308 2:1e308 3:1e308\n", "trace: job 0 reducer 2 has non-finite size +Inf"},
		{"4 1\n0 0 1 0 4 2:1e308 3:1e308 3:1e308 2:1e308\n", "trace: job 0 reducer 3 has non-finite size +Inf"},
		// Bytes (MB × 10⁶) must be finite too, checked on the summed entries
		// once the job's reducers are all read.
		{"4 1\n0 0 1 0 1 1:1e303\n", "trace: job 0 reducer 1 has 1e+303 MB, more bytes than a float64 holds"},
		{"4 1\n0 0 1 0 3 2:1e302 1:5 2:1e302\n", "trace: job 0 reducer 2 has 2e+302 MB, more bytes than a float64 holds"},
		{"4 1\n0 0 1 0 2 2:1e303 x:1\n", `trace: job 0 reducer location "x": strconv.Atoi: parsing "x": invalid syntax`},
		{"4 1\n1 0 1 0 1 1:5 extra", "trace: 1 trailing tokens after 1 jobs"},
		{"4 1\n0 0 1 0 1 1:5\nextra 7\n# x\n8\n", "trace: 3 trailing tokens after 1 jobs"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.in))
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.in, err, c.want)
		}
	}
}
