// Package trace reads and writes coflow traces in the CoflowSim "benchmark"
// format used by the Varys/Aalo artifacts (and therefore by the paper's
// experimental pipeline, Figure 4): scheduling output is handed to the
// simulator as a list of jobs with mapper locations and per-reducer shuffle
// megabytes.
//
// Format (whitespace separated, one job per line after the header):
//
//	<numRacks> <numJobs>
//	<jobID> <arrivalMillis> <numMappers> <m_1> ... <m_M> <numReducers> <r_1:MB_1> ... <r_R:MB_R>
//
// Mapper/reducer locations are rack (machine) indices in [0, numRacks).
// Each reducer r_j receives MB_j megabytes split evenly across the mappers,
// which is exactly how CoflowSim expands a job into flows.
package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"ccf/internal/coflow"
)

// Job is one coflow in trace form.
type Job struct {
	ID            int
	ArrivalMillis int64
	Mappers       []int
	// Reducers lists the megabytes each reducer machine must receive, one
	// entry per machine, in ascending Loc order.
	Reducers []Reducer
}

// Reducer is one reducer entry of a job: machine Loc receives MB megabytes.
type Reducer struct {
	Loc int
	MB  float64
}

// Trace is a parsed benchmark file.
type Trace struct {
	NumRacks int
	Jobs     []Job
}

// tokens yields a trace's whitespace-separated fields one line at a time,
// skipping blank lines and lines whose first field starts with '#'. The
// fields are strings.Fields's: separated by any Unicode space.
type tokens struct {
	sc   *bufio.Scanner
	line string // the unread rest of the current line
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// span returns the length of s's leading run of spaces, with space set, or
// of non-spaces: ASCII by table, any other rune by unicode.IsSpace.
func span(s string, space bool) int {
	for i := 0; i < len(s); {
		r, w := rune(s[i]), 1
		sp := r < utf8.RuneSelf && asciiSpace[r]
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
			sp = unicode.IsSpace(r)
		}
		if sp != space {
			return i
		}
		i += w
	}
	return len(s)
}

// next returns the next field, io.ErrUnexpectedEOF at the end of the input,
// or the reader's error.
func (t *tokens) next() (string, error) {
	for t.line = t.line[span(t.line, true):]; t.line == ""; {
		if !t.sc.Scan() {
			if err := t.sc.Err(); err != nil {
				return "", fmt.Errorf("trace: read: %w", err)
			}
			return "", io.ErrUnexpectedEOF
		}
		line := t.sc.Text()
		if t.line = line[span(line, true):]; strings.HasPrefix(t.line, "#") {
			t.line = ""
		}
	}
	i := span(t.line, false)
	tok := t.line[:i]
	t.line = t.line[i:]
	return tok, nil
}

// missing wraps a failed next: at the end of the input it names what is
// missing, and a read error stands as it is.
func missing(err error, format string, args ...any) error {
	if err != io.ErrUnexpectedEOF {
		return err
	}
	return fmt.Errorf(format+": %w", append(args, err)...)
}

// Parse reads a benchmark-format trace. It holds one line of the input at a
// time; a job may span lines, and a line may hold several jobs.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	toks := &tokens{sc: sc}
	nextInt := func(what string) (int, error) {
		t, err := toks.next()
		if err != nil {
			return 0, missing(err, "trace: missing %s", what)
		}
		v, err := strconv.Atoi(t)
		if err != nil {
			return 0, fmt.Errorf("trace: bad %s %q: %w", what, t, err)
		}
		return v, nil
	}

	racks, err := nextInt("numRacks")
	if err != nil {
		return nil, err
	}
	if racks <= 0 {
		return nil, fmt.Errorf("trace: numRacks must be positive, got %d", racks)
	}
	numJobs, err := nextInt("numJobs")
	if err != nil {
		return nil, err
	}
	if numJobs < 0 {
		return nil, fmt.Errorf("trace: negative numJobs %d", numJobs)
	}
	tr := &Trace{NumRacks: racks}
	for j := 0; j < numJobs; j++ {
		var job Job
		if job.ID, err = nextInt("jobID"); err != nil {
			return nil, err
		}
		arr, err := nextInt("arrival")
		if err != nil {
			return nil, err
		}
		if arr < 0 {
			return nil, fmt.Errorf("trace: job %d has negative arrival %d", job.ID, arr)
		}
		job.ArrivalMillis = int64(arr)
		nm, err := nextInt("numMappers")
		if err != nil {
			return nil, err
		}
		if nm < 0 {
			return nil, fmt.Errorf("trace: job %d has negative mapper count %d", job.ID, nm)
		}
		for m := 0; m < nm; m++ {
			loc, err := nextInt("mapper location")
			if err != nil {
				return nil, err
			}
			if loc < 0 || loc >= racks {
				return nil, fmt.Errorf("trace: job %d mapper at rack %d outside [0,%d)", job.ID, loc, racks)
			}
			job.Mappers = append(job.Mappers, loc)
		}
		nr, err := nextInt("numReducers")
		if err != nil {
			return nil, err
		}
		if nr < 0 {
			return nil, fmt.Errorf("trace: job %d has negative reducer count %d", job.ID, nr)
		}
		if job.Reducers, err = parseReducers(toks, job.ID, nr, racks); err != nil {
			return nil, err
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	trailing := 0
	for _, err = toks.next(); err == nil; _, err = toks.next() {
		trailing++
	}
	if err != io.ErrUnexpectedEOF {
		return nil, err
	}
	if trailing > 0 {
		return nil, fmt.Errorf("trace: %d trailing tokens after %d jobs", trailing, numJobs)
	}
	return tr, nil
}

// parseReducers reads job id's nr reducer entries. Entries for one machine
// are summed in input order from +0, so "1:-0" reads as 0, and every running
// sum must stay finite: an error is the first one in input order, as if each
// entry were checked against its machine's running sum as it is read. Once
// every entry is read and summed, each machine's total must also be finite
// in bytes (MB × 10⁶).
func parseReducers(toks *tokens, id, nr, racks int) ([]Reducer, error) {
	// Cap the preallocation hint by the entries on the current line: a
	// forged count must not let make() reserve attacker-chosen memory
	// before the per-entry parse fails at end of input. The count stops
	// at nr, so a line holding many jobs is not rescanned for each.
	hint := 0
	for rest := toks.line; hint < nr; hint++ {
		i := strings.IndexByte(rest, ':')
		if i < 0 {
			break
		}
		rest = rest[i+1:]
	}
	rs := make([]Reducer, 0, hint)
	ascending := true // no duplicates yet, and rs is already in order
	fail := func(err error) ([]Reducer, error) {
		if !ascending {
			if _, serr := sumReducers(id, rs); serr != nil {
				return nil, serr
			}
		}
		return nil, err
	}
	for r := 0; r < nr; r++ {
		t, err := toks.next()
		if err != nil {
			return fail(missing(err, "trace: job %d missing reducer %d", id, r))
		}
		ls, ms, ok := strings.Cut(t, ":")
		if !ok {
			return fail(fmt.Errorf("trace: job %d reducer entry %q not loc:MB", id, t))
		}
		loc, err := strconv.Atoi(ls)
		if err != nil {
			return fail(fmt.Errorf("trace: job %d reducer location %q: %w", id, ls, err))
		}
		if loc < 0 || loc >= racks {
			return fail(fmt.Errorf("trace: job %d reducer at rack %d outside [0,%d)", id, loc, racks))
		}
		mb, err := strconv.ParseFloat(ms, 64)
		if err != nil {
			return fail(fmt.Errorf("trace: job %d reducer MB %q: %w", id, ms, err))
		}
		if mb < 0 {
			return fail(fmt.Errorf("trace: job %d reducer %d has negative size %g", id, loc, mb))
		}
		// Alone, an entry's sum is non-finite exactly when mb is; sums
		// over duplicates are checked by sumReducers.
		if math.IsNaN(mb) || math.IsInf(mb, 0) {
			return fail(fmt.Errorf("trace: job %d reducer %d has non-finite size %g", id, loc, mb))
		}
		if mb == 0 {
			mb = 0 // a sum starts at +0, and +0 + -0 is +0
		}
		ascending = ascending && (len(rs) == 0 || loc > rs[len(rs)-1].Loc)
		rs = append(rs, Reducer{Loc: loc, MB: mb})
	}
	if !ascending {
		var err error
		if rs, err = sumReducers(id, rs); err != nil {
			return nil, err
		}
	}
	// Coflows turns megabytes into bytes; a reducer whose bytes overflow
	// would become flows of +Inf bytes that never finish.
	for _, r := range rs {
		if math.IsInf(r.MB*1e6, 0) {
			return nil, fmt.Errorf("trace: job %d reducer %d has %g MB, more bytes than a float64 holds", id, r.Loc, r.MB)
		}
	}
	return rs, nil
}

// sumReducers returns rs's entries summed per machine, in input order from
// +0, and sorted by machine; it reports the first running sum, in input
// order, that is not finite.
func sumReducers(id int, rs []Reducer) ([]Reducer, error) {
	out := slices.Clone(rs)
	slices.SortFunc(out, func(a, b Reducer) int { return cmp.Compare(a.Loc, b.Loc) })
	out = slices.CompactFunc(out, func(a, b Reducer) bool { return a.Loc == b.Loc })
	for i := range out {
		out[i].MB = 0
	}
	for _, r := range rs {
		i, _ := slices.BinarySearchFunc(out, r.Loc, func(a Reducer, loc int) int { return cmp.Compare(a.Loc, loc) })
		if out[i].MB += r.MB; math.IsInf(out[i].MB, 0) {
			return nil, fmt.Errorf("trace: job %d reducer %d has non-finite size %g", id, r.Loc, out[i].MB)
		}
	}
	return out, nil
}

// Write emits the trace in benchmark format. Each line is formatted into one
// reused buffer with strconv; the bytes are what fmt's %d and %g give.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	var line []byte
	put := func(sep byte, v int64) { line = strconv.AppendInt(append(line, sep), v, 10) }
	line = strconv.AppendInt(line, int64(tr.NumRacks), 10)
	put(' ', int64(len(tr.Jobs)))
	bw.Write(append(line, '\n'))
	for _, j := range tr.Jobs {
		line = strconv.AppendInt(line[:0], int64(j.ID), 10)
		put(' ', j.ArrivalMillis)
		put(' ', int64(len(j.Mappers)))
		for _, m := range j.Mappers {
			put(' ', int64(m))
		}
		put(' ', int64(len(j.Reducers)))
		for _, r := range j.Reducers {
			put(' ', int64(r.Loc))
			line = strconv.AppendFloat(append(line, ':'), r.MB, 'g', -1, 64)
		}
		bw.Write(append(line, '\n'))
	}
	return bw.Flush()
}

// Coflows expands the trace into simulator coflows the way CoflowSim does:
// each reducer's megabytes split evenly across the job's mappers, flows from
// mapper machine to reducer machine, self-loops dropped.
func (tr *Trace) Coflows() []*coflow.Coflow {
	out := make([]*coflow.Coflow, 0, len(tr.Jobs))
	var flows []coflow.Flow
	for _, j := range tr.Jobs {
		flows = flows[:0]
		if len(j.Mappers) > 0 {
			for _, r := range j.Reducers {
				per := r.MB * 1e6 / float64(len(j.Mappers))
				if per <= 0 {
					continue
				}
				for _, ml := range j.Mappers {
					if ml != r.Loc {
						flows = append(flows, coflow.Flow{ID: len(flows), Src: ml, Dst: r.Loc, Size: per})
					}
				}
			}
		}
		out = append(out, coflow.New(j.ID, "job-"+strconv.Itoa(j.ID), float64(j.ArrivalMillis)/1000, flows))
	}
	return out
}

// FromVolumes converts an n×n byte-volume matrix into a single-job trace,
// modelling every source node as a mapper with a dedicated reducer entry —
// the inverse of Coflows for CCF's shuffle output. Volumes are emitted as
// one single-mapper job per source so the even-split expansion is lossless.
func FromVolumes(n int, vol []int64, arrivalMillis int64) (*Trace, error) {
	if len(vol) != n*n {
		return nil, fmt.Errorf("trace: volume matrix has %d entries, want %d", len(vol), n*n)
	}
	tr := &Trace{NumRacks: n}
	id := 0
	for i := 0; i < n; i++ {
		var red []Reducer
		for j := 0; j < n; j++ {
			if i == j || vol[i*n+j] == 0 {
				continue
			}
			red = append(red, Reducer{Loc: j, MB: float64(vol[i*n+j]) / 1e6})
		}
		if len(red) == 0 {
			continue
		}
		tr.Jobs = append(tr.Jobs, Job{ID: id, ArrivalMillis: arrivalMillis, Mappers: []int{i}, Reducers: red})
		id++
	}
	return tr, nil
}
