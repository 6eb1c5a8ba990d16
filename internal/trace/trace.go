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
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"ccf/internal/coflow"
)

// Job is one coflow in trace form.
type Job struct {
	ID            int
	ArrivalMillis int64
	Mappers       []int
	// ReducerMB maps reducer machine → megabytes it must receive.
	ReducerMB map[int]float64
}

// Trace is a parsed benchmark file.
type Trace struct {
	NumRacks int
	Jobs     []Job
}

// Parse reads a benchmark-format trace.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var tokens []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tokens = append(tokens, strings.Fields(line)...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	pos := 0
	next := func() (string, error) {
		if pos >= len(tokens) {
			return "", io.ErrUnexpectedEOF
		}
		t := tokens[pos]
		pos++
		return t, nil
	}
	nextInt := func(what string) (int, error) {
		t, err := next()
		if err != nil {
			return 0, fmt.Errorf("trace: missing %s: %w", what, err)
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
		// Cap the preallocation hint by the tokens actually present: a
		// forged count must not let make() reserve attacker-chosen memory
		// before the per-entry parse fails at end of input.
		hint := nr
		if rest := len(tokens) - pos; hint > rest {
			hint = rest
		}
		job.ReducerMB = make(map[int]float64, hint)
		for r := 0; r < nr; r++ {
			t, err := next()
			if err != nil {
				return nil, fmt.Errorf("trace: job %d missing reducer %d: %w", job.ID, r, err)
			}
			parts := strings.SplitN(t, ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("trace: job %d reducer entry %q not loc:MB", job.ID, t)
			}
			loc, err := strconv.Atoi(parts[0])
			if err != nil {
				return nil, fmt.Errorf("trace: job %d reducer location %q: %w", job.ID, parts[0], err)
			}
			if loc < 0 || loc >= racks {
				return nil, fmt.Errorf("trace: job %d reducer at rack %d outside [0,%d)", job.ID, loc, racks)
			}
			mb, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: job %d reducer MB %q: %w", job.ID, parts[1], err)
			}
			if mb < 0 {
				return nil, fmt.Errorf("trace: job %d reducer %d has negative size %g", job.ID, loc, mb)
			}
			job.ReducerMB[loc] += mb
			if sum := job.ReducerMB[loc]; math.IsNaN(sum) || math.IsInf(sum, 0) {
				return nil, fmt.Errorf("trace: job %d reducer %d has non-finite size %g", job.ID, loc, sum)
			}
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	if pos != len(tokens) {
		return nil, fmt.Errorf("trace: %d trailing tokens after %d jobs", len(tokens)-pos, numJobs)
	}
	return tr, nil
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
	var locs []int
	for _, j := range tr.Jobs {
		line = strconv.AppendInt(line[:0], int64(j.ID), 10)
		put(' ', j.ArrivalMillis)
		put(' ', int64(len(j.Mappers)))
		for _, m := range j.Mappers {
			put(' ', int64(m))
		}
		put(' ', int64(len(j.ReducerMB)))
		locs = sortedLocs(locs, j.ReducerMB)
		for _, loc := range locs {
			put(' ', int64(loc))
			line = strconv.AppendFloat(append(line, ':'), j.ReducerMB[loc], 'g', -1, 64)
		}
		bw.Write(append(line, '\n'))
	}
	return bw.Flush()
}

// sortedLocs refills buf with the reducer locations in ascending order.
func sortedLocs(buf []int, reducerMB map[int]float64) []int {
	buf = buf[:0]
	for loc := range reducerMB {
		buf = append(buf, loc)
	}
	slices.Sort(buf)
	return buf
}

// Coflows expands the trace into simulator coflows the way CoflowSim does:
// each reducer's megabytes split evenly across the job's mappers, flows from
// mapper machine to reducer machine, self-loops dropped.
func (tr *Trace) Coflows() []*coflow.Coflow {
	out := make([]*coflow.Coflow, 0, len(tr.Jobs))
	var locs []int
	var flows []coflow.Flow
	for _, j := range tr.Jobs {
		flows = flows[:0]
		if len(j.Mappers) > 0 {
			locs = sortedLocs(locs, j.ReducerMB)
			for _, rl := range locs {
				per := j.ReducerMB[rl] * 1e6 / float64(len(j.Mappers))
				if per <= 0 {
					continue
				}
				for _, ml := range j.Mappers {
					if ml != rl {
						flows = append(flows, coflow.Flow{ID: len(flows), Src: ml, Dst: rl, Size: per})
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
		red := map[int]float64{}
		for j := 0; j < n; j++ {
			if i == j || vol[i*n+j] == 0 {
				continue
			}
			red[j] = float64(vol[i*n+j]) / 1e6
		}
		if len(red) == 0 {
			continue
		}
		tr.Jobs = append(tr.Jobs, Job{ID: id, ArrivalMillis: arrivalMillis, Mappers: []int{i}, ReducerMB: red})
		id++
	}
	return tr, nil
}
