// Package query implements the analytical-job layer of the paper's Figure 3:
// "an analytical job is decomposed into a sequence of distributed data
// operators", each of which redistributes data through a coflow whose
// placement CCF co-optimizes. Besides the join the paper evaluates, the
// package implements the other operators the paper names — aggregation and
// duplicate elimination (§I) — over the same chunk-matrix/coflow machinery,
// plus local pre-aggregation (combiners) as the traffic-reduction technique
// of the data-management domain.
//
// The data model is deliberately small: a Row is (Key, Value), tables are
// row bags distributed over the cluster's nodes, and every operator is
// checked against a single-node reference evaluation in the tests.
package query

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/parallel"
	"ccf/internal/partition"
	"ccf/internal/placement"
)

// Row is one record: a grouping/join key and a value.
type Row struct {
	Key   int64
	Value int64
}

// Table is a distributed relation: Frags[i] holds node i's rows.
type Table struct {
	Name string
	// PayloadBytes is the wire size of one row.
	PayloadBytes int64
	Frags        [][]Row
}

// NewTable allocates an empty distributed table over n nodes.
func NewTable(name string, n int, payload int64) *Table {
	if payload <= 0 {
		payload = 100
	}
	return &Table{Name: name, PayloadBytes: payload, Frags: make([][]Row, n)}
}

// Nodes returns the cluster width.
func (t *Table) Nodes() int { return len(t.Frags) }

// Rows returns the total row count.
func (t *Table) Rows() int64 {
	var s int64
	for _, f := range t.Frags {
		s += int64(len(f))
	}
	return s
}

// Gather returns all rows on one node, sorted (for reference comparisons).
func (t *Table) Gather() []Row {
	var out []Row
	for _, f := range t.Frags {
		out = append(out, f...)
	}
	slices.SortFunc(out, compareRows)
	return out
}

// compareRows is the canonical row order: by Key, then by Value.
func compareRows(a, b Row) int {
	return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Value, b.Value))
}

// ---------------------------------------------------------------------------
// Logical plan.
// ---------------------------------------------------------------------------

// Node is a logical plan operator.
type Node interface {
	// label names the operator for stage reports.
	label() string
}

// Scan reads a named base table.
type Scan struct{ Table string }

func (s *Scan) label() string { return "scan(" + s.Table + ")" }

// JoinOp equi-joins two inputs on Key; the output row is
// (Key, LeftValue + RightValue) for every matching pair.
type JoinOp struct{ Left, Right Node }

func (j *JoinOp) label() string { return "join" }

// AggOp groups its input by Key and sums Values. When Partial is set, each
// node pre-aggregates its fragment before the shuffle (the combiner
// optimization that trades CPU for network traffic).
type AggOp struct {
	Input   Node
	Partial bool
}

func (a *AggOp) label() string {
	if a.Partial {
		return "aggregate(partial)"
	}
	return "aggregate"
}

// DistinctOp removes duplicate (Key, Value) rows globally. Local
// deduplication always runs first (it is free of network cost).
type DistinctOp struct{ Input Node }

func (d *DistinctOp) label() string { return "distinct" }

// MapOp applies a pure per-row transform on every node — projection or
// re-keying; the nodes call F at the same time. It is a local operator (no
// network stage), but a re-keying map forces the next keyed operator to
// shuffle again, which is how multi-stage analytical jobs chain coflows.
type MapOp struct {
	Input Node
	F     func(Row) Row
}

func (m *MapOp) label() string { return "map" }

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

// Config parameterises an executor.
type Config struct {
	// Nodes is the cluster width. Required. Every shuffle hashes its keys
	// into 15 × Nodes partitions (the paper's ratio) and runs on ports of
	// netsim.DefaultPortBandwidth.
	Nodes int
	// Scheduler places every shuffle's partitions. Required.
	Scheduler placement.Scheduler
}

// StageReport describes one operator's network stage.
type StageReport struct {
	Operator        string
	TrafficBytes    int64
	BottleneckBytes int64
	TimeSec         float64
	RowsIn          int64
	RowsOut         int64
	// FlowVolumes is the n×n byte matrix of the stage's shuffle coflow
	// (row-major); ExecuteBatch replays these as dependency-chained
	// coflows on a shared fabric.
	FlowVolumes []int64
}

// Result is a finished query execution.
type Result struct {
	Output *Table
	Stages []StageReport
	// TotalTimeSec is the summed network time of the sequential stages
	// (the paper's operators run one after another).
	TotalTimeSec float64
	// TotalTrafficBytes sums shuffle traffic over stages.
	TotalTrafficBytes int64
}

// Executor runs logical plans over a set of base tables.
type Executor struct {
	cfg    Config
	part   partition.Partitioner
	tables map[string]*Table
}

// NewExecutor validates the config and registers the base tables.
func NewExecutor(cfg Config, tables ...*Table) (*Executor, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("query: Nodes must be positive, got %d", cfg.Nodes)
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("query: Scheduler is required")
	}
	e := &Executor{
		cfg:    cfg,
		part:   partition.ModPartitioner{NumPartitions: 15 * cfg.Nodes},
		tables: make(map[string]*Table, len(tables)),
	}
	for _, t := range tables {
		if t.Nodes() != cfg.Nodes {
			return nil, fmt.Errorf("query: table %q spans %d nodes, cluster has %d", t.Name, t.Nodes(), cfg.Nodes)
		}
		if _, dup := e.tables[t.Name]; dup {
			return nil, fmt.Errorf("query: duplicate table %q", t.Name)
		}
		e.tables[t.Name] = t
	}
	return e, nil
}

// Execute runs a plan and reports per-stage network metrics.
func (e *Executor) Execute(plan Node) (*Result, error) {
	res := &Result{}
	out, err := e.run(plan, res)
	if err != nil {
		return nil, err
	}
	res.Output = out
	for _, s := range res.Stages {
		res.TotalTimeSec += s.TimeSec
		res.TotalTrafficBytes += s.TrafficBytes
	}
	return res, nil
}

func (e *Executor) run(node Node, res *Result) (*Table, error) {
	switch op := node.(type) {
	case *Scan:
		t, ok := e.tables[op.Table]
		if !ok {
			return nil, fmt.Errorf("query: unknown table %q", op.Table)
		}
		return t, nil
	case *JoinOp:
		l, err := e.run(op.Left, res)
		if err != nil {
			return nil, err
		}
		r, err := e.run(op.Right, res)
		if err != nil {
			return nil, err
		}
		return e.join(op, l, r, res)
	case *AggOp:
		in, err := e.run(op.Input, res)
		if err != nil {
			return nil, err
		}
		return e.aggregate(op, in, res)
	case *DistinctOp:
		in, err := e.run(op.Input, res)
		if err != nil {
			return nil, err
		}
		return e.distinct(op, in, res)
	case *MapOp:
		if op.F == nil {
			return nil, fmt.Errorf("query: map operator without a function")
		}
		in, err := e.run(op.Input, res)
		if err != nil {
			return nil, err
		}
		out := NewTable("map", e.cfg.Nodes, in.PayloadBytes)
		eachNode(e.cfg.Nodes, func(i int) {
			out.Frags[i] = make([]Row, len(in.Frags[i]))
			for idx, row := range in.Frags[i] {
				out.Frags[i][idx] = op.F(row)
			}
		})
		return out, nil
	default:
		return nil, fmt.Errorf("query: unknown plan node %T", node)
	}
}

// Shuffled is what one Exchange produced.
type Shuffled[T any] struct {
	// Frags[d] holds the rows sent to node d: the left input's rows, then the
	// right input's. Each side lists them in input order: node 0's rows as
	// its fragment held them, then node 1's, and so on.
	Frags [][]T
	// Split[d] is where Frags[d] turns from left rows to right rows.
	Split []int
	// Evaluation is the decision: placement, port loads, n×n flow volumes.
	*placement.Evaluation
	// TimeSec is the shuffle coflow's completion time alone on the fabric
	// at the default port bandwidth, MovedBytes what the simulator carried.
	TimeSec, MovedBytes float64
}

// Sides returns the left and the right rows sent to node d.
func (x *Shuffled[T]) Sides(d int) (left, right []T) {
	return x.Frags[d][:x.Split[d]], x.Frags[d][x.Split[d]:]
}

// Exchange is the tuple layer's one shuffle: it builds one chunk matrix over
// both inputs (left[i] and right[i] are node i's rows; part maps key(row) to a
// partition and size(row) is the row's bytes on the wire), decides the
// placement on top of the initial port loads, times the resulting coflow —
// broadcast volumes included — alone under Varys, and routes every row to its
// partition's destination. A join's two inputs cross the fabric as one
// coflow; a one-input operator passes a nil right. initial and broadcast may
// be nil. Plain hash join, partial duplication and per-key track join are
// parameterisations of it.
//
// The source nodes work on the pool, before the decision and after it, so
// part, key and size are called from several goroutines at once. part is
// asked for a row's partition once; the index is kept for the routing pass,
// and one outside [0, P()) is an error (a node's left rows are asked first).
// Every (side, source, destination) triple owns a range of the destination's
// fragment — the left sources' ranges laid end to end in node order, then the
// right sources' — so the sources write side by side.
func Exchange[T any](sched placement.Scheduler, part partition.Partitioner, left, right [][]T,
	key, size func(T) int64, initial *partition.Loads, broadcast []int64) (*Shuffled[T], error) {
	n, p := len(left), part.P()
	if right == nil {
		right = make([][]T, n)
	} else if len(right) != n {
		return nil, fmt.Errorf("query: right input spans %d nodes, left %d", len(right), n)
	}
	m, err := partition.NewChunkMatrix(n, p)
	if err != nil {
		return nil, err
	}
	sides := [2][][]T{left, right}
	parts := make([][]int32, n)   // parts[i][r]: the partition of node i's r-th row, left rows first
	count := make([]int32, 2*n*p) // count[(s*n+i)*p+k]: rows of side s on node i in partition k
	err = parallel.ForEach(0, n, func(i int) error {
		ks, h := make([]int32, 0, len(left[i])+len(right[i])), m.Row(i)
		for s, frags := range sides {
			c := count[(s*n+i)*p : (s*n+i+1)*p]
			for _, row := range frags[i] {
				kv := key(row)
				k := part.Partition(kv)
				if k < 0 || k >= p {
					return fmt.Errorf("query: partitioner returned %d for key %d, want [0, %d)", k, kv, p)
				}
				ks = append(ks, int32(k))
				h[k] += size(row)
				c[k]++
			}
		}
		parts[i] = ks
		return nil
	})
	if err != nil {
		return nil, err
	}
	ev, err := placement.Evaluate(sched, m, initial, broadcast)
	if err != nil {
		return nil, err
	}
	x := &Shuffled[T]{Frags: make([][]T, n), Split: make([]int, n), Evaluation: ev}
	if x.TimeSec, x.MovedBytes, err = netsim.RunAlone("exchange", n, ev.Volumes, 0, coflow.NewVarys(), nil); err != nil {
		return nil, err
	}
	dest := ev.Placement.Dest
	// next[j*n+d], j = s*n+i: where side s of node i puts its next row for d.
	next := make([]int, 2*n*n)
	for j := 0; j < 2*n; j++ {
		for k, c := range count[j*p : (j+1)*p] {
			next[j*n+dest[k]] += int(c)
		}
	}
	for d := 0; d < n; d++ {
		arriving := 0
		for j := 0; j < 2*n; j++ {
			if j == n {
				x.Split[d] = arriving
			}
			next[j*n+d], arriving = arriving, arriving+next[j*n+d]
		}
		if arriving > 0 {
			x.Frags[d] = make([]T, arriving)
		}
	}
	eachNode(n, func(i int) {
		r := 0
		for s, frags := range sides {
			at := next[(s*n+i)*n : (s*n+i+1)*n]
			for _, row := range frags[i] {
				d := dest[parts[i][r]]
				x.Frags[d][at[d]] = row
				at[d]++
				r++
			}
		}
	})
	return x, nil
}

// shuffle is the operators' exchange: every row weighs payload bytes and the
// network is idle. It returns what Exchange routed and the stage report.
func shuffle(e *Executor, label string, left, right [][]Row, payload int64) (*Shuffled[Row], StageReport, error) {
	x, err := Exchange(e.cfg.Scheduler, e.part, left, right, rowKey, func(Row) int64 { return payload }, nil, nil)
	if err != nil {
		return nil, StageReport{}, fmt.Errorf("query: %s: %w", label, err)
	}
	rep := StageReport{
		Operator:        label,
		TrafficBytes:    x.TrafficBytes,
		BottleneckBytes: x.BottleneckBytes,
		TimeSec:         x.TimeSec,
		FlowVolumes:     x.Volumes,
	}
	for _, f := range x.Frags {
		rep.RowsIn += int64(len(f))
	}
	return x, rep, nil
}

func rowKey(r Row) int64 { return r.Key }

func (e *Executor) join(op *JoinOp, l, r *Table, res *Result) (*Table, error) {
	n := e.cfg.Nodes
	// Both inputs shuffle in one coflow (co-partitioning), then each node
	// joins the left and right rows it received.
	payload := max(l.PayloadBytes, r.PayloadBytes)
	x, rep, err := shuffle(e, op.label(), l.Frags, r.Frags, payload)
	if err != nil {
		return nil, err
	}
	out := NewTable("join", n, l.PayloadBytes+r.PayloadBytes)
	eachNode(n, func(i int) { out.Frags[i] = localJoin(x.Sides(i)) })
	rep.RowsOut = out.Rows()
	res.Stages = append(res.Stages, rep)
	return out, nil
}

// localJoin is one node's hash join: for every right row in arrival order,
// the left rows of its key in arrival order. The left values sit in one
// array, each key's as a contiguous run (count, prefix, fill), and a right
// row probes the key index once: slot[r] remembers the run of row r's key,
// the left rows' slots first. The index is sized for len(left) keys up front.
func localJoin(left, right []Row) []Row {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	index := newKeyIndex(len(left)) // key → run
	slot := make([]int32, len(left)+len(right))
	start := make([]int32, 0, len(left)+1) // run s is vals[start[s]:start[s+1]]; holds counts until the prefix pass
	for r, row := range left {
		s := index.find(row.Key, true)
		if int(s) == len(start) {
			start = append(start, 0)
		}
		start[s]++
		slot[r] = s
	}
	probe := slot[len(left):]
	matches := 0
	for r, row := range right {
		s := index.find(row.Key, false)
		if s >= 0 {
			matches += int(start[s])
		}
		probe[r] = s
	}
	if matches == 0 {
		return nil
	}
	var lefts int32
	for s, c := range start {
		start[s], lefts = lefts, lefts+c
	}
	start = append(start, lefts)
	vals, fill := make([]int64, lefts), slices.Clone(start)
	for r, row := range left {
		vals[fill[slot[r]]] = row.Value
		fill[slot[r]]++
	}
	out := make([]Row, 0, matches)
	for r, row := range right {
		if s := probe[r]; s >= 0 {
			for _, lv := range vals[start[s]:start[s+1]] {
				out = append(out, Row{Key: row.Key, Value: lv + row.Value})
			}
		}
	}
	return out
}

func (e *Executor) aggregate(op *AggOp, in *Table, res *Result) (*Table, error) {
	n := e.cfg.Nodes
	frags := in.Frags
	if op.Partial {
		// Combiner: collapse each node's fragment to one row per key
		// before any network movement.
		frags = make([][]Row, n)
		eachNode(n, func(i int) { frags[i] = groupSums(in.Frags[i]) })
	}
	x, rep, err := shuffle(e, op.label(), frags, nil, in.PayloadBytes)
	if err != nil {
		return nil, err
	}
	out := NewTable("aggregate", n, in.PayloadBytes)
	eachNode(n, func(i int) { out.Frags[i] = sumByKey(x.Frags[i]) })
	rep.RowsOut = out.Rows()
	res.Stages = append(res.Stages, rep)
	return out, nil
}

func (e *Executor) distinct(op *DistinctOp, in *Table, res *Result) (*Table, error) {
	n := e.cfg.Nodes
	// Local dedup first: free traffic reduction, same correctness.
	pre := make([][]Row, n)
	eachNode(n, func(i int) { pre[i] = dedup(in.Frags[i]) })
	x, rep, err := shuffle(e, op.label(), pre, nil, in.PayloadBytes)
	if err != nil {
		return nil, err
	}
	out := NewTable("distinct", n, in.PayloadBytes)
	eachNode(n, func(i int) { out.Frags[i] = dedup(x.Frags[i]) })
	rep.RowsOut = out.Rows()
	res.Stages = append(res.Stages, rep)
	return out, nil
}

// eachNode runs the n nodes' share of an operator phase on the pool. f(i)
// may write only what node i owns.
func eachNode(n int, f func(i int)) {
	_ = parallel.ForEach(0, n, func(i int) error { f(i); return nil }) // no task fails
}

// dedup returns the distinct rows in first-occurrence order.
func dedup(rows []Row) []Row {
	var out []Row
	seen := make(map[Row]struct{})
	for _, row := range rows {
		// One map operation per row: the set grew iff the row is new.
		if seen[row] = struct{}{}; len(seen) > len(out) {
			out = append(out, row)
		}
	}
	return out
}

// groupSums groups rows by Key, sums their Values and returns one row per key
// in order of first appearance. The combiner calls it directly — its output
// only feeds a shuffle, which copies it, so it is neither sorted nor trimmed.
// Its storage starts at half the rows — a group-by worth running folds at
// least two rows per key — and grows past that only when it must.
func groupSums(rows []Row) []Row {
	index := newKeyIndex(len(rows) / 2)
	out := make([]Row, 0, len(rows)/2)
	for _, row := range rows {
		g := index.find(row.Key, true)
		if int(g) == len(out) {
			out = append(out, Row{Key: row.Key})
		}
		out[g].Value += row.Value
	}
	return out
}

// sumByKey is the final group-by: groupSums's rows, ascending by Key.
func sumByKey(rows []Row) []Row {
	out := groupSums(rows)
	slices.SortFunc(out, func(a, b Row) int { return cmp.Compare(a.Key, b.Key) })
	return slices.Clone(out) // a plan's output outlives the call: no spare capacity
}

// keyIndex numbers distinct keys 0, 1, 2, … in order of first appearance. It
// is an open-addressed table with linear probing, a power of two in size and
// at most half full; an operator's table lives for one fragment and nothing
// is ever deleted from it.
type keyIndex struct {
	slots []keySlot
	shift int // 64 − log₂ len(slots): a key's home slot is the top bits of its hash
	keys  int
}

// keySlot holds a key and its number plus one; zero marks a free slot.
type keySlot struct {
	key int64
	num int32
}

// newKeyIndex returns an index that holds keys distinct keys without growing.
func newKeyIndex(keys int) keyIndex {
	size := 16
	for size < 2*keys {
		size *= 2
	}
	return keyIndex{slots: make([]keySlot, size), shift: bits.LeadingZeros64(uint64(size - 1))}
}

// find returns key's number. A key not seen before gets the next number when
// add is set and -1 otherwise.
func (t *keyIndex) find(key int64, add bool) int32 {
	if add && 2*t.keys >= len(t.slots) {
		old := t.slots
		t.slots = make([]keySlot, max(16, 2*len(old)))
		t.shift = bits.LeadingZeros64(uint64(len(t.slots) - 1))
		for _, s := range old {
			if s.num != 0 {
				*t.probe(s.key) = s
			}
		}
	}
	if len(t.slots) == 0 {
		return -1
	}
	s := t.probe(key)
	if s.num == 0 {
		if !add {
			return -1
		}
		t.keys++
		*s = keySlot{key, int32(t.keys)}
	}
	return s.num - 1
}

// probe returns key's slot, or the free slot where it belongs. The hash is
// Fibonacci's: every bit of the key reaches the top bits of the product.
func (t *keyIndex) probe(key int64) *keySlot {
	mask := uint64(len(t.slots) - 1)
	for h := uint64(key) * 0x9E3779B97F4A7C15 >> t.shift; ; h = (h + 1) & mask {
		if s := &t.slots[h]; s.num == 0 || s.key == key {
			return s
		}
	}
}

func mapToRows(mp map[int64]int64) []Row {
	out := make([]Row, 0, len(mp))
	for k, v := range mp {
		out = append(out, Row{Key: k, Value: v})
	}
	slices.SortFunc(out, compareRows)
	return out
}

// ---------------------------------------------------------------------------
// Reference (single-node) evaluation for correctness checks.
// ---------------------------------------------------------------------------

// Reference evaluates a plan on gathered tables, single-node, no network.
func Reference(plan Node, tables map[string][]Row) ([]Row, error) {
	switch op := plan.(type) {
	case *Scan:
		rows, ok := tables[op.Table]
		if !ok {
			return nil, fmt.Errorf("query: unknown table %q", op.Table)
		}
		return rows, nil
	case *JoinOp:
		l, err := Reference(op.Left, tables)
		if err != nil {
			return nil, err
		}
		r, err := Reference(op.Right, tables)
		if err != nil {
			return nil, err
		}
		build := make(map[int64][]int64)
		for _, row := range l {
			build[row.Key] = append(build[row.Key], row.Value)
		}
		var out []Row
		for _, row := range r {
			for _, lv := range build[row.Key] {
				out = append(out, Row{Key: row.Key, Value: lv + row.Value})
			}
		}
		return out, nil
	case *AggOp:
		in, err := Reference(op.Input, tables)
		if err != nil {
			return nil, err
		}
		sums := make(map[int64]int64)
		for _, row := range in {
			sums[row.Key] += row.Value
		}
		return mapToRows(sums), nil
	case *DistinctOp:
		in, err := Reference(op.Input, tables)
		if err != nil {
			return nil, err
		}
		seen := make(map[Row]bool)
		var out []Row
		for _, row := range in {
			if !seen[row] {
				seen[row] = true
				out = append(out, row)
			}
		}
		return out, nil
	case *MapOp:
		in, err := Reference(op.Input, tables)
		if err != nil {
			return nil, err
		}
		if op.F == nil {
			return nil, fmt.Errorf("query: map operator without a function")
		}
		out := make([]Row, len(in))
		for i, row := range in {
			out[i] = op.F(row)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("query: unknown plan node %T", plan)
	}
}

// SortRows orders rows canonically for comparisons.
func SortRows(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	slices.SortFunc(out, compareRows)
	return out
}
