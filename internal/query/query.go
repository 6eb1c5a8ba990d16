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
	"fmt"
	"sort"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
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
	sort.Slice(out, func(a, b int) bool {
		if out[a].Key != out[b].Key {
			return out[a].Key < out[b].Key
		}
		return out[a].Value < out[b].Value
	})
	return out
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
// re-keying. It is a local operator (no network stage), but a re-keying map
// forces the next keyed operator to shuffle again, which is how multi-stage
// analytical jobs chain coflows.
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
		in, err := e.run(op.Input, res)
		if err != nil {
			return nil, err
		}
		if op.F == nil {
			return nil, fmt.Errorf("query: map operator without a function")
		}
		out := NewTable("map", e.cfg.Nodes, in.PayloadBytes)
		for i, f := range in.Frags {
			out.Frags[i] = make([]Row, len(f))
			for idx, row := range f {
				out.Frags[i][idx] = op.F(row)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("query: unknown plan node %T", node)
	}
}

// Shuffled is what one Exchange produced.
type Shuffled[T any] struct {
	// Frags[d] holds the rows sent to node d, in input order: node 0's rows
	// as its fragment listed them, then node 1's, and so on.
	Frags [][]T
	// Evaluation is the decision: placement, port loads, n×n flow volumes.
	*placement.Evaluation
	// TimeSec is the shuffle coflow's completion time alone on the fabric
	// at the default port bandwidth, MovedBytes what the simulator carried.
	TimeSec, MovedBytes float64
}

// Exchange is the tuple layer's one shuffle: it builds the chunk matrix of
// frags (frags[i] is node i's rows; part maps key(row) to a partition and
// size(row) is the row's bytes on the wire), decides the placement on top of
// the initial port loads, times the resulting coflow — broadcast volumes
// included — alone under Varys, and routes every row to its partition's
// destination. initial and broadcast may be nil. Plain hash join, partial
// duplication and per-key track join are parameterisations of it.
func Exchange[T any](sched placement.Scheduler, part partition.Partitioner, frags [][]T,
	key, size func(T) int64, initial *partition.Loads, broadcast []int64) (*Shuffled[T], error) {
	n, p := len(frags), part.P()
	m, err := partition.NewChunkMatrix(n, p)
	if err != nil {
		return nil, err
	}
	rows := make([]int, p) // per partition, to size the destination fragments
	for i, f := range frags {
		for _, row := range f {
			k := part.Partition(key(row))
			m.Add(i, k, size(row))
			rows[k]++
		}
	}
	ev, err := placement.Evaluate(sched, m, initial, broadcast)
	if err != nil {
		return nil, err
	}
	x := &Shuffled[T]{Frags: make([][]T, n), Evaluation: ev}
	if x.TimeSec, x.MovedBytes, err = netsim.RunAlone("exchange", n, ev.Volumes, 0, coflow.NewVarys(), nil); err != nil {
		return nil, err
	}
	dest := ev.Placement.Dest
	arriving := make([]int, n)
	for k, c := range rows {
		arriving[dest[k]] += c
	}
	for d, c := range arriving {
		if c > 0 {
			x.Frags[d] = make([]T, 0, c)
		}
	}
	for _, f := range frags {
		for _, row := range f {
			d := dest[part.Partition(key(row))]
			x.Frags[d] = append(x.Frags[d], row)
		}
	}
	return x, nil
}

// shuffle is the operators' exchange: every row weighs payload bytes and the
// network is idle. It returns the post-shuffle fragments and the stage report.
func shuffle[T any](e *Executor, label string, frags [][]T, key func(T) int64, payload int64) ([][]T, StageReport, error) {
	x, err := Exchange(e.cfg.Scheduler, e.part, frags, key, func(T) int64 { return payload }, nil, nil)
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
	for _, f := range frags {
		rep.RowsIn += int64(len(f))
	}
	return x.Frags, rep, nil
}

func rowKey(r Row) int64 { return r.Key }

// taggedRow carries a join input row plus its side.
type taggedRow struct {
	row   Row
	right bool
}

func (e *Executor) join(op *JoinOp, l, r *Table, res *Result) (*Table, error) {
	n := e.cfg.Nodes
	// Both inputs shuffle in one coflow: combine their fragments for the
	// chunk matrix (co-partitioning), then join locally.
	payload := l.PayloadBytes
	if r.PayloadBytes > payload {
		payload = r.PayloadBytes
	}
	trFrags := make([][]taggedRow, n)
	for i := 0; i < n; i++ {
		trFrags[i] = make([]taggedRow, 0, len(l.Frags[i])+len(r.Frags[i]))
		for _, row := range l.Frags[i] {
			trFrags[i] = append(trFrags[i], taggedRow{row, false})
		}
		for _, row := range r.Frags[i] {
			trFrags[i] = append(trFrags[i], taggedRow{row, true})
		}
	}
	shuffled, rep, err := shuffle(e, op.label(), trFrags, func(tr taggedRow) int64 { return tr.row.Key }, payload)
	if err != nil {
		return nil, err
	}

	out := NewTable("join", n, l.PayloadBytes+r.PayloadBytes)
	for i := 0; i < n; i++ {
		build := make(map[int64][]int64)
		for _, tr := range shuffled[i] {
			if !tr.right {
				build[tr.row.Key] = append(build[tr.row.Key], tr.row.Value)
			}
		}
		for _, tr := range shuffled[i] {
			if !tr.right {
				continue
			}
			for _, lv := range build[tr.row.Key] {
				out.Frags[i] = append(out.Frags[i], Row{Key: tr.row.Key, Value: lv + tr.row.Value})
			}
		}
		rep.RowsOut += int64(len(out.Frags[i]))
	}
	res.Stages = append(res.Stages, rep)
	return out, nil
}

func (e *Executor) aggregate(op *AggOp, in *Table, res *Result) (*Table, error) {
	n := e.cfg.Nodes
	frags := in.Frags
	if op.Partial {
		// Combiner: collapse each node's fragment to one row per key
		// before any network movement.
		pre := make([][]Row, n)
		for i, f := range frags {
			sums := make(map[int64]int64, len(f))
			for _, row := range f {
				sums[row.Key] += row.Value
			}
			pre[i] = mapToRows(sums)
		}
		frags = pre
	}
	shuffled, rep, err := shuffle(e, op.label(), frags, rowKey, in.PayloadBytes)
	if err != nil {
		return nil, err
	}
	out := NewTable("aggregate", n, in.PayloadBytes)
	for i := 0; i < n; i++ {
		sums := make(map[int64]int64, len(shuffled[i]))
		for _, row := range shuffled[i] {
			sums[row.Key] += row.Value
		}
		out.Frags[i] = mapToRows(sums)
		rep.RowsOut += int64(len(out.Frags[i]))
	}
	res.Stages = append(res.Stages, rep)
	return out, nil
}

func (e *Executor) distinct(op *DistinctOp, in *Table, res *Result) (*Table, error) {
	n := e.cfg.Nodes
	// Local dedup first: free traffic reduction, same correctness.
	pre := make([][]Row, n)
	for i, f := range in.Frags {
		seen := make(map[Row]bool, len(f))
		for _, row := range f {
			if !seen[row] {
				seen[row] = true
				pre[i] = append(pre[i], row)
			}
		}
	}
	shuffled, rep, err := shuffle(e, op.label(), pre, rowKey, in.PayloadBytes)
	if err != nil {
		return nil, err
	}
	out := NewTable("distinct", n, in.PayloadBytes)
	for i := 0; i < n; i++ {
		seen := make(map[Row]bool, len(shuffled[i]))
		for _, row := range shuffled[i] {
			if !seen[row] {
				seen[row] = true
				out.Frags[i] = append(out.Frags[i], row)
			}
		}
		rep.RowsOut += int64(len(out.Frags[i]))
	}
	res.Stages = append(res.Stages, rep)
	return out, nil
}

func mapToRows(mp map[int64]int64) []Row {
	out := make([]Row, 0, len(mp))
	for k, v := range mp {
		out = append(out, Row{Key: k, Value: v})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
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
	sort.Slice(out, func(a, b int) bool {
		if out[a].Key != out[b].Key {
			return out[a].Key < out[b].Key
		}
		return out[a].Value < out[b].Value
	})
	return out
}
