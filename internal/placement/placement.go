// Package placement implements the application-level data-movement
// schedulers the paper compares:
//
//   - Hash: the classic hash-based join — partition k goes to node k mod n.
//     Represents network-level-only optimization (§IV.A "Baseline").
//   - Mini: traffic-minimising placement — each partition goes to the node
//     holding its largest chunk, so the fewest bytes cross the network.
//     Represents decoupled application+network optimization (track-join
//     style, §IV.A "Minimize network traffic").
//   - CCF: the paper's co-optimizing heuristic (Algorithm 1) — partitions
//     are processed in descending order of their largest chunk and each is
//     assigned to the destination that minimises the running bottleneck
//     port load T = max(max egress, max ingress).
//
// PlaceOnLinks runs the same Algorithm 1 over a link table — per-host
// capacities and, optionally, racks with capacitated uplinks and downlinks
// (the paper's footnote 4); topology.RackAwareCCF lays a topology out as one.
//
// Two more schedulers, LPT and CCF without the sort, support the ablation
// studies listed in DESIGN.md. Placers is the one table of names the
// commands, the daemon and core select them by.
package placement

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ccf/internal/partition"
)

// Scheduler assigns every partition of a chunk matrix to a destination node.
// The initial loads, when non-nil, describe network volume already committed
// before the redistribution starts (the v⁰_ij broadcast flows produced by
// skew handling); co-optimizing schedulers account for them, oblivious ones
// ignore them. Place keeps neither argument: core.OnlineEngine passes
// storage it rewrites for the next job.
type Scheduler interface {
	Name() string
	Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error)
}

// Hash implements the baseline: destination = partition index mod n. With
// the paper's f(k) = k mod p partitioner this is exactly "each data chunk is
// assigned to a node based on its responsible hash value".
type Hash struct{}

// Name implements Scheduler.
func (Hash) Name() string { return "Hash" }

// Place implements Scheduler.
func (Hash) Place(m *partition.ChunkMatrix, _ *partition.Loads) (*partition.Placement, error) {
	pl := partition.NewPlacement(m.P)
	for k := 0; k < m.P; k++ {
		pl.Dest[k] = k % m.N
	}
	return pl, nil
}

// Mini implements the traffic-minimising scheduler: for each partition it
// examines all destinations and keeps the one minimising bytes moved, i.e.
// the node holding the largest chunk. Ties resolve to the lowest node index
// (which, with the paper's rank-aligned Zipf data, is why Mini funnels the
// entire relation into node 0).
type Mini struct{}

// Name implements Scheduler.
func (Mini) Name() string { return "Mini" }

// Place implements Scheduler.
func (Mini) Place(m *partition.ChunkMatrix, _ *partition.Loads) (*partition.Placement, error) {
	_, node := m.MaxChunk()
	return &partition.Placement{Dest: node}, nil
}

// CCF implements Algorithm 1 of the paper: a step-by-step greedy search that
// keeps the bottleneck port load T minimal after each assignment.
//
// The straightforward implementation costs O(p·n²); this one costs
// O(p·(n + log p)) by tracking, per candidate destination d, the would-be
// maxima with top-2 bookkeeping:
//
//	egress side:  assigning k to d adds h_ik to every egress i ≠ d, so the
//	              new egress max is max_i(egress_i + h_ik) unless the argmax
//	              is d itself, in which case it is the second max.
//	ingress side: only ingress_d changes, by tot_k − h_dk.
//
// Two things keep the constant small. The ingress top-2 is carried from one
// partition to the next — a commit raises exactly one ingress port, so the
// update is O(1) — and the candidate scan stops early (see place).
type CCF struct {
	// NoSort disables the descending sort of line 1 (ablation abl-sort).
	NoSort bool
}

// Name implements Scheduler.
func (c CCF) Name() string {
	if c.NoSort {
		return "CCF-nosort"
	}
	return "CCF"
}

// loadsFrom returns working copies of the initial port loads (zero when
// initial is nil) for an n-node placement.
func loadsFrom(initial *partition.Loads, n int) (egress, ingress []int64, err error) {
	buf := make([]int64, 2*n)
	egress, ingress = buf[:n:n], buf[n:]
	if initial != nil {
		if len(initial.Egress) != n || len(initial.Ingress) != n {
			return nil, nil, fmt.Errorf("placement: initial loads sized %d/%d, want %d",
				len(initial.Egress), len(initial.Ingress), n)
		}
		copy(egress, initial.Egress)
		copy(ingress, initial.Ingress)
	}
	return egress, ingress, nil
}

// visitOrder returns, from one pass over the matrix, each partition's total
// Σ_i h_ik and the order Algorithm 1 visits the partitions in. Line 1 sorts
// them by their largest chunk, descending, so large chunks (to which T is
// most sensitive) are placed first; partitions with equal largest chunks keep
// their index order. With sorted false the order is 0 … p−1.
func visitOrder(m *partition.ChunkMatrix, sorted bool) (tot []int64, order []int) {
	p := m.P
	// tot and the largest chunks (then the sort keys); the order. A radix
	// sort's spare keys and indices follow in each buffer.
	spare := 0
	if sorted && p >= radixMin {
		spare = p
	}
	buf, obuf := make([]int64, 2*p+spare), make([]int, p+spare)
	tot, largest := buf[:p:p], buf[p:2*p:2*p]
	copy(largest, m.Row(0))
	for i := 0; i < m.N; i++ {
		for k, v := range m.Row(i)[:p] {
			tot[k] += v
			if v > largest[k] {
				largest[k] = v
			}
		}
	}
	order = obuf[:p:p]
	for k := range order {
		order[k] = k
	}
	if sorted {
		sortDescending(largest, order, buf[2*p:], obuf[p:])
	}
	return tot, order
}

// radixMin is the length below which sortDescending sorts by insertion: a
// radix pass costs a 256-entry histogram and its prefix sum whatever the
// length.
const radixMin = 64

// sortDescending sorts order, which holds 0 … len(v)−1, by v[k] descending and
// k ascending among equal values, overwriting v with the sort keys; keys and
// idx are scratch of v's length, unused below radixMin. The key of v[k] is its
// bits with every bit but the sign flipped: as unsigned integers the keys
// ascend as the values descend, so a stable ascending sort of the keys yields
// the order. It is an LSD radix sort, one pass per byte, skipping each byte
// all keys share.
func sortDescending(v []int64, order []int, keys []int64, idx []int) {
	for k, x := range v {
		v[k] = int64(uint64(x) ^ (1<<63 - 1))
	}
	if len(v) < radixMin {
		insertionSort(v, order)
		return
	}
	var or, and uint64 = 0, ^uint64(0)
	for _, u := range v {
		or, and = or|uint64(u), and&uint64(u)
	}
	src, dst := v, keys[:len(v)]
	srcIdx, dstIdx := order[:len(v)], idx[:len(v)]
	for shift := uint(0); shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue // every key has this byte
		}
		var start [256]int
		for _, u := range src {
			start[uint64(u)>>shift&0xff]++
		}
		at := 0
		for b, c := range start {
			start[b], at = at, at+c
		}
		for j, u := range src {
			b := uint64(u) >> shift & 0xff
			dst[start[b]], dstIdx[start[b]] = u, srcIdx[j]
			start[b]++
		}
		src, dst, srcIdx, dstIdx = dst, src, dstIdx, srcIdx
	}
	copy(order, srcIdx) // a no-op after an even number of passes
}

// insertionSort sorts keys ascending, stably, moving idx along with them.
func insertionSort(keys []int64, idx []int) {
	idx = idx[:len(keys)]
	for j := 1; j < len(keys); j++ {
		u, k := uint64(keys[j]), idx[j]
		i := j
		for ; i > 0 && uint64(keys[i-1]) > u; i-- {
			keys[i], idx[i] = keys[i-1], idx[i-1]
		}
		keys[i], idx[i] = int64(u), k
	}
}

// Links is a link table for Algorithm 1 (the paper's footnote 4): every term
// of T is a link's load divided by that link's capacity. Host i sends on a link
// of capacity Egress[i] and receives on one of capacity Ingress[i]. With RackOf
// set, host i sits in rack RackOf[i], and a flow between racks also crosses
// the sender's rack uplink and the receiver's rack downlink, of capacities
// Up[r] and Down[r]. Capacities are in any one unit; +Inf makes a link's term
// zero. Rack links are positive. A host link may have capacity 0 (a dead
// host): it adds no term to T and must carry nothing, so a host that cannot
// receive is never a destination, and one that cannot send may hold no chunk
// and no initial egress load.
type Links struct {
	Egress, Ingress []float64
	RackOf          []int
	Up, Down        []float64
}

// check reports a table that does not describe m's hosts, or a zero-capacity
// host link that would carry load: a chunk or initial egress load on a host
// that cannot send, initial ingress load on one that cannot receive, or
// partitions with no host to receive them. egress and ingress are the initial
// loads.
func (l *Links) check(m *partition.ChunkMatrix, egress, ingress []int64) error {
	n, racks := m.N, len(l.Up)
	ok := len(l.Egress) == n && len(l.Ingress) == n && len(l.Down) == racks &&
		(l.RackOf == nil) == (racks == 0) && (l.RackOf == nil || len(l.RackOf) == n)
	for _, r := range l.RackOf {
		ok = ok && r >= 0 && r < racks
	}
	for _, c := range slices.Concat(l.Egress, l.Ingress) {
		ok = ok && c >= 0
	}
	for _, c := range slices.Concat(l.Up, l.Down) {
		ok = ok && c > 0
	}
	if !ok {
		return fmt.Errorf("placement: link table does not describe %d hosts in racks with non-negative capacities", n)
	}
	for i := range n {
		if l.Egress[i] == 0 && (egress[i] != 0 || slices.ContainsFunc(m.Row(i), func(h int64) bool { return h != 0 })) ||
			l.Ingress[i] == 0 && ingress[i] != 0 {
			return fmt.Errorf("placement: host %d has load on a link of capacity 0", i)
		}
	}
	if slices.Max(l.Ingress) == 0 {
		return fmt.Errorf("placement: no host can receive")
	}
	return nil
}

// PlaceOnLinks runs Algorithm 1, partitions sorted as in line 1, scoring every
// candidate against the link table l. A nil table is the paper's non-blocking
// switch, where PlaceOnLinks places exactly as CCF{}.
func PlaceOnLinks(m *partition.ChunkMatrix, initial *partition.Loads, l *Links) (*partition.Placement, error) {
	return place(m, initial, l, true)
}

// key is a link's term of T: its load over its capacity, or the load itself
// when caps is nil. Below 2⁵³ bytes the conversion is exact, so on the switch
// keys order as the loads do.
func key(load int64, caps []float64, i int) float64 {
	x := float64(load)
	if caps != nil {
		x /= caps[i]
	}
	return x
}

// top2 is a running maximum v1, held by i1 (the first index to reach it), and
// v2, the largest value at any other index. −1 stands in for a missing value
// and for any value below it: every top-2 of this package starts from none.
type top2 struct {
	v1, v2 float64
	i1     int
}

var none = top2{-1, -1, -1}

func (t top2) add(i int, v float64) top2 {
	if v > t.v1 {
		return top2{v, t.v1, i}
	}
	if v > t.v2 {
		t.v2 = v
	}
	return t
}

// except returns the largest value at any index other than i.
func (t top2) except(i int) float64 {
	if i == t.i1 {
		return t.v2
	}
	return t.v1
}

// topOf returns the top-2 of the keys of loads[i] + plus[i], or of loads[i]
// when plus is nil. It stays out of line: inlined into place, whose loop keeps
// a dozen slices live, its loop index went to the stack and BenchmarkCCFPlace
// ran ≈ 10 % slower.
//
//go:noinline
func topOf(loads, plus []int64, caps []float64) top2 {
	t := none
	for i, v := range loads {
		if plus != nil {
			v += plus[i]
		}
		t = t.add(i, key(v, caps, i))
	}
	return t
}

// Place implements Scheduler.
func (c CCF) Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error) {
	return place(m, initial, nil, !c.NoSort)
}

// place is Algorithm 1 over the link table l (nil: the switch), visiting the
// partitions sorted by line 1 or in index order.
func place(m *partition.ChunkMatrix, initial *partition.Loads, l *Links, sorted bool) (*partition.Placement, error) {
	n, p := m.N, m.P
	egress, ingress, err := loadsFrom(initial, n)
	if err != nil {
		return nil, err
	}
	var egCap, inCap, upCap, downCap []float64
	var rackOf []int
	if l != nil {
		if err := l.check(m, egress, ingress); err != nil {
			return nil, err
		}
		egCap, inCap, rackOf, upCap, downCap = l.Egress, l.Ingress, l.RackOf, l.Up, l.Down
	}
	// Rack r's uplink and downlink loads, and Σ_{i in r} h_ik for the
	// current partition; all empty without rack terms.
	racks := len(upCap)
	rbuf := make([]int64, 3*racks)
	up, down, rackCol := rbuf[:racks:racks], rbuf[racks:2*racks:2*racks], rbuf[2*racks:]
	tot, order := visitOrder(m, sorted)

	// The top-2 of the ingress keys, maintained by the commit below instead
	// of rescanned per partition.
	in := topOf(ingress, nil, inCap)

	pl := partition.NewPlacement(p)
	col := make([]int64, n) // h_ik for the current partition
	for _, k := range order {
		tk := tot[k]

		// Gather the column, then take the top-2 of (egress_i + h_ik) over
		// all i. Two loops on purpose: the gather strides through the whole
		// matrix, and with nothing but independent loads in it the misses
		// overlap. Fused with the compare chain it gained a few percent at
		// 64 × 960, where the matrix sits in cache, and ran at half speed at
		// 1 000 × 15 000, where it (120 MB) lives in DRAM.
		for i, idx := 0, k; i < n; i, idx = i+1, idx+p {
			col[i] = m.H[idx]
		}
		eg := topOf(egress, col, egCap)
		// The rack links: assigning k to a host of rack r adds rack s's
		// share of the column to every uplink s ≠ r and the rest of the
		// partition to r's downlink.
		ul, dl := none, none
		if racks > 0 {
			clear(rackCol)
			for i, h := range col {
				rackCol[rackOf[i]] += h
			}
			ul, dl = topOf(up, rackCol, upCap), topOf(down, nil, downCap)
		}

		// Evaluate T_d for candidate destinations d in O(1) each, lowest T
		// first and the lowest index among equals. Every d other than eg.i1
		// and in.i1 costs at least floor — its egress side sees eg.v1, its
		// ingress side in.v1, and its rack's uplink and downlink sides at
		// least the runners-up ul.v2 and dl.v2 — so once some d costs no more
		// than floor, no ordinary port behind it can win (equal at best, and
		// the tie goes to the lower index): only eg.i1 and in.i1, if they lie
		// behind d, are still looked at. Against a standing backlog the first
		// such d is usually 0 or 1.
		floor := max(eg.v1, in.v1, ul.v2, dl.v2)
		bestD := -1
		var bestT float64
		for d := 0; d < n; {
			// Never a host that cannot receive: its ingress term is +Inf, but
			// NaN for an empty partition, which ties every candidate and
			// would go to the dead host at a lower index.
			if inCap != nil && inCap[d] == 0 {
				d++
				continue
			}
			t := eg.except(d)
			if v := key(egress[d], egCap, d); v > t { // d's own egress is unchanged
				t = v
			}
			if v := in.except(d); v > t {
				t = v
			}
			if v := key(ingress[d]+tk-col[d], inCap, d); v > t {
				t = v
			}
			if racks > 0 {
				r := rackOf[d]
				if v := ul.except(r); v > t {
					t = v
				}
				if v := key(up[r], upCap, r); v > t {
					t = v
				}
				if v := dl.except(r); v > t {
					t = v
				}
				if v := key(down[r]+tk-rackCol[r], downCap, r); v > t {
					t = v
				}
			}
			if bestD == -1 || t < bestT {
				bestD, bestT = d, t
			}
			d++
			if t <= floor {
				next := n
				if eg.i1 >= d {
					next = eg.i1
				}
				if in.i1 >= d && in.i1 < next {
					next = in.i1
				}
				d = next
			}
		}

		// Commit the assignment (line 9). One ingress port changes, and with
		// non-negative chunks it can only grow, which the top-2 absorbs in
		// O(1). Place does not reject negative chunks (a journal may hold jobs
		// whose generator config predates intake validation, and replays them
		// as it decided them); there the port can shrink, and the top-2 is
		// rescanned.
		pl.Dest[k] = bestD
		for i, h := range col {
			egress[i] += h
		}
		egress[bestD] -= col[bestD]
		grow := tk - col[bestD]
		ingress[bestD] += grow
		switch iv := key(ingress[bestD], inCap, bestD); {
		case grow < 0:
			in = topOf(ingress, nil, inCap)
		case bestD == in.i1:
			in.v1 = iv
		default:
			in = in.add(bestD, iv)
		}
		if racks > 0 {
			rd := rackOf[bestD]
			for r, h := range rackCol {
				up[r] += h
			}
			up[rd] -= rackCol[rd]
			down[rd] += tk - rackCol[rd]
		}
	}
	return pl, nil
}

// LPT is the classic longest-processing-time makespan heuristic applied to
// ingress only: partitions in descending total size, each to the node with
// the least accumulated ingress. It balances receivers but ignores senders
// and locality — an ablation isolating how much CCF's egress/locality terms
// contribute.
type LPT struct{}

// Name implements Scheduler.
func (LPT) Name() string { return "LPT" }

// Place implements Scheduler.
func (LPT) Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error) {
	n, p := m.N, m.P
	_, ingress, err := loadsFrom(initial, n)
	if err != nil {
		return nil, err
	}
	tot := m.PartitionTotals()
	order := make([]int, p)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return tot[order[a]] > tot[order[b]] })
	pl := partition.NewPlacement(p)
	for _, k := range order {
		best := 0
		for j := 1; j < n; j++ {
			if ingress[j] < ingress[best] {
				best = j
			}
		}
		pl.Dest[k] = best
		ingress[best] += tot[k] - m.At(best, k)
	}
	return pl, nil
}

// Evaluation is one decision of the paper's step (Figure 3, Algorithm 1): the
// placement a scheduler chose for a chunk matrix and what it costs under the
// bandwidth model.
type Evaluation struct {
	Placement *partition.Placement
	Loads     *partition.Loads
	// Volumes is the n×n matrix (row-major) of the coflow the placement
	// induces, broadcast volumes added: Volumes[i*n+j] bytes go from i to j.
	Volumes []int64
	// TrafficBytes is the total bytes crossing the network (remote moves
	// plus any initial broadcast volume).
	TrafficBytes int64
	// BottleneckBytes is T = max port load; CCT = T / port bandwidth for a
	// single coflow under MADD.
	BottleneckBytes int64
}

// Evaluate decides: it runs a scheduler over a chunk matrix and returns the
// validated placement, its port loads on top of the initial ones, and its flow
// volumes with the optional n×n broadcast volumes (the v⁰ flows whose port
// loads initial already counts) added. Every caller that places a job's
// matrix goes through here or through EvaluateInto.
func Evaluate(s Scheduler, m *partition.ChunkMatrix, initial *partition.Loads, broadcast []int64) (*Evaluation, error) {
	if broadcast != nil && len(broadcast) != m.N*m.N {
		return nil, fmt.Errorf("placement: broadcast volumes have %d entries, want %d", len(broadcast), m.N*m.N)
	}
	pl, vol, err := EvaluateInto(nil, s, m, initial)
	if err != nil {
		return nil, err
	}
	// The port loads are the volumes' row and column sums on top of the
	// initial ones: O(n²), where partition.ComputeLoads walks the matrix again.
	n := m.N
	egress, ingress, err := loadsFrom(initial, n)
	if err != nil {
		return nil, err
	}
	for i := range egress {
		for j, v := range vol[i*n : (i+1)*n] {
			egress[i] += v
			ingress[j] += v
		}
	}
	loads := &partition.Loads{Egress: egress, Ingress: ingress}
	for i, b := range broadcast {
		vol[i] += b
	}
	return &Evaluation{
		Placement:       pl,
		Loads:           loads,
		Volumes:         vol,
		TrafficBytes:    loads.Traffic(),
		BottleneckBytes: loads.Max(),
	}, nil
}

// EvaluateInto is Evaluate for a caller that decides job after job
// (core.OnlineEngine): the flow volumes are written into vol's storage when it
// holds n×n entries, whatever it held is overwritten, and no loads are
// computed. Broadcast volumes are left to the caller, who knows which rows
// carry any.
func EvaluateInto(vol []int64, s Scheduler, m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, []int64, error) {
	pl, err := s.Place(m, initial)
	if err != nil {
		return nil, nil, fmt.Errorf("placement: %s: %w", s.Name(), err)
	}
	if vol, err = partition.FlowVolumesInto(vol, m, pl); err != nil {
		return nil, nil, fmt.Errorf("placement: %s produced invalid placement: %w", s.Name(), err)
	}
	return pl, vol, nil
}

// Named is one row of the placer table: a placement scheduler under the name
// the commands select it by, with the §IV.A skew policy it runs under —
// partial duplication on for Mini and the CCF variants, off for the
// skew-oblivious Hash and LPT.
type Named struct {
	Name       string
	Scheduler  Scheduler
	HandleSkew bool
}

// Placers is the one table of placer names. Read-only.
var Placers = []Named{
	{"hash", Hash{}, false},
	{"mini", Mini{}, true},
	{"ccf", CCF{}, true},
	{"ccf-nosort", CCF{NoSort: true}, true},
	{"lpt", LPT{}, false},
}

// ByName returns the placer table's row for name. It does not allocate on
// success: the daemon resolves a placer for every job.
func ByName(name string) (Named, error) {
	for _, p := range Placers {
		if p.Name == name {
			return p, nil
		}
	}
	return Named{}, fmt.Errorf("unknown placer %q (want %s)", name, Names())
}

// Names lists the placer table's names in table order, comma-separated.
func Names() string {
	names := make([]string, len(Placers))
	for i, p := range Placers {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}
