// Package fbtrace synthesises coflow workloads with the statistical shape of
// the Facebook MapReduce trace that Varys and Aalo (and therefore CoflowSim)
// evaluate on: coflows fall into four categories by length (size of the
// longest flow) and width (number of flows),
//
//	SN — short & narrow     LN — long & narrow
//	SW — short & wide       LW — long & wide
//
// with most coflows short/narrow but most *bytes* carried by the long/wide
// tail, Poisson arrivals, and heavy-tailed flow sizes. The generated
// workloads exercise the online coflow schedulers; trace.Write can persist
// them in CoflowSim's format.
package fbtrace

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"ccf/internal/coflow"
	"ccf/internal/rng"
	"ccf/internal/trace"
)

// Defaults follow the Varys §7 characterisation: ≈ 60% of coflows are
// narrow and short, but > 90% of bytes come from the wide/long minority.
const (
	// ShortFlowMB bounds a "short" coflow's largest flow.
	ShortFlowMB = 5.0
	// NarrowWidth bounds a "narrow" coflow's flow count.
	NarrowWidth = 50
)

// Mix sets the category probabilities; they must sum to ≈ 1.
type Mix struct {
	SN, LN, SW, LW float64
}

// DefaultMix mirrors the Facebook trace's coflow-count distribution
// (Varys Table 1: 52% SN, 16% LN, 15% SW, 17% LW).
func DefaultMix() Mix { return Mix{SN: 0.52, LN: 0.16, SW: 0.15, LW: 0.17} }

// Config parameterises a synthetic trace.
type Config struct {
	Machines int // fabric width; mapper/reducer locations in [0, Machines)
	Coflows  int
	// MeanInterarrivalSec spaces Poisson arrivals; 0 = 1 second, and a
	// negative or non-finite value is an error.
	MeanInterarrivalSec float64
	Mix                 Mix // zero value = DefaultMix
	Seed                uint64
	// Density scales the trace: the coflow count is multiplied by it and the
	// mean interarrival divided by it, replaying the same statistical shape
	// at Density× load. 0 means 1 (the unscaled trace); values in (0, 1)
	// thin the trace. At Density 1 the generated sequence is byte-identical
	// to a Config without the field.
	Density float64
}

// exponential draws an exponential variate with the given mean.
func exponential(g *rng.Gen, mean float64) float64 {
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
	}
	return -mean * math.Log(u)
}

// sizeClass is a bounded Pareto flow-size range in MB with its bounds
// raised to the shape parameter once, so a draw costs one powInvAlpha.
type sizeClass struct{ la, ha float64 }

// paretoAlpha is the shape of the flow-size tail.
const paretoAlpha = 1.1

// powFrac is the fractional exponent math's portable pow applies through
// Exp∘Log when raising to y = −1/paretoAlpha: Modf(|y|)'s fraction, which
// exceeds ½ and so is taken less one (the integer part becomes 1). y is
// rounded to float64 first, as pow receives it; the subtraction is then
// exact.
const powFrac = -float64(-1/paretoAlpha) - 1

// powInvAlpha returns math.Pow(x, −1/paretoAlpha) bit for bit by performing
// the portable pow's float operations for that exponent (math.Pow is the
// portable pow on every GOARCH but s390x): with (x1, xe) = Frexp(x),
// a1 = Exp(powFrac·Log(x))·x1 and the result is Ldexp(1/a1, −xe). Frexp and
// Ldexp become exponent-field arithmetic; an x that is not a positive normal
// goes to math.Pow, and a result that would not be normal to math.Ldexp
// (none is for 1 < paretoAlpha < 2, the range these operations assume: a
// finite x gives at least 2^(−1024/paretoAlpha)).
func powInvAlpha(x float64) float64 {
	const expMask = 0x7ff << 52
	b := math.Float64bits(x)
	e := int(b >> 52) // the sign bit makes a negative x read ≥ 0x800
	if e == 0 || e >= 0x7ff {
		return math.Pow(x, -1/paretoAlpha)
	}
	xe := e - 1022                                    // Frexp's exponent
	x1 := math.Float64frombits(b&^expMask | 1022<<52) // Frexp's fraction, in [½, 1)
	a := 1 / (math.Exp(powFrac*math.Log(x)) * x1)
	ab := math.Float64bits(a)
	re := int(ab>>52) - xe // a is positive, so no sign bit
	if re <= 0 || re >= 0x7ff {
		return math.Ldexp(a, -xe)
	}
	return math.Float64frombits(ab&^expMask | uint64(re)<<52)
}

func newSizeClass(loMB, hiMB float64) sizeClass {
	return sizeClass{la: math.Pow(loMB, paretoAlpha), ha: math.Pow(hiMB, paretoAlpha)}
}

var (
	shortFlows = newSizeClass(0.1, ShortFlowMB)
	longFlows  = newSizeClass(ShortFlowMB, 1000)
)

// draw returns a bounded Pareto variate from the class's range — the heavy
// tail of flow sizes. The float64 conversions round each product, so no
// architecture fuses them into a multiply-subtract.
func (sc sizeClass) draw(g *rng.Gen) float64 {
	u := g.Float64()
	return powInvAlpha(-(float64(u*sc.ha) - float64(u*sc.la) - sc.ha) / (sc.ha * sc.la))
}

// Category of a generated coflow.
type Category int

// Categories.
const (
	SN Category = iota
	LN
	SW
	LW
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case SN:
		return "SN"
	case LN:
		return "LN"
	case SW:
		return "SW"
	case LW:
		return "LW"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Classify buckets a coflow by the Varys length/width thresholds.
func Classify(c *coflow.Coflow) Category {
	var longest float64
	for _, f := range c.Flows {
		if f.Size > longest {
			longest = f.Size
		}
	}
	short := longest <= ShortFlowMB*1e6
	narrow := len(c.Flows) <= NarrowWidth
	switch {
	case short && narrow:
		return SN
	case narrow:
		return LN
	case short:
		return SW
	default:
		return LW
	}
}

// Generate builds the synthetic workload inline. It calls the same draw as
// the Stream's producer, from the same validated state, so the two paths
// draw the identical RNG sequence by construction: Generate(cfg) and
// collecting Stream(cfg) yield the same coflows in the same order.
func Generate(cfg Config) ([]*coflow.Coflow, error) {
	gen, total, err := newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]*coflow.Coflow, total)
	for i := range out {
		out[i] = gen.next()
	}
	return out, nil
}

// generator draws the trace: the RNG, the arrival clock, the next coflow's
// id and genCoflow's reused flow buffer. Exactly one goroutine owns it at a
// time, so the sequence it draws does not depend on who draws it.
type generator struct {
	machines int
	mean     float64
	mix      Mix
	g        rng.Gen
	now      float64
	id       int
	flows    []coflow.Flow // genCoflow's reused draw buffer
}

// newGenerator validates cfg and returns the generator of the scaled trace
// with the number of coflows it carries. At Density d that is
// round(Coflows·d) coflows with mean interarrival MeanInterarrivalSec/d.
func newGenerator(cfg Config) (*generator, int, error) {
	if cfg.Machines < 2 {
		return nil, 0, fmt.Errorf("fbtrace: need at least 2 machines, got %d", cfg.Machines)
	}
	if cfg.Coflows <= 0 {
		return nil, 0, fmt.Errorf("fbtrace: need a positive coflow count, got %d", cfg.Coflows)
	}
	density := cfg.Density
	if density == 0 {
		density = 1
	}
	if density < 0 || math.IsNaN(density) || math.IsInf(density, 0) {
		return nil, 0, fmt.Errorf("fbtrace: density must be positive and finite, got %g", cfg.Density)
	}
	if m := cfg.MeanInterarrivalSec / density; math.IsNaN(m) || math.IsInf(m, 0) {
		return nil, 0, fmt.Errorf("fbtrace: mean interarrival %g at density %g is not finite", cfg.MeanInterarrivalSec, density)
	}
	if cfg.MeanInterarrivalSec < 0 {
		return nil, 0, fmt.Errorf("fbtrace: mean interarrival must not be negative, got %g", cfg.MeanInterarrivalSec)
	}
	if cfg.MeanInterarrivalSec == 0 {
		cfg.MeanInterarrivalSec = 1
	}
	total := int(math.Round(float64(cfg.Coflows) * density))
	if total <= 0 {
		return nil, 0, fmt.Errorf("fbtrace: density %g thins %d coflows to zero", density, cfg.Coflows)
	}
	mix := cfg.Mix
	if mix.SN+mix.LN+mix.SW+mix.LW == 0 {
		mix = DefaultMix()
	}
	if s := mix.SN + mix.LN + mix.SW + mix.LW; math.Abs(s-1) > 0.01 {
		return nil, 0, fmt.Errorf("fbtrace: mix sums to %g, want 1", s)
	}
	// One splitmix64 step whitens the seed, so adjacent seeds yield
	// unrelated streams; the guard keeps the xorshift state nonzero.
	seed := rng.SplitMix64(cfg.Seed)
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &generator{machines: cfg.Machines, mean: cfg.MeanInterarrivalSec / density, mix: mix, g: rng.New(seed)}, total, nil
}

// next draws the next coflow in arrival order.
func (gen *generator) next() *coflow.Coflow {
	gen.now += exponential(&gen.g, gen.mean)
	u := gen.g.Float64()
	var cat Category
	switch {
	case u < gen.mix.SN:
		cat = SN
	case u < gen.mix.SN+gen.mix.LN:
		cat = LN
	case u < gen.mix.SN+gen.mix.LN+gen.mix.SW:
		cat = SW
	default:
		cat = LW
	}
	c := gen.genCoflow(cat)
	gen.id++
	return c
}

// produce draws n coflows into ahead, then signals done. A batch starts only
// when ahead has room for all n and no other batch runs, so no send blocks
// and the goroutine exits even if its Streamer was dropped half-drained.
func (gen *generator) produce(n int, ahead chan<- *coflow.Coflow, done chan<- struct{}) {
	for range n {
		ahead <- gen.next()
	}
	done <- struct{}{}
}

// aheadBatch is how many coflows one producer batch draws; ahead holds two
// batches, so the next batch can start while up to one is still untaken.
const aheadBatch = 16

// Streamer yields the synthetic workload one coflow at a time, in arrival
// order, drawn ahead by a producer goroutine: the caller simulates coflow k
// while coflow k+1 is drawn on another core. It holds at most 2·aheadBatch
// coflows and one producer, so at 1000× density the trace never
// materialises as a slice. It needs no Close: a producer never blocks, and
// one that outlives its Streamer finishes its batch and exits. Created by
// Stream; not safe for concurrent use.
type Streamer struct {
	// gen is owned by the running batch while busy, else by the Streamer.
	// The go statement that starts a batch hands it over; the batch's send
	// on done, received before the next batch starts, hands it back.
	gen              *generator
	total            int
	requested, taken int // coflows handed to batches so far, and out by Next
	busy             bool
	ahead            chan *coflow.Coflow
	done             chan struct{}
}

// Stream validates cfg and returns a Streamer over the scaled trace. At
// Density d the stream carries round(Coflows·d) coflows with mean
// interarrival MeanInterarrivalSec/d; at d = 1 the sequence is exactly
// Generate's.
func Stream(cfg Config) (*Streamer, error) {
	gen, total, err := newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return &Streamer{gen: gen, total: total, ahead: make(chan *coflow.Coflow, 2*aheadBatch), done: make(chan struct{}, 1)}, nil
}

// Total returns the number of coflows the stream will yield in all.
func (st *Streamer) Total() int { return st.total }

// Remaining returns the number of coflows not yet yielded.
func (st *Streamer) Remaining() int { return st.total - st.taken }

// Next yields the next coflow in arrival order, or (nil, false) when the
// stream is exhausted.
func (st *Streamer) Next() (*coflow.Coflow, bool) {
	if st.taken == st.total {
		return nil, false
	}
	// With every requested coflow taken, the running batch, if any, has sent
	// its last one: wait for it to finish, so that the next batch starts.
	st.refill(st.requested == st.taken)
	st.taken++
	return <-st.ahead, true
}

// refill starts the next producer batch once the running one has finished
// (waiting for it if wait is set), provided coflows remain to be requested
// and ahead has room for a whole batch beside those not yet taken.
func (st *Streamer) refill(wait bool) {
	if st.busy {
		if !wait && len(st.done) == 0 {
			return
		}
		<-st.done
		st.busy = false
	}
	if st.requested == st.total || st.requested-st.taken > aheadBatch {
		return
	}
	n := min(aheadBatch, st.total-st.requested)
	st.requested += n
	st.busy = true
	go st.gen.produce(n, st.ahead, st.done)
}

// genCoflow draws the next coflow, of the given category, into the reused
// flow buffer; coflow.New copies the flows into the coflow's own block, so
// the coflow shares no memory with the generator once drawn.
func (gen *generator) genCoflow(cat Category) *coflow.Coflow {
	g, machines := &gen.g, gen.machines
	maxWidth := machines * (machines - 1)
	width := 0
	switch cat {
	case SN, LN:
		width = 1 + g.Intn(min(NarrowWidth, maxWidth))
	case SW, LW:
		lo := NarrowWidth + 1
		if lo > maxWidth {
			lo = maxWidth
		}
		width = lo + g.Intn(maxWidth-lo+1)
	}
	sizes := shortFlows
	if cat == LN || cat == LW {
		sizes = longFlows
	}
	flows := slices.Grow(gen.flows[:0], width)[:width]
	for f := range flows {
		src := g.Intn(machines)
		dst := (src + 1 + g.Intn(machines-1)) % machines
		flows[f] = coflow.Flow{ID: f, Src: src, Dst: dst, Size: sizes.draw(g) * 1e6}
	}
	gen.flows = flows
	return coflow.New(gen.id, cat.String()+"-"+strconv.Itoa(gen.id), gen.now, flows)
}

// ToTrace converts generated coflows into a CoflowSim benchmark trace. The
// format cannot express per-flow pairs exactly when a job has several
// mappers, so each coflow becomes one single-mapper job per source machine,
// in source order, whose reducer entries sum that source's flows per
// destination in flow order. It panics if a flow's endpoint lies outside
// [0, machines): such a flow has no place in a machines-wide trace.
func ToTrace(machines int, coflows []*coflow.Coflow) *trace.Trace {
	tr := &trace.Trace{NumRacks: machines}
	// One machines×machines accumulator serves every coflow: a cell sums its
	// flows' megabytes from +0, seen marks the cells some flow reached, and
	// dsts counts them per source. Emitting a row clears it.
	mb := make([]float64, machines*machines)
	seen := make([]bool, machines*machines)
	dsts := make([]int, machines)
	id := 0
	for _, c := range coflows {
		for _, f := range c.Flows {
			if uint(f.Src) >= uint(machines) || uint(f.Dst) >= uint(machines) {
				panic(fmt.Sprintf("fbtrace: coflow %d flow %d runs %d→%d outside [0,%d)", c.ID, f.ID, f.Src, f.Dst, machines))
			}
			k := f.Src*machines + f.Dst
			if !seen[k] {
				seen[k] = true
				dsts[f.Src]++
			}
			mb[k] += f.Size / 1e6
		}
		for src, n := range dsts {
			if n == 0 {
				continue
			}
			red := make([]trace.Reducer, 0, n)
			row := src * machines
			for dst := 0; len(red) < n; dst++ {
				if seen[row+dst] {
					red = append(red, trace.Reducer{Loc: dst, MB: mb[row+dst]})
					mb[row+dst], seen[row+dst] = 0, false
				}
			}
			dsts[src] = 0
			tr.Jobs = append(tr.Jobs, trace.Job{
				ID:            id,
				ArrivalMillis: int64(c.Arrival * 1000),
				Mappers:       []int{src},
				Reducers:      red,
			})
			id++
		}
	}
	return tr
}
