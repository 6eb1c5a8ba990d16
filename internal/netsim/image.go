package netsim

// Session images: the state of a parked ReleaseCompleted session as bytes,
// and a session rebuilt from them that continues bit for bit where the
// imaged one stood. The image holds what Digest enumerates plus what drives
// the epochs to come — the clock, the loop and report counters, the
// tombstones, and every in-flight coflow with its flows' progress — and
// costs what is in flight plus 32 bytes per retired coflow. Everything else
// a session carries (live-flow caches, the scheduler's order and key caches,
// rates) is derived again on the first epoch after the load.
//
// That holds for schedulers whose allocation is a function of the active
// set they are handed — Varys, Aalo, FIFO, SCF, NCF and the per-flow
// baselines. A scheduler with memory of its own would not be captured. Flow
// IDs are restored as positions within the coflow and per-flow end times are
// not kept: both are outputs nothing in a running session reads.
//
// Layout, every word big-endian:
//
//	u64 ×4   clock bits, loop iterations, epochs, total-bytes bits
//	u64      T, then T tombstones of u64 ×4: id, arrival, completion, flows
//	u64      W, then W weights of u64 ×2: id, weight (non-default ones only)
//	u64 ×2   R resident coflows, A of them active; then per resident, in
//	         admission order:
//	  u64 ×7   rank (tombstones admitted before it), slot (0 = queued, k =
//	           k-th in the active list), id, arrival, reserved (0),
//	           weight, sent-bytes bits
//	  u64      name length, then the name
//	  u64      F, then F flows of u32 src, u32 dst, u64 size bits,
//	           u64 remaining bits, u8 done

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"ccf/internal/coflow"
)

// ErrImage reports a session image that is truncated, inconsistent, or does
// not fit the simulator it is loaded into.
var ErrImage = errors.New("netsim: session image malformed")

// Encoded sizes of the fixed-width records, used to bound forged counts by
// the bytes that are actually there.
const (
	imageTombBytes     = 4 * 8
	imageWeightBytes   = 2 * 8
	imageResidentBytes = 9 * 8 // an unnamed coflow without flows
	imageFlowBytes     = 4 + 4 + 8 + 8 + 1
)

// AppendImage appends the session's state image to b. The session must be a
// ReleaseCompleted one without Deps, parked between Advance calls. Imaging
// first releases every completed coflow, so an image holds tombstones and
// in-flight coflows only; that changes nothing a caller can observe but
// AdmittedCount.
func (ss *Session) AppendImage(b []byte) ([]byte, error) {
	if err := ss.check(); err != nil {
		return nil, err
	}
	if !ss.release || len(ss.s.Deps) > 0 {
		return nil, errors.New("netsim: a session image needs ReleaseCompleted and no Deps")
	}
	ss.releaseAll()

	be := binary.BigEndian
	b = be.AppendUint64(b, math.Float64bits(ss.now))
	b = be.AppendUint64(b, uint64(ss.iter))
	b = be.AppendUint64(b, uint64(ss.rep.Epochs))
	b = be.AppendUint64(b, math.Float64bits(ss.rep.TotalBytes))

	b = be.AppendUint64(b, uint64(len(ss.tombs)))
	for i := range ss.tombs {
		t := &ss.tombs[i]
		b = be.AppendUint64(b, uint64(t.id))
		b = be.AppendUint64(b, math.Float64bits(t.arrival))
		b = be.AppendUint64(b, math.Float64bits(t.completion))
		b = be.AppendUint64(b, uint64(t.flows))
	}

	ids := make([]int, 0, len(ss.relWeights))
	for id := range ss.relWeights {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b = be.AppendUint64(b, uint64(len(ids)))
	for _, id := range ids {
		b = be.AppendUint64(b, uint64(id))
		b = be.AppendUint64(b, math.Float64bits(ss.relWeights[id]))
	}

	slot := make(map[*coflow.Coflow]int, len(ss.active))
	for k, c := range ss.active {
		slot[c] = k + 1
	}
	b = be.AppendUint64(b, uint64(len(ss.all)))
	b = be.AppendUint64(b, uint64(len(ss.active)))
	for i, c := range ss.all {
		b = be.AppendUint64(b, uint64(ss.rank[i]))
		b = be.AppendUint64(b, uint64(slot[c]))
		b = be.AppendUint64(b, uint64(c.ID))
		b = be.AppendUint64(b, math.Float64bits(c.Arrival))
		b = be.AppendUint64(b, 0) // reserved
		b = be.AppendUint64(b, math.Float64bits(c.Weight))
		b = be.AppendUint64(b, math.Float64bits(c.SentBytes))
		b = be.AppendUint64(b, uint64(len(c.Name)))
		b = append(b, c.Name...)
		b = be.AppendUint64(b, uint64(len(c.Flows)))
		for _, f := range c.Flows {
			b = be.AppendUint32(b, uint32(f.Src))
			b = be.AppendUint32(b, uint32(f.Dst))
			b = be.AppendUint64(b, math.Float64bits(f.Size))
			b = be.AppendUint64(b, math.Float64bits(f.Remaining))
			if f.Done {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	return b, nil
}

// RestoreSession begins a session on the simulator, abandoning any previous
// one, and loads img into it. The simulator must be configured as the imaged
// session's was — fabric, scheduler kind, Events, ReleaseCompleted — which
// the image does not record; callers that persist images record it beside
// them and compare Digest after the load. A bad image is an ErrImage and
// leaves the simulator without a session.
func (s *Simulator) RestoreSession(img []byte) (*Session, error) {
	if !s.ReleaseCompleted || len(s.Deps) > 0 {
		return nil, errors.New("netsim: a session image needs ReleaseCompleted and no Deps")
	}
	ss := &s.ses
	if err := ss.begin(s, nil); err != nil {
		return nil, err
	}
	if err := ss.load(img); err != nil {
		ss.begun = false
		return nil, fmt.Errorf("%w: %v", ErrImage, err)
	}
	if s.Probe != nil {
		s.Probe.BeginRun(s.fabric.Ports, s.fabric.EgressCap, s.fabric.IngressCap, ss.all, s.sched)
	}
	return ss, nil
}

// imageReader consumes an image front to back; after a short read every
// later read yields zero and err stays set.
type imageReader struct {
	b   []byte
	err error
}

func (r *imageReader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		if r.err == nil {
			r.err = fmt.Errorf("truncated: %d bytes left, %d needed", len(r.b), n)
		}
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *imageReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *imageReader) u32() int {
	if b := r.take(4); b != nil {
		return int(binary.BigEndian.Uint32(b))
	}
	return 0
}

func (r *imageReader) f64() float64 { return math.Float64frombits(r.u64()) }

// id reads a coflow ID (any int, stored as its two's complement).
func (r *imageReader) id() int { return int(int64(r.u64())) }

// count reads a non-negative number no larger than limit.
func (r *imageReader) count(what string, limit int) int {
	v := r.u64()
	if r.err == nil && v > uint64(limit) {
		r.err = fmt.Errorf("%s %d exceeds %d", what, v, limit)
		return 0
	}
	return int(v)
}

// records reads how many fixed-size records follow, refusing a number the
// remaining bytes cannot hold — a forged count never sizes an allocation.
func (r *imageReader) records(what string, size int) int {
	return r.count(what, len(r.b)/size)
}

// load fills a freshly begun session from an image.
func (ss *Session) load(img []byte) error {
	r := &imageReader{b: img}
	rep := ss.rep
	ss.now = r.f64()
	ss.iter = r.count("iteration count", math.MaxInt)
	rep.Epochs = r.count("epoch count", math.MaxInt)
	rep.TotalBytes = r.f64()

	nt := r.records("tombstone count", imageTombBytes)
	for i := 0; i < nt; i++ {
		t := tombstone{id: r.id(), arrival: r.f64(), completion: r.f64()}
		t.flows = r.count("tombstone flow count", math.MaxInt)
		ss.tombs = append(ss.tombs, t)
		rep.CCTs[t.id] = t.completion - t.arrival
	}
	for i, nw := 0, r.records("weight count", imageWeightBytes); i < nw; i++ {
		id := r.id()
		ss.relWeights[id] = r.f64()
	}

	nres := r.records("resident count", imageResidentBytes)
	active := append(ss.active[:0], make([]*coflow.Coflow, r.count("active count", nres))...)
	ports := ss.s.fabric.Ports
	for i := 0; i < nres && r.err == nil; i++ {
		rank := r.count("rank", nt)
		if i > 0 && rank < ss.rank[i-1] {
			return fmt.Errorf("resident %d: rank %d after %d", i, rank, ss.rank[i-1])
		}
		slot := r.count("active slot", len(active))
		c := &coflow.Coflow{ID: r.id(), Arrival: r.f64()}
		r.count("reserved word", 0)
		c.Weight, c.SentBytes = r.f64(), r.f64()
		c.Name = string(r.take(r.count("name length", len(r.b))))
		nf := r.records("flow count", imageFlowBytes)
		flows := make([]coflow.Flow, nf)
		c.Flows = make([]*coflow.Flow, nf)
		for j := range flows {
			f := &flows[j]
			*f = coflow.Flow{ID: j, Src: r.u32(), Dst: r.u32(), Size: r.f64(), Remaining: r.f64()}
			if d := r.take(1); d != nil {
				if d[0] > 1 {
					return fmt.Errorf("resident %d flow %d: done flag %d", i, j, d[0])
				}
				f.Done = d[0] == 1
			}
			c.Flows[j] = f
		}
		if r.err != nil {
			break
		}
		if err := ss.validateAdmit(c); err != nil {
			return err
		}
		c.BeginSim(ports)
		ss.all = append(ss.all, c)
		ss.rank = append(ss.rank, rank)
		switch {
		case slot == 0:
			ss.enqueue(c)
		case active[slot-1] != nil:
			return fmt.Errorf("resident %d: active slot %d taken twice", i, slot)
		default:
			active[slot-1] = c
		}
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	for k, c := range active {
		if c == nil {
			return fmt.Errorf("active slot %d of %d empty", k+1, len(active))
		}
	}
	ss.active = active
	return nil
}
