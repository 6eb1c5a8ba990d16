package netsim

// Releasing and imaging must be invisible: a session that reduces completed
// coflows to tombstones, and one rebuilt from an image of it, digest and
// decide exactly like a session that keeps everything.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ccf/internal/coflow"
)

// TestDoneFlowsMatchesMix pins the closed form against the byte-by-byte
// fold it replaces, from states of both parities.
func TestDoneFlowsMatchesMix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := []int{100_003, 1 << 20}
	for n := 0; n <= 130; n++ {
		counts = append(counts, n)
	}
	for _, n := range counts {
		for trial := 0; trial < 4; trial++ {
			start := fnv1a(rng.Uint64()&^1 | uint64(trial&1))
			want, got := start, start
			for i := 0; i < n; i++ {
				want.mix(0)
				want.mix(1)
			}
			got.doneFlows(n)
			if got != want {
				t.Fatalf("doneFlows(%d) from %#x = %#x, byte fold gives %#x", n, uint64(start), uint64(got), uint64(want))
			}
		}
	}
	// A forged count costs its bit length, not its value.
	h := fnv1a(fnvOffset64)
	h.doneFlows(math.MaxInt)
}

var releaseScheds = []struct {
	name string
	mk   func() coflow.Scheduler
}{
	{"varys", coflow.NewVarys},
	{"aalo", coflow.NewAalo},
	{"fifo", coflow.NewFIFO},
	{"scf", coflow.NewSCF},
	{"ncf", coflow.NewNCF},
}

// releaseScale multiplies the release fixtures' flow sizes and port
// bandwidth. It is a power of two, so times and rate ratios are those of the
// unscaled stream, and large enough that the long coflows send past Aalo's
// 10 MB first D-CLAS threshold: queue demotion, a function of SentBytes, is
// in play.
const releaseScale = 1 << 14

// releaseStream is a seeded stream of coflows whose lifetimes overlap: most
// are short, every seventh is long enough to outlive dozens of younger ones
// (so tombstones are spliced in out of completion order), some carry no
// flows.
func releaseStream(seed int64, ports, n int) []*coflow.Coflow {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*coflow.Coflow, n)
	at := 0.0
	for i := range out {
		at += rng.ExpFloat64() * 2
		var flows []coflow.Flow
		for fi, nf := 0, rng.Intn(5); fi < nf; fi++ {
			src := rng.Intn(ports)
			size := float64(1+rng.Intn(150)) * releaseScale
			if i%7 == 3 {
				size *= 12
			}
			flows = append(flows, coflow.Flow{ID: fi, Src: src, Dst: (src + 1 + rng.Intn(ports-1)) % ports, Size: size})
		}
		out[i] = coflow.New(i, fmt.Sprintf("c%03d", i), at, flows)
	}
	return out
}

func newReleaseSim(t *testing.T, ports int, sched coflow.Scheduler, release bool) *Simulator {
	t.Helper()
	fab, err := NewFabric(ports, 100*releaseScale)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(fab, sched)
	sim.EventHorizon = release
	sim.ReleaseCompleted = release
	return sim
}

func backlogOf(t *testing.T, ss *Session, ports int) []int64 {
	t.Helper()
	eg, in := make([]int64, ports), make([]int64, ports)
	if err := ss.BacklogInto(eg, in); err != nil {
		t.Fatal(err)
	}
	return append(eg, in...)
}

// TestReleaseAndImageAreInvisible drives three sessions through one stream,
// stopping at every arrival: a dense session that keeps every coflow, an
// event-horizon session that releases, and a chain of sessions each rebuilt
// from an image of the previous one at seed-chosen arrivals. At every
// boundary all three agree on digest and backlog; at the end on the report.
func TestReleaseAndImageAreInvisible(t *testing.T) {
	const ports, n, seeds = 5, 240, 8
	for _, sc := range releaseScheds {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				keep, err := newReleaseSim(t, ports, sc.mk(), false).Session()
				if err != nil {
					t.Fatal(err)
				}
				rel, err := newReleaseSim(t, ports, sc.mk(), true).Session()
				if err != nil {
					t.Fatal(err)
				}
				img, err := newReleaseSim(t, ports, sc.mk(), true).Session()
				if err != nil {
					t.Fatal(err)
				}
				streams := [3][]*coflow.Coflow{}
				for i := range streams {
					streams[i] = releaseStream(seed, ports, n)
				}
				rng := rand.New(rand.NewSource(seed + 100))
				restores, maxResident := 0, 0
				for i := 0; i < n; i++ {
					// Every third arrival is admitted without advancing, so
					// images also catch coflows queued ahead of the clock.
					advance := i%3 != 2
					for k, ss := range []*Session{keep, rel, img} {
						if advance {
							if err := ss.Advance(streams[k][i].Arrival); err != nil {
								t.Fatalf("seed %d coflow %d: advance: %v", seed, i, err)
							}
						}
						if err := ss.Admit(streams[k][i]); err != nil {
							t.Fatal(err)
						}
					}
					if rng.Intn(6) == 0 {
						b, err := img.AppendImage(nil)
						if err != nil {
							t.Fatalf("seed %d coflow %d: image: %v", seed, i, err)
						}
						if img, err = newReleaseSim(t, ports, sc.mk(), true).RestoreSession(b); err != nil {
							t.Fatalf("seed %d coflow %d: restore: %v", seed, i, err)
						}
						restores++
					}
					want := keep.Digest()
					if got := rel.Digest(); got != want {
						t.Fatalf("seed %d coflow %d: releasing digest %016x, retaining %016x", seed, i, got, want)
					}
					if got := img.Digest(); got != want {
						t.Fatalf("seed %d coflow %d: restored digest %016x, retaining %016x (after %d restores)", seed, i, got, want, restores)
					}
					wantLog := backlogOf(t, keep, ports)
					if !slices.Equal(backlogOf(t, rel, ports), wantLog) || !slices.Equal(backlogOf(t, img, ports), wantLog) {
						t.Fatalf("seed %d coflow %d: backlogs differ", seed, i)
					}
					if keep.CompletedCount() != rel.CompletedCount() || keep.CompletedCount() != img.CompletedCount() {
						t.Fatalf("seed %d coflow %d: completed counts differ", seed, i)
					}
					live := rel.AdmittedCount() - (rel.CompletedCount() - len(rel.tombs))
					if r := rel.AdmittedCount(); r > 2*live+releaseSlack+1 {
						t.Fatalf("seed %d coflow %d: %d resident with %d live", seed, i, r, live)
					}
					maxResident = max(maxResident, rel.AdmittedCount())
				}
				if len(rel.tombs) == 0 || restores == 0 || maxResident >= n/2 {
					t.Fatalf("seed %d: %d tombstones, %d restores, %d peak resident: the stream did not exercise release",
						seed, len(rel.tombs), restores, maxResident)
				}
				want, err := keep.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.ContainsFunc(streams[0], func(c *coflow.Coflow) bool { return c.SentBytes >= 10e6 }) {
					t.Fatalf("seed %d: no coflow sent 10 MB: the stream never left D-CLAS queue 0", seed)
				}
				for _, ss := range []*Session{rel, img} {
					got, err := ss.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if got.Makespan != want.Makespan || got.AvgCCT != want.AvgCCT || got.MaxCCT != want.MaxCCT ||
						got.WeightedAvgCCT != want.WeightedAvgCCT || got.TotalBytes != want.TotalBytes || got.Epochs != want.Epochs {
						t.Fatalf("seed %d: report %+v, retaining session's %+v", seed, got, want)
					}
					for id, cct := range want.CCTs {
						if got.CCTs[id] != cct {
							t.Fatalf("seed %d: CCT[%d] = %v, want %v", seed, id, got.CCTs[id], cct)
						}
					}
				}
			}
		})
	}
}

// TestNegativeSizeRefused: a flow of negative or -0 size is refused by Run
// and by Admit, whether or not the session releases completed coflows.
func TestNegativeSizeRefused(t *testing.T) {
	const ports = 4
	for _, size := range []float64{-1, math.Copysign(0, -1)} {
		neg := func() []*coflow.Coflow {
			c := coflow.New(0, "neg", 0, nil)
			c.Flows = []*coflow.Flow{{Src: 0, Dst: 1, Size: size}}
			return []*coflow.Coflow{c}
		}
		for _, release := range []bool{false, true} {
			if _, err := newReleaseSim(t, ports, coflow.NewVarys(), release).Run(neg()); err == nil {
				t.Errorf("size %g, release %v: Run accepted it", size, release)
			}
			ss, err := newReleaseSim(t, ports, coflow.NewVarys(), release).Session()
			if err != nil {
				t.Fatal(err)
			}
			if err := ss.Admit(neg()[0]); err == nil {
				t.Errorf("size %g, release %v: Admit accepted it", size, release)
			}
		}
	}
}

// TestImageRefusals: what cannot be imaged or loaded says so, typed.
func TestImageRefusals(t *testing.T) {
	const ports = 4
	plain, err := newReleaseSim(t, ports, coflow.NewVarys(), false).Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.AppendImage(nil); err == nil {
		t.Error("a session that does not release was imaged")
	}
	if _, err := newReleaseSim(t, ports, coflow.NewVarys(), false).RestoreSession(nil); err == nil || errors.Is(err, ErrImage) {
		t.Errorf("restore into a non-releasing simulator: %v; want a configuration error", err)
	}

	ss, err := newReleaseSim(t, ports, coflow.NewVarys(), true).Session()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range releaseStream(3, ports, 12) {
		if err := ss.Admit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Advance(8); err != nil {
		t.Fatal(err)
	}
	good, err := ss.AppendImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	load := func(b []byte, ports int) error {
		_, err := newReleaseSim(t, ports, coflow.NewVarys(), true).RestoreSession(b)
		return err
	}
	if err := load(good, ports); err != nil {
		t.Fatalf("intact image: %v", err)
	}
	if err := load(good, ports-2); !errors.Is(err, ErrImage) {
		t.Errorf("image of a larger fabric: %v, want ErrImage", err)
	}
	if err := load(append(slices.Clone(good), 0), ports); !errors.Is(err, ErrImage) {
		t.Errorf("trailing byte: %v, want ErrImage", err)
	}
	// The first resident's active slot (past the header, tombstones,
	// resident and active counts and its rank) names a place in the active
	// list; one past its end is refused.
	be := binary.BigEndian
	off := 4 * 8
	off += 8 + int(be.Uint64(good[off:]))*imageTombBytes
	if be.Uint64(good[off:]) == 0 {
		t.Fatal("no resident coflow to check")
	}
	nactive := be.Uint64(good[off+8:])
	off += 2*8 + 8
	forged := slices.Clone(good)
	be.PutUint64(forged[off:], nactive+1)
	if err := load(forged, ports); !errors.Is(err, ErrImage) {
		t.Errorf("active slot %d of %d: %v, want ErrImage", nactive+1, nactive, err)
	}
	// Every truncation fails typed, and a forged count (any word raised to
	// 2⁶²) never sizes an allocation: it is refused against the bytes left.
	for cut := 0; cut < len(good); cut++ {
		if err := load(good[:cut], ports); !errors.Is(err, ErrImage) {
			t.Fatalf("cut at %d of %d: %v, want ErrImage", cut, len(good), err)
		}
	}
	for off := 0; off+8 <= len(good); off += 8 {
		forged := slices.Clone(good)
		forged[off] |= 0x40
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = load(forged, ports)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("word at %d forged: loading a %d-byte image allocated %d bytes", off, len(forged), grew)
		}
	}
}

// idleSched grants no flow a rate: the livelock MaxEpochs is there to catch.
type idleSched struct{}

func (idleSched) Name() string { return "idle" }
func (idleSched) Allocate(_ float64, active []*coflow.Coflow, _, _ []float64) {
	for _, c := range active {
		for _, f := range c.Flows {
			f.Rate = 0
		}
	}
}

// TestMaxEpochsBoundsOneCall: MaxEpochs is a budget per Advance or Finish,
// not per session. A stream that spends ten budgets a few iterations at a
// time is served — by both loops, and through an image, which carries the
// spent count — while a single call that needs more than the budget fails.
func TestMaxEpochsBoundsOneCall(t *testing.T) {
	const ports, budget, jobs = 4, 64, 400
	job := func(i int) *coflow.Coflow {
		return coflow.New(i, "job", float64(i), []coflow.Flow{{Src: i % ports, Dst: (i + 1) % ports, Size: 50 * releaseScale}})
	}
	for _, mode := range []struct {
		name          string
		sched         func() coflow.Scheduler
		sparse, image bool
	}{
		{"dense", coflow.NewVarys, false, false},
		{"sparse", coflow.NewVarys, true, false},
		{"sparse-image", coflow.NewVarys, true, true},
		{"idle", func() coflow.Scheduler { return idleSched{} }, false, false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			newSim := func() *Simulator {
				sim := newReleaseSim(t, ports, mode.sched(), mode.sparse)
				sim.MaxEpochs = budget
				return sim
			}
			ss, err := newSim().Session()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < jobs; i++ {
				if err := ss.Advance(float64(i)); err != nil {
					t.Fatalf("job %d, %d iterations in: %v", i, ss.iter, err)
				}
				if err := ss.Admit(job(i)); err != nil {
					t.Fatal(err)
				}
				if mode.image && i == jobs/2 {
					img, err := ss.AppendImage(nil)
					if err != nil {
						t.Fatal(err)
					}
					if ss, err = newSim().RestoreSession(img); err != nil {
						t.Fatal(err)
					}
				}
			}
			if ss.iter < 10*budget {
				t.Fatalf("the stream took %d iterations, under ten budgets of %d", ss.iter, budget)
			}
			// Arrivals queued ahead of the clock each end an epoch, so one
			// Advance across 2×budget of them cannot fit.
			for i := jobs; i < jobs+2*budget; i++ {
				if err := ss.Admit(job(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := ss.Advance(float64(jobs + 2*budget)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeded %d epochs", budget)) {
				t.Fatalf("one Advance over %d arrivals on a budget of %d: %v", 2*budget, budget, err)
			}
		})
	}
}
