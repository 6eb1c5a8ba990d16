package placement

import (
	"math/rand"
	"slices"
	"testing"

	"ccf/internal/partition"
)

// TestEvaluateAgreesWithItsParts checks the decide function against the
// pieces its callers used to assemble themselves, over the hard-regime
// families: the placement is the scheduler's, the loads are ComputeLoads', the
// volumes are FlowVolumes' plus the broadcast, and EvaluateInto on storage
// that is dirty, too small or too large returns what the one-shot returns.
func TestEvaluateAgreesWithItsParts(t *testing.T) {
	var reused []int64
	for _, fam := range hardRegimes() {
		t.Run(fam.name, func(t *testing.T) {
			for seed := int64(0); seed < 100; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m, init := fam.gen(rng)
				n := m.N
				var broadcast []int64
				if rng.Intn(2) == 0 {
					broadcast = make([]int64, n*n)
					for i := range broadcast {
						if i/n != i%n && rng.Intn(3) == 0 {
							broadcast[i] = rng.Int63n(1 << 20)
						}
					}
				}
				for _, s := range []Scheduler{CCF{}, Hash{}, Mini{}, LPT{}} {
					ev, err := Evaluate(s, m, init, broadcast)
					if err != nil {
						t.Fatalf("seed %d, %s: %v", seed, s.Name(), err)
					}
					pl, err := s.Place(m, init)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(ev.Placement.Dest, pl.Dest) {
						t.Fatalf("seed %d, %s: placement %v, Place gives %v", seed, s.Name(), ev.Placement.Dest, pl.Dest)
					}
					loads, err := partition.ComputeLoads(m, pl, init)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(ev.Loads.Egress, loads.Egress) || !slices.Equal(ev.Loads.Ingress, loads.Ingress) ||
						ev.TrafficBytes != loads.Traffic() || ev.BottleneckBytes != loads.Max() {
						t.Fatalf("seed %d, %s: loads %+v (traffic %d, T %d), ComputeLoads gives %+v",
							seed, s.Name(), ev.Loads, ev.TrafficBytes, ev.BottleneckBytes, loads)
					}
					vol, err := partition.FlowVolumes(m, pl)
					if err != nil {
						t.Fatal(err)
					}
					// Dirty storage of another job's size.
					reused = append(reused[:0], make([]int64, rng.Intn(2*n*n+1))...)
					for i := range reused {
						reused[i] = -1
					}
					var intoPl *partition.Placement
					if intoPl, reused, err = EvaluateInto(reused, s, m, init); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(intoPl.Dest, pl.Dest) || !slices.Equal(reused, vol) {
						t.Fatalf("seed %d, %s: EvaluateInto = (%v, %v), want (%v, %v)", seed, s.Name(), intoPl.Dest, reused, pl.Dest, vol)
					}
					for i, b := range broadcast {
						vol[i] += b
					}
					if !slices.Equal(ev.Volumes, vol) {
						t.Fatalf("seed %d, %s: volumes %v, FlowVolumes + broadcast gives %v", seed, s.Name(), ev.Volumes, vol)
					}
				}
			}
		})
	}
}

func TestEvaluateRejects(t *testing.T) {
	m := partition.MustChunkMatrix(3, 4)
	if _, err := Evaluate(CCF{}, m, nil, make([]int64, 8)); err == nil {
		t.Error("accepted 8 broadcast volumes for 3 nodes")
	}
	short := &partition.Loads{Egress: make([]int64, 2), Ingress: make([]int64, 3)}
	for _, s := range []Scheduler{CCF{}, Hash{}} { // Hash never looks at the loads itself
		if _, err := Evaluate(s, m, short, nil); err == nil {
			t.Errorf("%s: accepted initial loads for 2 ports on 3 nodes", s.Name())
		}
	}
	if _, _, err := EvaluateInto(nil, invalid{}, m, nil); err == nil {
		t.Error("accepted a placement that leaves partitions unassigned")
	}
}

// invalid is a scheduler that assigns nothing.
type invalid struct{}

func (invalid) Name() string { return "invalid" }

func (invalid) Place(m *partition.ChunkMatrix, _ *partition.Loads) (*partition.Placement, error) {
	return partition.NewPlacement(m.P), nil
}
