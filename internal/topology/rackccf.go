package topology

// RackAwareCCF: the paper's Algorithm 1 over the topology's link sets. Every
// term of the objective is a link's load divided by that link's capacity —
// host egress and ingress, and rack uplink and downlink:
//
//	T = max( egress_i/R_up_i, ingress_j/R_down_j, up_r/R_up_r, down_r/R_down_r )
//
// The algorithm is placement.PlaceOnLinks; this file only lays the topology
// out as its link table. On a NewNonBlocking topology the rack terms are zero
// and this is Algorithm 1 under per-port capacities.

import (
	"fmt"

	"ccf/internal/partition"
	"ccf/internal/placement"
)

// RackAwareCCF places partitions over a topology, minimising the running
// link-level T. It implements placement.Scheduler.
type RackAwareCCF struct {
	Topo *Topology
}

// Name implements placement.Scheduler.
func (RackAwareCCF) Name() string { return "CCF-rack" }

// Place implements placement.Scheduler.
func (c RackAwareCCF) Place(m *partition.ChunkMatrix, initial *partition.Loads) (*partition.Placement, error) {
	t := c.Topo
	if t == nil {
		return nil, fmt.Errorf("topology: RackAwareCCF needs a topology")
	}
	if t.N != m.N {
		return nil, fmt.Errorf("topology: topology has %d hosts, matrix has %d nodes", t.N, m.N)
	}
	l := &placement.Links{
		Egress: make([]float64, t.N), Ingress: make([]float64, t.N),
		RackOf: t.rackOf,
		Up:     make([]float64, t.racks), Down: make([]float64, t.racks),
	}
	for i := range l.Egress {
		l.Egress[i] = t.Links[t.hostUp[i]].Cap
		l.Ingress[i] = t.Links[t.hostDown[i]].Cap
	}
	for r := range l.Up {
		l.Up[r] = t.Links[t.rackUp[r]].Cap
		l.Down[r] = t.Links[t.rackDown[r]].Cap
	}
	return placement.PlaceOnLinks(m, initial, l)
}

// PlacementCCT is placement.Evaluate costed on this topology: it places m
// with s on top of the initial loads, adds the broadcast volumes (the v⁰ flows
// initial counts; nil for none) and returns the coflow's single-coflow CCT in
// closed form, MADD over links.
func (t *Topology) PlacementCCT(s placement.Scheduler, m *partition.ChunkMatrix, initial *partition.Loads, broadcast []int64) (float64, error) {
	ev, err := placement.Evaluate(s, m, initial, broadcast)
	if err != nil {
		return 0, err
	}
	return t.SingleCoflowCCT(ev.Volumes)
}
