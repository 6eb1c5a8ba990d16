// Package topology generalises the non-blocking switch to real data-center
// fabrics, realising the paper's link-set constraint in full:
//
//	Σ_{flows f crossing link l} b_f ≤ R_l        ∀ l  (constraint 1.5)
//
// where each flow f_ij owns a link set L_ij. The base model (every L_ij =
// {egress_i, ingress_j}, with R per port as in the paper's footnote 4) is
// NewNonBlocking; NewLeafSpine builds the two-tier topology the RAPIER
// discussion targets — hosts under ToR switches whose uplinks to a
// non-blocking spine may be oversubscribed, so cross-rack traffic contends on
// shared rack links.
//
// The package is the home of the capacity-aware cost and placer: the exact
// single-coflow CCT under MADD over links (SingleCoflowCCT, PlacementCCT) and
// RackAwareCCF — the paper's Algorithm 1 with every term divided by its
// link's capacity and extended with rack-uplink/downlink terms. It lays the
// topology out as a placement.Links table and runs placement.PlaceOnLinks,
// the kernel placement.CCF runs, in O(p·(n + racks + log p)). On a
// NewNonBlocking topology it is Algorithm 1 under per-port capacities, and
// on equal capacities it places exactly as placement.CCF.
package topology

import (
	"fmt"
	"math"
)

// LinkKind labels the role of a link in the fabric.
type LinkKind int

// Link kinds.
const (
	HostUp LinkKind = iota
	HostDown
	RackUp
	RackDown
)

// Link is one directed capacity constraint.
type Link struct {
	ID   int
	Kind LinkKind
	// Index is the host (HostUp/HostDown) or rack (RackUp/RackDown) index.
	Index int
	Cap   float64 // bytes/sec
}

// Topology is a set of hosts, links, and per-pair paths.
type Topology struct {
	N     int
	Links []Link
	// rackOf[i] is host i's rack (all zero for the non-blocking fabric).
	rackOf []int
	racks  int
	// hostUp[i], hostDown[i], rackUp[r], rackDown[r] are link IDs.
	hostUp, hostDown, rackUp, rackDown []int
}

// NewNonBlocking builds the paper's base model as a degenerate topology: one
// rack with an infinitely fast core, so only host links constrain. Host i's
// up and down links carry egress[i] and ingress[i] bytes/sec — footnote 4's
// per-link R_l; equal capacities are the paper's non-blocking switch. The
// slices are validated as netsim.NewHeterogeneousFabric validates them.
func NewNonBlocking(egress, ingress []float64) (*Topology, error) {
	if len(egress) == 0 || len(egress) != len(ingress) {
		return nil, fmt.Errorf("topology: capacity slices sized %d/%d; want equal and non-empty",
			len(egress), len(ingress))
	}
	for i := range egress {
		if badCap(egress[i]) || badCap(ingress[i]) {
			return nil, fmt.Errorf("topology: host %d capacity is not positive and finite (eg=%g in=%g)",
				i, egress[i], ingress[i])
		}
	}
	return build(1, len(egress), egress, ingress, math.Inf(1)), nil
}

// NewLeafSpine builds racks × hostsPerRack hosts; every host has hostBw
// up/down links to its ToR, and every ToR has uplinkBw up/down links to a
// non-blocking spine. uplinkBw < hostsPerRack × hostBw means the core is
// oversubscribed (the interesting regime).
func NewLeafSpine(racks, hostsPerRack int, hostBw, uplinkBw float64) (*Topology, error) {
	if racks <= 0 || hostsPerRack <= 0 {
		return nil, fmt.Errorf("topology: need positive racks (%d) and hosts per rack (%d)", racks, hostsPerRack)
	}
	if badCap(hostBw) || badCap(uplinkBw) {
		return nil, fmt.Errorf("topology: need positive finite bandwidths (host %g, uplink %g)", hostBw, uplinkBw)
	}
	host := make([]float64, racks*hostsPerRack)
	for i := range host {
		host[i] = hostBw
	}
	return build(racks, hostsPerRack, host, host, uplinkBw), nil
}

// badCap reports a capacity that is not a positive finite number.
func badCap(c float64) bool { return !(c > 0) || math.IsInf(c, 1) }

// build lays out the links: host i's up and down links (capacities upCap[i]
// and downCap[i]), then every rack's uplink and downlink.
func build(racks, perRack int, upCap, downCap []float64, uplinkBw float64) *Topology {
	n := racks * perRack
	t := &Topology{
		N: n, racks: racks,
		rackOf:   make([]int, n),
		hostUp:   make([]int, n),
		hostDown: make([]int, n),
		rackUp:   make([]int, racks),
		rackDown: make([]int, racks),
	}
	add := func(kind LinkKind, idx int, cap_ float64) int {
		id := len(t.Links)
		t.Links = append(t.Links, Link{ID: id, Kind: kind, Index: idx, Cap: cap_})
		return id
	}
	for i := 0; i < n; i++ {
		t.rackOf[i] = i / perRack
		t.hostUp[i] = add(HostUp, i, upCap[i])
		t.hostDown[i] = add(HostDown, i, downCap[i])
	}
	for r := 0; r < racks; r++ {
		t.rackUp[r] = add(RackUp, r, uplinkBw)
		t.rackDown[r] = add(RackDown, r, uplinkBw)
	}
	return t
}

// Racks returns the number of racks.
func (t *Topology) Racks() int { return t.racks }

// RackOf returns the rack of host i.
func (t *Topology) RackOf(i int) int { return t.rackOf[i] }

// Path returns L_ij: the link IDs flow i→j traverses. Intra-rack flows use
// only host links; cross-rack flows add the two rack links.
func (t *Topology) Path(i, j int) []int {
	if t.rackOf[i] == t.rackOf[j] {
		return []int{t.hostUp[i], t.hostDown[j]}
	}
	return []int{t.hostUp[i], t.rackUp[t.rackOf[i]], t.rackDown[t.rackOf[j]], t.hostDown[j]}
}

// Oversubscription returns the rack oversubscription ratio
// (hostsPerRack × hostBw / uplinkBw); 0 for a single-rack fabric.
func (t *Topology) Oversubscription() float64 {
	if t.racks <= 1 {
		return 0
	}
	perRack := t.N / t.racks
	return float64(perRack) * t.Links[t.hostUp[0]].Cap / t.Links[t.rackUp[0]].Cap
}

// LinkLoads accumulates the bytes crossing every link for an n×n volume
// matrix (row-major, diagonal ignored).
func (t *Topology) LinkLoads(vol []int64) ([]int64, error) {
	if len(vol) != t.N*t.N {
		return nil, fmt.Errorf("topology: volume matrix has %d entries, want %d", len(vol), t.N*t.N)
	}
	loads := make([]int64, len(t.Links))
	for i := 0; i < t.N; i++ {
		for j := 0; j < t.N; j++ {
			v := vol[i*t.N+j]
			if i == j || v <= 0 {
				continue
			}
			for _, l := range t.Path(i, j) {
				loads[l] += v
			}
		}
	}
	return loads, nil
}

// SingleCoflowCCT is the closed-form CCT of one coflow under MADD over
// links: every flow gets rate proportional to its volume, so completion is
// bound by the most loaded link relative to its capacity.
func (t *Topology) SingleCoflowCCT(vol []int64) (float64, error) {
	loads, err := t.LinkLoads(vol)
	if err != nil {
		return 0, err
	}
	var cct float64
	for id, load := range loads {
		if load == 0 {
			continue
		}
		if x := float64(load) / t.Links[id].Cap; x > cct {
			cct = x
		}
	}
	return cct, nil
}
