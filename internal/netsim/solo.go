package netsim

import "ccf/internal/coflow"

// RunAlone runs the coflow with the n×n volume matrix vol by itself, from
// t = 0, on a uniform fabric of n ports at bw bytes/sec (0 = the default)
// under sched, and returns its completion time and the bytes moved. This is
// how every one-shot caller times a shuffle. A matrix with no remote bytes
// costs nothing and is not simulated. probe may be nil.
func RunAlone(name string, n int, vol []int64, bw float64, sched coflow.Scheduler, probe Probe) (cct, bytes float64, err error) {
	cf, err := coflow.FromVolumes(0, name, 0, n, vol)
	if err != nil {
		return 0, 0, err
	}
	fabric, err := NewFabric(n, bw)
	if err != nil || len(cf.Flows) == 0 {
		return 0, 0, err
	}
	sim := NewSimulator(fabric, sched)
	sim.Probe = probe
	rep, err := sim.Run([]*coflow.Coflow{cf})
	if err != nil {
		return 0, 0, err
	}
	return rep.MaxCCT, rep.TotalBytes, nil
}
