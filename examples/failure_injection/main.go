// failure_injection: the robustness story (paper §VI's goal of staying
// "highly efficient and robust … in different network configurations").
// A shuffle is placed and launched; mid-transfer one node's ingress link
// degrades to 1/10 bandwidth and later recovers. The example shows
//
//  1. the same coflow under the outage vs a healthy fabric (netsim's
//     CapacityEvent failure injection), and
//
//  2. what placement-time awareness buys: if the degradation is known up
//     front (a persistently slow link), the capacity-aware WeightedCCF
//     places around it while plain CCF piles onto the slow port.
//
//     go run ./examples/failure_injection
package main

import (
	"fmt"
	"log"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
	"ccf/internal/placement"
	"ccf/internal/workload"
)

func main() {
	const n = 24
	w, err := workload.Generate(workload.Config{
		Nodes:          n,
		Zipf:           0.8,
		CustomerTuples: workload.DefaultCustomerTuples / 1000,
		OrderTuples:    workload.DefaultOrderTuples / 1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d nodes, %.2f GB; port bandwidth 128 MB/s\n\n", n, float64(w.TotalBytes())/1e9)

	// --- Part 1: a transient outage hits a running shuffle. -------------
	ev, err := placement.Evaluate(placement.CCF{}, w.Chunks, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fabric, err := netsim.NewFabric(n, 0)
	if err != nil {
		log.Fatal(err)
	}
	runWith := func(events []netsim.CapacityEvent) float64 {
		cf, err := coflow.FromVolumes(0, "shuffle", 0, n, ev.Volumes)
		if err != nil {
			log.Fatal(err)
		}
		sim := netsim.NewSimulator(fabric, coflow.NewVarys())
		sim.Events = events
		rep, err := sim.Run([]*coflow.Coflow{cf})
		if err != nil {
			log.Fatal(err)
		}
		return rep.MaxCCT
	}
	healthy := runWith(nil)
	outage := runWith([]netsim.CapacityEvent{
		{Time: healthy * 0.25, Port: 0, EgressFactor: 1, IngressFactor: 0.1},
		{Time: healthy * 0.75, Port: 0, EgressFactor: 1, IngressFactor: 1},
	})
	fmt.Println("Part 1 — transient failure during the shuffle (node 0 ingress at 10% for half the run):")
	fmt.Printf("  healthy fabric:   CCT %6.2f s\n", healthy)
	fmt.Printf("  with the outage:  CCT %6.2f s (%.2fx slower; flows re-pace via MADD each epoch)\n\n",
		outage, outage/healthy)

	// --- Part 2: a persistent slow link, known at placement time. -------
	eg := make([]float64, n)
	in := make([]float64, n)
	for i := 0; i < n; i++ {
		eg[i], in[i] = netsim.DefaultPortBandwidth, netsim.DefaultPortBandwidth
	}
	in[0] = netsim.DefaultPortBandwidth / 10
	hetero, err := netsim.NewHeterogeneousFabric(eg, in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Part 2 — persistent slow link (node 0 ingress at 10%), placement-time aware vs oblivious:")
	for _, s := range []placement.Scheduler{
		placement.CCF{},
		placement.WeightedCCF{EgressCap: eg, IngressCap: in},
	} {
		ev, err := placement.Evaluate(s, w.Chunks, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		cf, err := coflow.FromVolumes(0, s.Name(), 0, n, ev.Volumes)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := netsim.NewSimulator(hetero, coflow.NewVarys()).Run([]*coflow.Coflow{cf})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-13s CCT %7.2f s\n", s.Name()+":", rep.MaxCCT)
	}
	fmt.Println("\nThe oblivious placer keeps feeding the degraded ingress; the capacity-aware")
	fmt.Println("variant folds per-port R_l into Algorithm 1's objective and routes around it.")
}
