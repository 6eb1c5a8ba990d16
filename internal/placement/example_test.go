package placement_test

import (
	"fmt"

	"ccf/internal/partition"
	"ccf/internal/placement"
)

// The paper's motivating instance (Figure 1): three nodes, four join keys.
// CCF recovers the co-optimal plan SP1 — one more tuple of traffic than the
// traffic-minimal plan, but a bottleneck of 3 instead of 4.
func ExampleCCF() {
	m := partition.MustChunkMatrix(3, 4)
	m.Set(0, 0, 3) // key 0: 3 tuples on node 0 ...
	m.Set(2, 0, 1)
	m.Set(0, 1, 3)
	m.Set(1, 1, 6)
	m.Set(0, 2, 1)
	m.Set(1, 2, 2)
	m.Set(1, 3, 1)
	m.Set(2, 3, 2)

	for _, s := range []placement.Scheduler{placement.Mini{}, placement.CCF{}} {
		ev, err := placement.Evaluate(s, m, nil, nil)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-4s moves %d tuples, bottleneck T = %d\n", s.Name(), ev.TrafficBytes, ev.BottleneckBytes)
	}
	// Output:
	// Mini moves 6 tuples, bottleneck T = 4
	// CCF  moves 7 tuples, bottleneck T = 3
}
