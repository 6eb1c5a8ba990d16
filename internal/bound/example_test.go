package bound_test

import (
	"fmt"

	"ccf/internal/bound"
	"ccf/internal/partition"
	"ccf/internal/placement"
)

// Bracketing a heuristic solution between its feasible value and a
// certified lower bound on the motivating instance: CCF's T = 3 meets the
// bound, proving the heuristic optimal here without enumerating anything.
func ExampleGap() {
	m := partition.MustChunkMatrix(3, 4)
	m.Set(0, 0, 3)
	m.Set(2, 0, 1)
	m.Set(0, 1, 3)
	m.Set(1, 1, 6)
	m.Set(0, 2, 1)
	m.Set(1, 2, 2)
	m.Set(1, 3, 1)
	m.Set(2, 3, 2)

	ev, err := placement.Evaluate(placement.CCF{}, m, nil, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	lb, ratio, err := bound.Gap(m, nil, ev.BottleneckBytes)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("heuristic T = %d, lower bound = %d, gap <= %.2fx\n", ev.BottleneckBytes, lb, ratio)
	// Output:
	// heuristic T = 3, lower bound = 3, gap <= 1.00x
}
