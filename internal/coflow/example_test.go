package coflow_test

import (
	"fmt"

	"ccf/internal/coflow"
)

// A coflow's bottleneck Γ is the largest per-port byte load; under
// exclusive MADD allocation its minimum CCT is Γ divided by the port
// bandwidth — the quantity SEBF orders by.
func ExampleCoflow_Bottleneck() {
	c := coflow.New(0, "shuffle", 0, []coflow.Flow{
		{ID: 0, Src: 0, Dst: 1, Size: 8},
		{ID: 1, Src: 0, Dst: 2, Size: 4},
		{ID: 2, Src: 2, Dst: 1, Size: 2},
	})
	fmt.Printf("width %d, total %g bytes, bottleneck %g bytes\n",
		c.Width(), c.TotalBytes(), c.Bottleneck(3))
	// Output:
	// width 3, total 14 bytes, bottleneck 12 bytes
}
