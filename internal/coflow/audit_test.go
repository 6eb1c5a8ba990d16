package coflow

import "testing"

func TestAuditablePriorityOrder(t *testing.T) {
	// Every ordered scheduler exposes its serving order through Auditable;
	// after an Allocate the order must reflect the policy (SEBF: smallest
	// bottleneck first), not the input order.
	big := New(0, "big", 0, []Flow{singleFlow(0, 0, 1, 100)})
	small := New(1, "small", 0, []Flow{singleFlow(0, 0, 1, 10)})
	begun(2, big, small)
	eg, in := capSlices(2, 1)

	s := NewVarys()
	aud, ok := s.(Auditable)
	if !ok {
		t.Fatal("Varys does not implement Auditable")
	}
	s.Allocate(0, []*Coflow{big, small}, eg, in)
	order := aud.PriorityOrder()
	if len(order) != 2 || order[0].ID != small.ID || order[1].ID != big.ID {
		ids := make([]int, len(order))
		for i, c := range order {
			ids[i] = c.ID
		}
		t.Fatalf("Varys priority order = %v, want [1 0] (SEBF)", ids)
	}

	// The other priority-ordered schedulers expose the interface too.
	for _, sc := range []Scheduler{NewFIFO(), NewSCF(), NewNCF(), NewAalo()} {
		if _, ok := sc.(Auditable); !ok {
			t.Errorf("%s does not implement Auditable", sc.Name())
		}
	}
	// The order-free allocators have no priority order to audit.
	for _, sc := range []Scheduler{PerFlowFair{}, SequentialByDest{}} {
		if _, ok := sc.(Auditable); ok {
			t.Errorf("%s unexpectedly implements Auditable", sc.Name())
		}
	}
}
