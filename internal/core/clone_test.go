package core

import (
	"reflect"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

// TestCloneCoflowsSharesNoFlow: a clone keeps every field a run reads and
// shares no flow with its original, so running the clone gives the
// original's report.
func TestCloneCoflowsSharesNoFlow(t *testing.T) {
	heavy := coflow.New(0, "heavy", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 300}, {ID: 1, Src: 2, Dst: 1, Size: 100}})
	light := coflow.New(1, "light", 0.5, []coflow.Flow{{ID: 0, Src: 0, Dst: 2, Size: 50}})
	orig := []*coflow.Coflow{heavy, light}
	clone := cloneCoflows(orig)
	for i, c := range clone {
		for j, f := range c.Flows {
			if f == orig[i].Flows[j] {
				t.Fatalf("coflow %d flow %d shared with the original", i, j)
			}
		}
	}

	fabric, err := netsim.NewFabric(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	want, err := netsim.NewSimulator(fabric, coflow.NewVarys()).Run(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := netsim.NewSimulator(fabric, coflow.NewVarys()).Run(clone)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clone's report %+v, want the original's %+v", *got, *want)
	}
}
