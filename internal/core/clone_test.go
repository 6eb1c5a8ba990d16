package core

import (
	"reflect"
	"testing"

	"ccf/internal/coflow"
	"ccf/internal/netsim"
)

// TestCloneCoflowsKeepsWeight: a clone keeps every field a run reads, the
// weight included, and shares no flow with its original, so running the
// clone gives the original's report, WeightedAvgCCT included.
func TestCloneCoflowsKeepsWeight(t *testing.T) {
	heavy := coflow.New(0, "heavy", 0, []coflow.Flow{{ID: 0, Src: 0, Dst: 1, Size: 300}, {ID: 1, Src: 2, Dst: 1, Size: 100}})
	heavy.Weight = 3
	light := coflow.New(1, "light", 0.5, []coflow.Flow{{ID: 0, Src: 0, Dst: 2, Size: 50}})
	orig := []*coflow.Coflow{heavy, light}
	clone := cloneCoflows(orig)
	if clone[0].Weight != 3 || clone[1].Weight != 0 {
		t.Fatalf("clone weights %v, %v; want 3, 0", clone[0].Weight, clone[1].Weight)
	}
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
	if want.WeightedAvgCCT == want.AvgCCT {
		t.Fatalf("fixture: WeightedAvgCCT %v equals AvgCCT, so the weight is not exercised", want.WeightedAvgCCT)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clone's report %+v, want the original's %+v", *got, *want)
	}
}
