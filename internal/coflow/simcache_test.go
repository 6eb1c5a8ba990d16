package coflow

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFlowIsPointerFree: a Flow holds no pointers, so a coflow's flow block
// is allocated noscan and the GC never walks it. A field of a pointer-bearing
// kind, at any depth, would quietly make every flow block scanned again.
func TestFlowIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: Flow must hold no pointers", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Flow", reflect.TypeOf(Flow{}))
}

// TestBeginSimAllocations pins the cache sizing of BeginSim: the live list
// is sized to the coflow's flows and the port counts and sets share one
// buffer, so the first BeginSim makes at most two allocations, a repeated
// one none, and a RefreshSim/Reactivate cycle none.
func TestBeginSimAllocations(t *testing.T) {
	const ports, width, runs = 64, 700, 10
	rng := rand.New(rand.NewSource(3))
	flows := make([]Flow, width)
	for i := range flows {
		src := rng.Intn(ports)
		flows[i] = singleFlow(i, src, (src+1+rng.Intn(ports-1))%ports, float64(1+rng.Intn(1000)))
	}
	// AllocsPerRun makes one warm-up call before the runs it counts, so
	// every call gets a fresh coflow.
	fresh := make([]*Coflow, runs+1)
	for i := range fresh {
		fresh[i] = New(i, "w", 0, flows)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { fresh[next].BeginSim(ports); next++ }); n > 2 {
		t.Errorf("first BeginSim of %d flows over %d ports: %v allocs, want ≤ 2", width, ports, n)
	}

	c := fresh[0]
	if n := testing.AllocsPerRun(runs, func() { c.BeginSim(ports) }); n != 0 {
		t.Errorf("repeated BeginSim: %v allocs, want 0", n)
	}
	cycle := func() {
		for _, f := range c.Flows[:width/2] {
			f.Done = true
		}
		c.RefreshSim()
		for _, f := range c.Flows[:width/2] {
			f.Done = false
			c.Reactivate(f)
		}
	}
	if n := testing.AllocsPerRun(runs, cycle); n != 0 {
		t.Errorf("RefreshSim/Reactivate cycle: %v allocs, want 0", n)
	}
	if got := len(c.LiveFlows()); got != width {
		t.Errorf("after the cycles %d flows are live, want %d", got, width)
	}
}
