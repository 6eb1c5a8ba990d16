//go:build race

package tpch

// The race detector instruments allocations, so allocation budgets are
// meaningless under -race and are skipped.
const raceEnabled = true
