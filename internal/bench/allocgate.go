package bench

import (
	"fmt"
	"testing"
)

// allocGateRuns is how many full-axis Figure 9(a) regenerations the
// allocation gate averages over (after one warm-up run). The count is
// deterministic for a given tree, so a few runs suffice.
const allocGateRuns = 5

// CheckAllocGate measures the allocations of one full-axis Figure 9(a)
// regeneration (seed 1) and returns an error if they exceed threshold by
// more than 10% — the CI guard against allocation regressions on the hot
// path (`benchharness -allocgate`, Makefile alloc-gate). The threshold is
// the checked-in allocs/op of the current implementation, so small
// fluctuation passes but a structural regression (a new closure or
// per-message allocation) fails.
func CheckAllocGate(threshold int64) (int64, error) {
	e, ok := Find("fig9a")
	if !ok {
		panic("bench: fig9a experiment missing")
	}
	opts := Options{Quick: false, Seed: 1}
	allocs := int64(testing.AllocsPerRun(allocGateRuns, func() { e.Run(opts) }))
	limit := threshold + threshold/10
	if allocs > limit {
		return allocs, fmt.Errorf("fig9a allocs/op = %d, above gate %d (threshold %d +10%%)",
			allocs, limit, threshold)
	}
	return allocs, nil
}
