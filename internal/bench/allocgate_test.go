package bench

import (
	"strings"
	"testing"
)

// TestAllocGateFailsAboveThreshold drives the gate's failure path: fig9a
// allocates far more than one object per regeneration, so a threshold of
// 1 must fail and the error must name the experiment it measured.
func TestAllocGateFailsAboveThreshold(t *testing.T) {
	allocs, err := CheckAllocGate(1)
	if err == nil {
		t.Fatalf("CheckAllocGate(1) passed at %d allocs/op", allocs)
	}
	if !strings.Contains(err.Error(), "fig9a") {
		t.Errorf("gate error does not name fig9a: %v", err)
	}
}
