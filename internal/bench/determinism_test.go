package bench

import (
	"strings"
	"testing"
)

// TestExperimentsDeterministic is the double-run determinism harness: every
// experiment must render bit-identically on two runs in the same process.
// Map iteration order differs between the runs (Go randomizes it per
// `range`), so any order leak simlint's static pass missed shows up here.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("double experiment sweep is not short")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			first, second := DoubleRun(e, Options{Quick: true, Seed: 1})
			if first != second {
				t.Fatalf("experiment %s is nondeterministic:\n--- first run ---\n%s\n--- second run ---\n%s",
					e.ID, first, second)
			}
			if strings.TrimSpace(first) == "" {
				t.Fatalf("experiment %s rendered nothing", e.ID)
			}
		})
	}
}

// TestKernelProbeDeterministic double-runs the probed AMPI workload: the
// kernel-stat table (event counts, resource busy times) and the machine
// layer counters must be bit-identical across runs.
func TestKernelProbeDeterministic(t *testing.T) {
	first := KernelProbeRun()
	second := KernelProbeRun()
	if first != second {
		t.Fatalf("kernel-stat tables differ across runs:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}
	for _, want := range []string{"end=", "simulation kernel", "layer "} {
		if !strings.Contains(first, want) {
			t.Fatalf("probe run output missing %q:\n%s", want, first)
		}
	}
}
