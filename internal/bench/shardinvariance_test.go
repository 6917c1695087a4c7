package bench

import (
	"fmt"
	"testing"

	"charmgo/internal/fault"
	"charmgo/internal/sim"
)

// This file is the runtime half of the sharded-kernel contract: the full
// machine stack — converse scheduler, uGNI/MPI machine layers, the
// shard-partitioned network model — running on conservative windows
// (Options.Shards > 1) must render these workloads exactly as the flat
// engine does: experiment tables, probed kernel statistics, and faulted
// runs (DESIGN.md §2.3–2.4). Cross-shard transfers book through the
// deferred-reservation path and apply at the window barrier. Windowed
// bit-identity is a checked property of these workloads, not a theorem:
// contended cross-shard links may fill gaps in a different order
// (DESIGN.md §2.4), so a diff here starts with the link booking order.

// windowedShards are the shard counts the proofs cover. Each proof comes
// in two halves: the TestWindowed* half compares flat with windowed at
// shards 2 (windows change nothing), and the shard-count half compares
// windowed at shards 2 with shards 4 (the shard count changes nothing).
// Together they pin both counts to the flat oracle.
var windowedShards = []int{2, 4}

// shardedIDs are the experiments the proofs render: each builds Charm
// machines (fig4 uses only the pure stacks, which always run flat).
var shardedIDs = []string{"fig8b", "fig9a", "fig13"}

// kernelName labels a shard count in failure diffs.
func kernelName(shards int) string {
	if shards <= 1 {
		return "flat"
	}
	return fmt.Sprintf("windowed shards=%d", shards)
}

// checkGoldens renders fig8b/fig9a/fig13 at shard counts a and b and
// requires byte-identical tables.
func checkGoldens(t *testing.T, a, b int) {
	t.Helper()
	for _, id := range shardedIDs {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("experiment %q not found", id)
		}
		base := RenderTables(e.Run(Options{Quick: true, Shards: a}))
		if base == "" {
			t.Fatalf("%s rendered empty on the %s kernel", id, kernelName(a))
		}
		if got := RenderTables(e.Run(Options{Quick: true, Shards: b})); got != base {
			t.Errorf("%s differs:\n--- %s\n%s--- %s\n%s", id, kernelName(a), base, kernelName(b), got)
		}
	}
}

// TestWindowedGoldens renders fig8b/fig9a/fig13 flat and on a windowed
// kernel at shards 2 and requires byte-identical output: the machine
// stack's SMSG, RDMA, rendezvous, and credit paths must survive deferred
// cross-shard booking.
func TestWindowedGoldens(t *testing.T) { checkGoldens(t, 1, 2) }

// TestShardCountInvarianceGoldens renders fig8b/fig9a/fig13 on windowed
// kernels at shards 2 and 4 and requires byte-identical output: cutting
// the torus finer moves more traffic onto the deferred path but may not
// change a result.
func TestShardCountInvarianceGoldens(t *testing.T) { checkGoldens(t, 2, 4) }

// checkProbe runs the probed AMPI workload at shard counts a and b: the
// full kernel-statistics stream — event counts, peak pending, booking
// totals — must match, so windows may not even reorder which bookings a
// probe observes.
func checkProbe(t *testing.T, a, b int) {
	t.Helper()
	base := KernelProbeRun(Options{Shards: a})
	if got := KernelProbeRun(Options{Shards: b}); got != base {
		t.Errorf("kernel probe run differs:\n--- %s\n%s--- %s\n%s", kernelName(a), base, kernelName(b), got)
	}
}

// TestWindowedProbe compares the probe stream flat and windowed at
// shards 2.
func TestWindowedProbe(t *testing.T) { checkProbe(t, 1, 2) }

// TestShardCountInvarianceProbe compares the probe stream windowed at
// shards 2 and 4.
func TestShardCountInvarianceProbe(t *testing.T) { checkProbe(t, 2, 4) }

// checkFaulted draws 50 seeded random fault schedules and requires the
// faulted workload's canonical rendering (final time, layer counters,
// probe fault counts) to be byte-identical at shard counts a and b: the
// injector's events must land on the owning shard, and fault injection
// (including FlapLink's deferred-path bookings) must not perturb the
// window protocol.
func checkFaulted(t *testing.T, a, b int) {
	t.Helper()
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	cfg := fault.Random{
		PEs: faultPEs, Links: 8, Horizon: faultHorizon, Ops: 6,
		MaxWindow: faultHorizon / 3,
	}
	var stressed int
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		s := fault.RandomSchedule(seed, cfg)
		base, _ := runFaultWorkload(Options{Shards: a}, nil, nil, s)
		if base.faults != ([sim.NumFaultKinds]uint64{}) {
			stressed++
		}
		got, _ := runFaultWorkload(Options{Shards: b}, nil, nil, s)
		if got.render != base.render {
			t.Fatalf("seed %d faulted render differs:\n--- %s\n%s--- %s\n%s\nschedule:\n%s",
				seed, kernelName(a), base.render, kernelName(b), got.render, s)
		}
	}
	if stressed == 0 {
		t.Fatal("no random schedule produced a fault observation; the invariance test is vacuous")
	}
	t.Logf("%d/%d schedules exercised fault paths identically on the %s and %s kernels",
		stressed, seeds, kernelName(a), kernelName(b))
}

// TestWindowedFaultedInvariance compares the faulted renders flat and
// windowed at shards 2.
func TestWindowedFaultedInvariance(t *testing.T) { checkFaulted(t, 1, 2) }

// TestFaultedShardInvariance compares the faulted renders windowed at
// shards 2 and 4.
func TestFaultedShardInvariance(t *testing.T) { checkFaulted(t, 2, 4) }

// TestShardMatrixDeterminism is the shard-matrix gate (`make
// shard-matrix`, CI step "Shard matrix"): the double-run determinism
// harness on the flat engine and on windowed kernels at shards 2 and 4.
// The sharded experiment slice keeps the -race matrix affordable; the
// full sweep runs flat in TestExperimentsDeterministic.
func TestShardMatrixDeterminism(t *testing.T) {
	for _, shards := range append([]int{1}, windowedShards...) {
		for _, id := range shardedIDs {
			e, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %q not found", id)
			}
			first, second := DoubleRun(e, Options{Quick: true, Seed: 1, Shards: shards})
			if first != second {
				t.Errorf("%s nondeterministic at shards=%d:\n--- first\n%s--- second\n%s",
					id, shards, first, second)
			}
		}
	}
}
