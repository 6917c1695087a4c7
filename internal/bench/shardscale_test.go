package bench

import (
	"fmt"
	"testing"

	"charmgo/internal/sim"
)

// TestShardScaleInvariant runs the halo workload lockstep and parallel at
// shards 1, 2, 4: every mode must produce the same end time,
// event count, and checksum as the flat-equivalent sequential run. The
// checksum folds wire-level arrival times, so this certifies the
// shard-local link bookings and the barrier-applied cross-shard
// reservations reproduce the oracle's network timings exactly.
func TestShardScaleInvariant(t *testing.T) {
	base := ShardScaleRun(ShardScaleConfig{Nodes: 64, Steps: 6, Shards: 1})
	if base.Checksum == 0 || base.Fired == 0 {
		t.Fatalf("degenerate base run: %v", base)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, parallel := range []bool{false, true} {
			r := ShardScaleRun(ShardScaleConfig{Nodes: 64, Steps: 6, Shards: shards, Parallel: parallel})
			if r.Checksum != base.Checksum || r.Fired != base.Fired || r.End != base.End {
				t.Errorf("shards=%d parallel=%v diverged:\n%v\nvs\n%v", shards, parallel, r, base)
			}
		}
	}
}

// TestShardScaleMillion pushes the halo workload to a million simulated
// ranks (35³ = 42,875 XE6 nodes × 24) on the real network model: the
// parallel-window kernel must complete and match the lockstep oracle
// bit-for-bit, arrival timings included. Short mode keeps the shape but
// shrinks the box.
func TestShardScaleMillion(t *testing.T) {
	nodes, steps := 42_875, 3
	if testing.Short() {
		nodes, steps = 1728, 2
	}
	par := ShardScaleRun(ShardScaleConfig{Nodes: nodes, Steps: steps, Shards: 4, Parallel: true})
	if !testing.Short() && par.Ranks < 1_000_000 {
		t.Fatalf("only %d ranks simulated, want >= 1000000", par.Ranks)
	}
	lock := ShardScaleRun(ShardScaleConfig{Nodes: nodes, Steps: steps, Shards: 4})
	if par.Checksum != lock.Checksum || par.Fired != lock.Fired || par.End != lock.End {
		t.Fatalf("parallel diverged from lockstep oracle at %d ranks:\n%v\nvs\n%v",
			par.Ranks, par, lock)
	}
	t.Logf("%v", par)
}

// TestShardScalePaperScale is the tentpole's scale gate: a fig13-shaped
// run at more than 100K simulated ranks (4,500 XE6 nodes × 24) completes
// on the parallel-window kernel and matches the lockstep oracle.
func TestShardScalePaperScale(t *testing.T) {
	nodes, steps := 4500, 4
	if testing.Short() {
		nodes, steps = 1280, 2
	}
	par := ShardScaleRun(ShardScaleConfig{Nodes: nodes, Steps: steps, Shards: 4, Parallel: true})
	if !testing.Short() && par.Ranks < 100_000 {
		t.Fatalf("only %d ranks simulated, want >= 100000", par.Ranks)
	}
	if par.End != sim.Time(steps-1)*10*sim.Microsecond+par.Lookahead+sim.Microsecond {
		// End is the last halo delivery: (steps-1)·cadence + sendLag.
		t.Logf("note: end time %v (lookahead %v)", par.End, par.Lookahead)
	}
	lock := ShardScaleRun(ShardScaleConfig{Nodes: nodes, Steps: steps, Shards: 4})
	if par.Checksum != lock.Checksum || par.Fired != lock.Fired || par.End != lock.End {
		t.Fatalf("parallel diverged from lockstep oracle:\n%v\nvs\n%v", par, lock)
	}
	t.Logf("%v", par)
}

// BenchmarkShardScale measures wall-clock for a fixed fig13-shaped
// workload as the shard count grows: the parallel-window kernel's scaling
// benchmark (virtual-time results are identical across all cases).
func BenchmarkShardScale(b *testing.B) {
	cfg := ShardScaleConfig{Nodes: 1728, Steps: 4, Parallel: true}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := cfg
			c.Shards = shards
			for b.Loop() {
				ShardScaleRun(c)
			}
		})
	}
}
