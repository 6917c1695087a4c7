package bench

import (
	"testing"

	"charmgo"
	"charmgo/internal/fault"
	"charmgo/internal/mem"
	"charmgo/internal/resilience"
	"charmgo/internal/sim"
)

// TestPoolDescriptorsDrain is the pool-leak check for the descriptor free
// lists (DESIGN.md §2.2): after an experiment drains, every pool-acquired
// record — SMSG control payloads, RDMA post descriptors, converse
// envelopes, CQ delivery nodes — must have been released, so the global
// live-descriptor count returns exactly to its pre-run value. It runs under
// the same double-run discipline as the determinism harness: a record
// leaked only on the second pass (say, via state carried across runs)
// would slip past a single-run check.
func TestPoolDescriptorsDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("double experiment sweep is not short")
	}
	if live := mem.LiveDescriptors(); live != 0 {
		t.Fatalf("%d descriptors live before any experiment", live)
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			for pass := 1; pass <= 2; pass++ {
				e.Run(Options{Quick: true, Seed: 1})
				if live := mem.LiveDescriptors(); live != 0 {
					t.Fatalf("experiment %s pass %d leaked %d pool descriptors", e.ID, pass, live)
				}
			}
		})
	}
}

// TestKernelProbeDrains applies the same leak check to the probed AMPI
// workload, which exercises the rank-handoff and allreduce paths the
// figure experiments do not.
func TestKernelProbeDrains(t *testing.T) {
	KernelProbeRun()
	if live := mem.LiveDescriptors(); live != 0 {
		t.Fatalf("kernel probe run leaked %d pool descriptors", live)
	}
}

// TestFaultedRunsDrainPools extends the pool-leak gate to faulted runs
// (ISSUE 5): a workload driven through the recovery paths — pending-send
// queues, retransmits, CQ recovery — must still return every pool-acquired
// record and every mailbox credit, on both passes of the double-run
// discipline.
func TestFaultedRunsDrainPools(t *testing.T) {
	live := mem.LiveDescriptors()
	sched := fault.RandomSchedule(99, fault.Random{
		PEs: faultPEs, Links: 8, Horizon: faultHorizon, Ops: 10,
	})
	for pass := 1; pass <= 2; pass++ {
		r, viol := runFaultWorkload(nil, nil, sched)
		for _, v := range viol {
			t.Error(v)
		}
		if got := mem.LiveDescriptors(); got != live {
			t.Fatalf("pass %d leaked %d pool descriptors", pass, got-live)
		}
		if r.layer["smsg_credits_in_flight"] != 0 {
			t.Fatalf("pass %d left %d credits in flight", pass, r.layer["smsg_credits_in_flight"])
		}
	}
}

// TestFailoverPathsDrainPools extends the pool-leak gate to the
// node-failure recovery paths (ISSUE 10): a kill mid-run routes every
// in-flight record through DeadRoute redirects, dead-PE drops, and
// OnNodeDeath pending-queue reaping — and a kill mid-*rendezvous* leaves
// GET flights whose completions land at a dead PE — so every scenario of
// the failover matrix must return each pool-acquired record, on both
// passes of the double-run discipline.
func TestFailoverPathsDrainPools(t *testing.T) {
	live := mem.LiveDescriptors()
	kill := func(node int, at sim.Time) *fault.Schedule {
		return &fault.Schedule{Ops: []fault.Op{{At: at, Kind: fault.NodeKill, Src: node}}}
	}
	scenarios := []struct {
		name string
		run  func()
	}{
		{"team-kill-ugni", func() {
			resilience.RunTeam(resilience.TeamConfig{Teams: 4, Msgs: 16, Faults: kill(5, 30*sim.Microsecond)})
		}},
		{"team-kill-mpi", func() {
			resilience.RunTeam(resilience.TeamConfig{Teams: 4, Msgs: 16,
				Layer: charmgo.LayerMPI, Faults: kill(6, 30*sim.Microsecond)})
		}},
		{"team-kill-mid-rendezvous", func() {
			resilience.RunTeam(resilience.TeamConfig{Teams: 2, Msgs: 8, Size: 256 << 10,
				Faults: kill(3, 20*sim.Microsecond)})
		}},
		{"team-partition", func() {
			resilience.RunTeam(resilience.TeamConfig{Teams: 4, Msgs: 16, Faults: &fault.Schedule{
				Ops: []fault.Op{{At: 20 * sim.Microsecond, Kind: fault.Partition,
					Dur: 100 * sim.Microsecond, Arg: 1}},
			}})
		}},
		{"checkpoint-rollback", func() {
			resilience.RunCheckpoint(resilience.CheckpointConfig{Nodes: 8, Phases: 3,
				HopsPerPhase: 24, Kills: kill(3, 5*sim.Microsecond).Ops})
		}},
	}
	// Dying with a non-empty pending-send queue is the reap path proper:
	// a zero-slot credit squeeze on the victim's outgoing connections
	// forces its mirrored sends to queue host-side, then the kill makes
	// OnNodeDeath retire them. A vacuity guard demands the queues were
	// actually non-empty (dead_reaped > 0) so a deleted release in the
	// reap path cannot pass this test unexercised.
	for _, layer := range []struct {
		name string
		kind charmgo.LayerKind
	}{{"team-reap-ugni", charmgo.LayerUGNI}, {"team-reap-mpi", charmgo.LayerMPI}} {
		layer := layer
		scenarios = append(scenarios, struct {
			name string
			run  func()
		}{layer.name, func() {
			squeeze := &fault.Schedule{Ops: []fault.Op{
				{At: 5 * sim.Microsecond, Dur: 200 * sim.Microsecond, Kind: fault.CreditSqueeze, Src: 5, Dst: 2},
				{At: 5 * sim.Microsecond, Dur: 200 * sim.Microsecond, Kind: fault.CreditSqueeze, Src: 5, Dst: 6},
				{At: 30 * sim.Microsecond, Kind: fault.NodeKill, Src: 5},
			}}
			r := resilience.RunTeam(resilience.TeamConfig{Teams: 4, Msgs: 16,
				Layer: layer.kind, Faults: squeeze})
			if r.DeadReaped == 0 {
				t.Errorf("%s: kill reaped no pending sends (reap path unexercised)", layer.name)
			}
		}})
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for pass := 1; pass <= 2; pass++ {
				sc.run()
				if got := mem.LiveDescriptors(); got != live {
					t.Fatalf("pass %d leaked %d pool descriptors", pass, got-live)
				}
			}
		})
	}
}
