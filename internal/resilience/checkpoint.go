package resilience

import (
	"fmt"
	"strings"

	"charmgo"
	"charmgo/internal/fault"
	"charmgo/internal/sim"
	"charmgo/internal/trace"
)

// CheckpointConfig describes one checkpoint/restart run.
type CheckpointConfig struct {
	// Nodes is the machine size (single-core nodes; >= 2).
	Nodes int
	// Phases is how many quiescence-delimited phases the workload runs.
	Phases int
	// HopsPerPhase is the ring-token length of each phase.
	HopsPerPhase int
	// Size is the token payload size in bytes.
	Size int
	// Layer selects the machine layer (default LayerUGNI).
	Layer charmgo.LayerKind
	// Kills lists fail-stop ops (fault.NodeKill) at absolute virtual
	// times. A kill that lands inside a phase drops that phase's work
	// and triggers a rollback; the replacement node joins the re-run.
	Kills []fault.Op
	// DetectDelay and RestartCost price the recovery: a rollback resumes
	// the kernel clock at fail-time + DetectDelay + RestartCost
	// (defaults 50µs and 200µs).
	DetectDelay, RestartCost sim.Time
	// Probe optionally observes every phase's kernel alongside the
	// strategy's own fault timeline.
	Probe charmgo.Probe
}

// CheckpointResult is the observable outcome of one checkpoint/restart
// run.
type CheckpointResult struct {
	// FinalTime is the virtual completion time of the last phase.
	FinalTime sim.Time
	// HopsApplied counts executed ring hops across all committed
	// phases (re-runs included once; dropped attempts excluded).
	HopsApplied int
	// Checkpoints and Rollbacks count the strategy's recovery actions.
	Checkpoints, Rollbacks int
	// Kills counts fail-stops that actually fired inside a phase.
	Kills int
	// DroppedDead counts messages retired at dead PEs across all
	// failed attempts.
	DroppedDead uint64
}

// Signature digests the result deterministically for double-run
// comparison.
func (r CheckpointResult) Signature() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d hops=%d ck=%d rb=%d kill=%d drop=%d",
		int64(r.FinalTime), r.HopsApplied, r.Checkpoints, r.Rollbacks, r.Kills, r.DroppedDead)
	return b.String()
}

// RunCheckpoint executes the coordinated checkpoint + rollback
// strategy: each phase rings a token around the machine and ends at
// quiescence, where the machine snapshot (kernel clock + verified-empty
// layer tables) is taken and the machine discarded; the next phase
// resumes a fresh machine from the snapshot. A kill mid-phase loses the
// phase — detected as a hop shortfall at quiescence — and recovery
// rolls back: the failed machine is discarded, the snapshot is advanced
// past the detection delay and restart cost, and the phase replays on a
// fresh machine whose replacement node holds the dead rank's place.
// Every machine is closed before return, so pool-leak checks can run
// right after.
func RunCheckpoint(cfg CheckpointConfig) CheckpointResult {
	if cfg.Nodes < 2 {
		panic(fmt.Sprintf("resilience: RunCheckpoint with %d nodes", cfg.Nodes))
	}
	if cfg.Phases <= 0 {
		cfg.Phases = 4
	}
	if cfg.HopsPerPhase <= 0 {
		cfg.HopsPerPhase = 4 * cfg.Nodes
	}
	if cfg.Size <= 0 {
		cfg.Size = 64
	}
	if cfg.DetectDelay <= 0 {
		cfg.DetectDelay = 50 * sim.Microsecond
	}
	if cfg.RestartCost <= 0 {
		cfg.RestartCost = 200 * sim.Microsecond
	}
	tl := &trace.FaultTimeline{}
	probe := noteProbe(tl, cfg.Probe)

	pending := append([]fault.Op(nil), cfg.Kills...)
	var (
		res    CheckpointResult
		ck     *charmgo.Checkpoint
		resume *charmgo.KernelCheckpoint
	)
	for phase := 0; phase < cfg.Phases; phase++ {
	attempt:
		// Kills already in the past (they fired during a previous
		// attempt's window, or land inside the recovery gap) are spent:
		// the replacement node is alive from the resume point on.
		start := sim.Time(0)
		if resume != nil {
			start = resume.Now
		}
		sched := fault.Schedule{}
		for _, o := range pending {
			if o.At >= start {
				sched.Ops = append(sched.Ops, o)
			}
		}
		m := charmgo.NewMachine(charmgo.MachineConfig{
			Nodes:        cfg.Nodes,
			CoresPerNode: 1,
			Layer:        cfg.Layer,
			Faults:       &sched,
			Probe:        probe,
			Resume:       resume,
		})
		hops := 0
		var hopH int
		hopH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
			hops++
			hm := msg.Data.(*hopMsg)
			if hm.left > 0 {
				ctx.Send((ctx.PE()+1)%cfg.Nodes, hopH, &hopMsg{left: hm.left - 1}, cfg.Size)
			}
		})
		// The starter turns the free local injection into a network send,
		// so a phase's traffic is exactly HopsPerPhase ring hops — the
		// same shape a continuous baseline produces per token.
		startH := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
			ctx.Send((ctx.PE()+1)%cfg.Nodes, hopH, &hopMsg{left: cfg.HopsPerPhase - 1}, cfg.Size)
		})
		m.Inject(0, startH, nil, 0, start)
		end := m.Run()
		res.DroppedDead += m.DroppedDead()

		// Retire every kill that fired in this attempt (Run drains the
		// heap, so every booked kill has fired by end): the dead node is
		// replaced before the next machine boots.
		next := pending[:0]
		for _, o := range pending {
			if o.At < start || (o.Kind == fault.NodeKill && o.At <= end) {
				continue
			}
			next = append(next, o)
		}
		pending = next

		if hops != cfg.HopsPerPhase {
			// The kill ate the token: roll back to the last committed
			// snapshot, priced with detection + restart.
			res.Rollbacks++
			m.NoteFault(sim.FaultRollback, end)
			m.Close()
			base := charmgo.KernelCheckpoint{}
			if ck != nil {
				base = ck.Kernel
			}
			rk := base.Advanced(end + cfg.DetectDelay + cfg.RestartCost)
			resume = &rk
			goto attempt
		}

		res.HopsApplied += hops
		nck, err := m.Checkpoint()
		if err != nil {
			panic(fmt.Sprintf("resilience: checkpoint at phase %d: %v", phase, err))
		}
		res.Checkpoints++
		if ck != nil {
			ck.Release()
		}
		ck = nck
		rk := ck.Kernel
		resume = &rk
		res.FinalTime = end
		m.Close()
	}
	if ck != nil {
		ck.Release()
	}
	res.Kills = tl.Count(sim.FaultNodeKill)
	return res
}
