package bench

import (
	"charmgo"
	"charmgo/internal/fault"
	"charmgo/internal/resilience"
	"charmgo/internal/sim"
	"charmgo/internal/stats"
)

// ExtResilience quantifies the node-failure recovery tradeoff
// (DESIGN.md §7): team replication pays its cost up front — every
// message is mirrored to both replicas, so the failure-free run is
// slower than an unreplicated baseline — and recovers almost for free,
// while coordinated in-memory checkpointing is nearly free when nothing
// fails and pays a detection delay, restart cost, and one phase of
// re-execution on a kill. One table, one row per strategy: failure-free
// completion vs its baseline (overhead) and killed-run completion vs
// failure-free (recovery latency).
func ExtResilience(o Options) []*stats.Table {
	const (
		teams = 4
		msgs  = 24
		size  = 512
	)
	killAt := 15 * sim.Microsecond

	// Unreplicated baseline for the team strategy: the same R chained
	// streams, single copy, no heartbeats — R single-core nodes where
	// rank t applies stream t-1 and produces stream t.
	plainStreams := func() sim.Time {
		m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: teams, CoresPerNode: 1})
		var done sim.Time
		var appH int
		next := make([]int, teams)
		appH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
			seq := msg.Data.(int)
			pe := ctx.PE()
			if seq != next[pe] {
				return
			}
			next[pe]++
			done = ctx.Now()
			if k := seq + 1; k < msgs {
				ctx.Send((pe+1)%teams, appH, k, size)
			}
		})
		start := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
			ctx.Send((ctx.PE()+1)%teams, appH, 0, size)
		})
		for pe := 0; pe < teams; pe++ {
			m.Inject(pe, start, nil, 0, 0)
		}
		m.Run()
		closeMachine(m)
		return done
	}

	teamCfg := func(s *fault.Schedule) resilience.TeamConfig {
		return resilience.TeamConfig{Teams: teams, Msgs: msgs, Size: size, Faults: s}
	}
	teamBase := plainStreams()
	teamFree := resilience.RunTeam(teamCfg(nil)).StreamDone
	teamKilled := resilience.RunTeam(teamCfg(&fault.Schedule{Ops: []fault.Op{
		{At: killAt, Kind: fault.NodeKill, Src: teams + 1},
	}})).StreamDone

	ckptCfg := func(phases, hops int, kills []fault.Op) resilience.CheckpointConfig {
		return resilience.CheckpointConfig{
			Nodes: 2 * teams, Phases: phases, HopsPerPhase: hops, Size: size, Kills: kills,
		}
	}
	const phases, hopsPer = 4, 32
	ckptBase := resilience.RunCheckpoint(ckptCfg(1, phases*hopsPer, nil)).FinalTime
	ckptFree := resilience.RunCheckpoint(ckptCfg(phases, hopsPer, nil)).FinalTime
	ckptKilled := resilience.RunCheckpoint(ckptCfg(phases, hopsPer, []fault.Op{
		{At: killAt, Kind: fault.NodeKill, Src: 3},
	})).FinalTime

	pct := func(free, base sim.Time) float64 {
		return 100 * (float64(free) - float64(base)) / float64(base)
	}
	t := stats.NewTable("Extension: node-failure recovery — failure-free overhead vs recovery latency",
		"strategy", "baseline (us)", "failure-free (us)", "overhead (%)", "recovery latency (us)")
	t.Add("team-replication",
		us(teamBase), us(teamFree), pct(teamFree, teamBase), us(teamKilled-teamFree))
	t.Add("checkpoint-restart",
		us(ckptBase), us(ckptFree), pct(ckptFree, ckptBase), us(ckptKilled-ckptFree))
	return []*stats.Table{t}
}
