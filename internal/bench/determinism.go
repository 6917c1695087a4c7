package bench

import (
	"fmt"
	"strings"

	"charmgo"
	"charmgo/internal/ampi"
	"charmgo/internal/stats"
)

// This file is the runtime half of the determinism contract that simlint
// enforces statically (see DESIGN.md "Determinism rules"): every
// experiment, run twice, must produce bit-identical output.
//
// Both runs happen in one process on purpose. Go re-randomizes map
// iteration order independently for every `range` statement, so two
// in-process runs already exercise different map orders — no GODEBUG knob
// or process restart needed. If any virtual-time series depended on map
// order (or on the global rand source, or the wall clock), the two
// renderings would differ and the harness fails.

// RenderTables renders an experiment's tables into one canonical string,
// the unit of comparison for determinism checks and goldens.
func RenderTables(tables []*stats.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// DoubleRun executes one experiment twice with identical options and
// returns both rendered outputs; callers assert first == second.
func DoubleRun(e Experiment, o Options) (first, second string) {
	first = RenderTables(e.Run(o))
	second = RenderTables(e.Run(o))
	return first, second
}

// KernelProbeRun executes a fixed AMPI ring+allreduce workload (the
// examples/ampi program) with a kernel-statistics probe attached and
// renders the kernel-stat table and the machine layer counters. It is the
// deepest determinism witness we have: it covers the event kernel's
// booking tables, the uGNI machine layer, and the rank-thread handoff in
// one run.
func KernelProbeRun() string {
	ks := charmgo.NewKernelStats()
	m := charmgo.NewMachine(charmgo.MachineConfig{
		Nodes: 2, CoresPerNode: 4, Layer: charmgo.LayerUGNI, Probe: ks,
	})
	const ranks = 16
	end := ampi.Run(m, ranks, func(r *ampi.Rank) {
		token := 0
		if r.Rank() == 0 {
			r.Send(1, 1, token, 64)
			token = r.Recv(ranks-1, 1).Data.(int)
		} else {
			token = r.Recv(r.Rank()-1, 1).Data.(int) + r.Rank()
			r.Send((r.Rank()+1)%ranks, 1, token, 64)
		}
		r.Allreduce(float64(r.Rank()), func(a, b float64) float64 { return a + b })
	})

	var b strings.Builder
	fmt.Fprintf(&b, "end=%v\n", end)
	b.WriteString(stats.KernelTable(ks, 8).String())
	b.WriteByte('\n')
	layer := m.Layer().Stats()
	for _, k := range stats.SortedKeys(layer) {
		fmt.Fprintf(&b, "layer %s = %d\n", k, layer[k])
	}
	return b.String()
}
