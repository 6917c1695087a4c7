package bench

import (
	"fmt"

	"charmgo"
	"charmgo/internal/machine/ugnimachine"
	"charmgo/internal/md"
	"charmgo/internal/stats"
)

// ExtSMP evaluates the paper's Section VII future work, implemented here:
// SMP mode with a per-node comm thread and zero-copy intra-node pointer
// passing. Two views: intra-node latency versus the copy-based schemes,
// and the effect on mini-NAMD step times.
func ExtSMP(o Options) []*stats.Table {
	smp := ugnimachine.DefaultConfig()
	smp.SMP = true
	single := ugnimachine.DefaultConfig()
	double := ugnimachine.DefaultConfig()
	double.Intra = ugnimachine.IntraPxshmDouble

	lat := stats.NewTable("Extension (paper SVII): SMP-mode intra-node one-way latency (us)",
		"size", "pxshm double", "pxshm single", "SMP zero-copy")
	for _, size := range o.sizes(1<<10, 512<<10) {
		lat.Add(stats.SizeLabel(size),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &double, Size: size, Intra: true}.OneWay()),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &single, Size: size, Intra: true}.OneWay()),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &smp, Size: size, Intra: true}.OneWay()),
		)
	}

	cores := 480
	steps, warm := 3, 1
	if o.Quick {
		cores, steps = 48, 2
	}
	app := stats.NewTable("Extension: mini-NAMD DHFR ms/step with and without SMP mode",
		"cores", "non-SMP", "SMP")
	runMD := func(cfg *ugnimachine.Config) float64 {
		nodes, cpn := geomFor(cores)
		m := charmgo.NewMachine(charmgo.MachineConfig{
			Nodes: nodes, CoresPerNode: cpn, Layer: charmgo.LayerUGNI, UGNI: cfg,
		})
		r := md.Run(m, md.Config{System: md.DHFR, Steps: steps, Warmup: warm, LB: true, Seed: o.Seed})
		closeMachine(m)
		return r.MsPerStep
	}
	app.Add(cores, runMD(&single), runMD(&smp))
	return []*stats.Table{lat, app}
}

// ExtRate measures small-message rate: PE 0 fires a burst of 64-byte
// messages at distinct remote cores and the clock stops when the last is
// delivered. The per-message CPU overhead difference between the layers
// translates directly into achievable rate — the property that decides
// the fine-grain N-Queens results.
func ExtRate(o Options) []*stats.Table {
	burst := 256
	if o.Quick {
		burst = 64
	}
	t := stats.NewTable("Extension: small-message rate (messages per millisecond)",
		"layer", "burst", "total time (us)", "msgs/ms")
	for _, layer := range []charmgo.LayerKind{charmgo.LayerUGNI, charmgo.LayerMPI} {
		m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: 16, Layer: layer})
		n := m.NumPEs()
		got := 0
		var done charmgo.Time
		recv := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
			got++
			if got == burst {
				done = ctx.Now()
			}
		})
		seed := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
			for i := 0; i < burst; i++ {
				dst := 24 + (i*7)%(n-24) // spread across remote nodes
				ctx.Send(dst, recv, nil, 64)
			}
		})
		m.Inject(0, seed, nil, 0, 0)
		m.Run()
		closeMachine(m)
		t.Add(string(layer), burst, done.Micros(), float64(burst)/done.Millis())
	}
	return []*stats.Table{t}
}

// ExtOverlap isolates the Figure 10 mechanism: K large messages to one
// receiver. The uGNI progress engine posts all GETs immediately so the
// transfers pipeline on the wire; the MPI progress engine's blocking Recv
// serializes issue, adding a handshake gap per message.
func ExtOverlap(o Options) []*stats.Table {
	const k, size = 4, 512 << 10
	t := stats.NewTable(
		fmt.Sprintf("Extension: pipelining of %d x %s receives (total time, us)", k, stats.SizeLabel(size)),
		"layer", "makespan (us)", "per message (us)")
	for _, layer := range []charmgo.LayerKind{charmgo.LayerUGNI, charmgo.LayerMPI} {
		m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: 2, Layer: layer})
		peer := m.Net().P.CoresPerNode
		got := 0
		var done charmgo.Time
		recv := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
			got++
			if got == k {
				done = ctx.Now()
			}
		})
		seed := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
			for i := 0; i < k; i++ {
				ctx.Send(peer, recv, nil, size)
			}
		})
		m.Inject(0, seed, nil, 0, 0)
		m.Run()
		closeMachine(m)
		t.Add(string(layer), done.Micros(), done.Micros()/k)
	}
	return []*stats.Table{t}
}
