package bench

import (
	"fmt"
	"strings"

	"charmgo"
	"charmgo/internal/gemini"
	"charmgo/internal/machine/ugnimachine"
	"charmgo/internal/md"
	"charmgo/internal/sim"
	"charmgo/internal/ssse"
	"charmgo/internal/stats"
	"charmgo/internal/trace"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks sizes/core counts so the whole suite runs in seconds
	// (used by tests and the default `go test -bench` run). The full
	// configuration reproduces the paper's axes.
	Quick bool
	// Seed for workloads with random placement.
	Seed uint64

	kernels *kernelLog // records the kernels Fig9a and queensMachine build
}

// Experiment is one reproducible figure or table.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) []*stats.Table
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Fig 1: ping-pong one-way latency — uGNI vs MPI vs MPI-based CHARM++", Fig1},
		{"fig4", "Fig 4: one-way latency — FMA/BTE x Put/Get", Fig4},
		{"fig6", "Fig 6: initial uGNI-based CHARM++ (no memory pool) vs MPI-based vs pure uGNI", Fig6},
		{"fig8a", "Fig 8a: persistent messages", Fig8a},
		{"fig8b", "Fig 8b: memory pool", Fig8b},
		{"fig8c", "Fig 8c: intra-node communication", Fig8c},
		{"fig9a", "Fig 9a: inter-node latency, all systems", Fig9a},
		{"fig9b", "Fig 9b: bandwidth, uGNI- vs MPI-based CHARM++", Fig9b},
		{"fig9c", "Fig 9c: one-to-all latency", Fig9c},
		{"fig10", "Fig 10: kNeighbor round-trip", Fig10},
		{"fig11", "Fig 11: 17-Queens strong-scaling speedup", Fig11},
		{"fig12", "Fig 12: 17-Queens time profiles on 384 cores", Fig12},
		{"fig13", "Fig 13: mini-NAMD weak scaling", Fig13},
		{"tab1", "Table I: N-Queens best times at max core counts", Table1},
		{"tab2", "Table II: ApoA1 strong scaling (ms/step)", Table2},
		{"abl-rndv", "Ablation: GET- vs PUT-based rendezvous", AblRendezvous},
		{"abl-bte", "Ablation: FMA/BTE threshold sweep", AblBTEThreshold},
		{"abl-chunk", "Ablation: ParSSSE task bundling", AblChunkSize},
		{"abl-smsg", "Ablation: SMSG cap vs job size", AblSMSGMaxSize},
		{"abl-prio", "Ablation: PME message priority", AblPMEPriority},
		{"abl-msgq", "Ablation: SMSG vs MSGQ short-message facility", AblMSGQ},
		{"ext-smp", "Extension (paper SVII): SMP mode", ExtSMP},
		{"ext-rate", "Extension: small-message rate", ExtRate},
		{"ext-overlap", "Extension: receive pipelining (Fig 10 mechanism)", ExtOverlap},
		{"ext-resilience", "Extension: node-failure recovery overhead vs latency", ExtResilience},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sizesPow2 returns powers of two from lo to hi inclusive.
func sizesPow2(lo, hi int) []int {
	var out []int
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}

func (o Options) sizes(lo, hi int) []int {
	all := sizesPow2(lo, hi)
	if !o.Quick || len(all) <= 5 {
		return all
	}
	// Keep every other size plus the endpoints.
	var out []int
	for i, s := range all {
		if i%2 == 0 || i == len(all)-1 {
			out = append(out, s)
		}
	}
	return out
}

// us converts to the microseconds the paper's axes use.
func us(t sim.Time) float64 { return t.Micros() }

// Fig1 compares pure uGNI, pure MPI, and MPI-based CHARM++ ping-pong.
func Fig1(o Options) []*stats.Table {
	t := stats.NewTable("Fig 1: one-way latency (us)", "size", "uGNI", "MPI", "charm/mpi")
	for _, size := range o.sizes(32, 64<<10) {
		t.Add(stats.SizeLabel(size),
			us(PureUGNIOneWay(size)),
			us(PureMPIOneWay(size, true, false)),
			us(CharmPingPong{Layer: charmgo.LayerMPI, Size: size}.OneWay()),
		)
	}
	return []*stats.Table{t}
}

// Fig4 measures the four raw data-movement modes.
func Fig4(o Options) []*stats.Table {
	t := stats.NewTable("Fig 4: one-way latency (us)", "size", "FMA Put", "FMA Get", "BTE Put", "BTE Get")
	for _, size := range o.sizes(8, 4<<20) {
		t.Add(stats.SizeLabel(size),
			us(FigureFourPoint(size, gemini.UnitFMA, false)),
			us(FigureFourPoint(size, gemini.UnitFMA, true)),
			us(FigureFourPoint(size, gemini.UnitBTE, false)),
			us(FigureFourPoint(size, gemini.UnitBTE, true)),
		)
	}
	return []*stats.Table{t}
}

// Fig6 shows the initial (pool-less) uGNI layer losing to MPI-based
// CHARM++ for large messages.
func Fig6(o Options) []*stats.Table {
	noPool := ugnimachine.DefaultConfig()
	noPool.UseMempool = false
	t := stats.NewTable("Fig 6: one-way latency (us)", "size", "uGNI", "charm/mpi", "charm/ugni-initial")
	for _, size := range o.sizes(32, 1<<20) {
		t.Add(stats.SizeLabel(size),
			us(PureUGNIOneWay(size)),
			us(CharmPingPong{Layer: charmgo.LayerMPI, Size: size}.OneWay()),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &noPool, Size: size}.OneWay()),
		)
	}
	return []*stats.Table{t}
}

// Fig8a compares the rendezvous path with and without persistent messages.
func Fig8a(o Options) []*stats.Table {
	t := stats.NewTable("Fig 8a: one-way latency (us)", "size", "w/o persistent", "w/ persistent", "pure uGNI")
	for _, size := range o.sizes(1<<10, 512<<10) {
		t.Add(stats.SizeLabel(size),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, Size: size}.OneWay()),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, Size: size, Persistent: true}.OneWay()),
			us(PureUGNIOneWay(size)),
		)
	}
	return []*stats.Table{t}
}

// Fig8b compares the rendezvous path with and without the memory pool.
func Fig8b(o Options) []*stats.Table {
	noPool := ugnimachine.DefaultConfig()
	noPool.UseMempool = false
	t := stats.NewTable("Fig 8b: one-way latency (us)", "size", "w/o mempool", "w/ mempool", "pure uGNI")
	for _, size := range o.sizes(1<<10, 512<<10) {
		t.Add(stats.SizeLabel(size),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &noPool, Size: size}.OneWay()),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, Size: size}.OneWay()),
			us(PureUGNIOneWay(size)),
		)
	}
	return []*stats.Table{t}
}

// Fig8c compares intra-node transports.
func Fig8c(o Options) []*stats.Table {
	double := ugnimachine.DefaultConfig()
	double.Intra = ugnimachine.IntraPxshmDouble
	single := ugnimachine.DefaultConfig()
	nic := ugnimachine.DefaultConfig()
	nic.Intra = ugnimachine.IntraNIC
	t := stats.NewTable("Fig 8c: intra-node one-way latency (us)",
		"size", "pxshm double", "pxshm single", "pure MPI", "uGNI loopback")
	for _, size := range o.sizes(1<<10, 512<<10) {
		t.Add(stats.SizeLabel(size),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &double, Size: size, Intra: true}.OneWay()),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &single, Size: size, Intra: true}.OneWay()),
			us(PureMPIOneWay(size, true, true)),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &nic, Size: size, Intra: true}.OneWay()),
		)
	}
	return []*stats.Table{t}
}

// Fig9a is the headline latency comparison across all five systems. Each
// size is an independent set of simulations, computed into its own row
// slot and rendered in order.
func Fig9a(o Options) []*stats.Table {
	sizes := o.sizes(8, 4<<20)
	rows := make([][5]float64, len(sizes))
	for i, size := range sizes {
		rows[i] = [5]float64{
			us(CharmPingPong{Layer: charmgo.LayerUGNI, Size: size, kernels: o.kernels}.OneWay()),
			us(CharmPingPong{Layer: charmgo.LayerMPI, Size: size, kernels: o.kernels}.OneWay()),
			us(pureMPIOneWay(size, true, false, o.kernels)),
			us(pureMPIOneWay(size, false, false, o.kernels)),
			us(pureUGNIOneWay(size, o.kernels)),
		}
	}
	t := stats.NewTable("Fig 9a: one-way latency (us)",
		"size", "charm/ugni", "charm/mpi", "MPI same-buf", "MPI diff-buf", "pure uGNI")
	for i, size := range sizes {
		r := rows[i]
		t.Add(stats.SizeLabel(size), r[0], r[1], r[2], r[3], r[4])
	}
	return []*stats.Table{t}
}

// Fig9b compares achieved bandwidth.
func Fig9b(o Options) []*stats.Table {
	t := stats.NewTable("Fig 9b: bandwidth (MB/s)", "size", "charm/ugni", "charm/mpi")
	for _, size := range o.sizes(16<<10, 4<<20) {
		t.Add(stats.SizeLabel(size),
			Bandwidth(charmgo.LayerUGNI, size),
			Bandwidth(charmgo.LayerMPI, size),
		)
	}
	return []*stats.Table{t}
}

// Fig9c runs the one-to-all benchmark on 16 nodes.
func Fig9c(o Options) []*stats.Table {
	nodes := 16
	if o.Quick {
		nodes = 8
	}
	t := stats.NewTable(fmt.Sprintf("Fig 9c: one-to-all exchange time, %d nodes (us)", nodes),
		"size", "charm/ugni", "charm/mpi")
	for _, size := range o.sizes(32, 1<<20) {
		t.Add(stats.SizeLabel(size),
			us(OneToAll(charmgo.LayerUGNI, nodes, size)),
			us(OneToAll(charmgo.LayerMPI, nodes, size)),
		)
	}
	return []*stats.Table{t}
}

// Fig10 runs 1-Neighbor on 3 cores across 3 nodes.
func Fig10(o Options) []*stats.Table {
	t := stats.NewTable("Fig 10: kNeighbor (k=1, 3 cores on 3 nodes) per-iteration time (us)",
		"size", "charm/ugni", "charm/mpi")
	for _, size := range o.sizes(32, 1<<20) {
		t.Add(stats.SizeLabel(size),
			us(KNeighbor(charmgo.LayerUGNI, 3, 1, size)),
			us(KNeighbor(charmgo.LayerMPI, 3, 1, size)),
		)
	}
	return []*stats.Table{t}
}

// geomFor picks the smallest node count (at most 24 cores/node) that
// divides cores exactly, so the machine has precisely `cores` PEs.
func geomFor(cores int) (nodes, coresPerNode int) {
	nodes = (cores + 23) / 24
	for cores%nodes != 0 {
		nodes++
	}
	return nodes, cores / nodes
}

// queensMachine builds a machine with exactly the given core count.
func (o Options) queensMachine(cores int, layer charmgo.LayerKind, tracer *trace.Recorder) *charmgo.Machine {
	nodes, cpn := geomFor(cores)
	return o.kernels.machine(charmgo.MachineConfig{
		Nodes: nodes, CoresPerNode: cpn, Layer: layer, Tracer: tracer,
	})
}

// runQueens builds a queens machine, runs the workload, and recycles the
// machine's construction slabs (closeMachine) before returning.
func (o Options) runQueens(cores int, layer charmgo.LayerKind, cfg ssse.Config) ssse.Result {
	m := o.queensMachine(cores, layer, nil)
	r := ssse.Run(m, cfg)
	closeMachine(m)
	return r
}

// queensChunk sizes task bundles to the paper's message counts (~15K
// messages at threshold 6 for 17-queens).
func queensChunk(n, threshold int) int {
	parts := ssse.CountPartials(n, threshold)
	target := uint64(15000)
	for t := 6; t < threshold; t++ {
		target *= 8
	}
	c := int(parts / target)
	if c < 1 {
		c = 1
	}
	return c
}

// Fig11 produces the 17-Queens strong-scaling speedup curves. Speedup is
// against the one-core work estimate (total nodes x per-node cost).
func Fig11(o Options) []*stats.Table {
	n, thrU, thrM := 17, 7, 6
	coreCounts := []int{32, 64, 128, 256, 512, 1024, 2048, 3840}
	if o.Quick {
		n, thrU, thrM = 13, 5, 4
		coreCounts = []int{8, 16, 32, 64}
	}
	t := stats.NewTable(fmt.Sprintf("Fig 11: %d-Queens speedup (uGNI thr=%d, MPI thr=%d)", n, thrU, thrM),
		"cores", "ugni time(s)", "ugni speedup", "mpi time(s)", "mpi speedup")
	for _, cores := range coreCounts {
		ru := o.runQueens(cores, charmgo.LayerUGNI, ssse.Config{
			N: n, Threshold: thrU, Seed: o.Seed, ChunkSize: queensChunk(n, thrU),
		})
		rm := o.runQueens(cores, charmgo.LayerMPI, ssse.Config{
			N: n, Threshold: thrM, Seed: o.Seed, ChunkSize: queensChunk(n, thrM),
		})
		seqU := sim.Time(ru.Nodes) * ssse.DefaultPerNodeCost
		seqM := sim.Time(rm.Nodes) * ssse.DefaultPerNodeCost
		t.Add(cores,
			ru.Elapsed.Seconds(), float64(seqU)/float64(ru.Elapsed),
			rm.Elapsed.Seconds(), float64(seqM)/float64(rm.Elapsed),
		)
	}
	return []*stats.Table{t}
}

// Fig12 renders the utilization profiles behind Figure 12.
func Fig12(o Options) []*stats.Table {
	n, cores := 17, 384
	cases := []struct {
		layer charmgo.LayerKind
		thr   int
	}{
		{charmgo.LayerMPI, 6},
		{charmgo.LayerMPI, 7},
		{charmgo.LayerUGNI, 7},
	}
	if o.Quick {
		n, cores = 13, 32
		cases = []struct {
			layer charmgo.LayerKind
			thr   int
		}{{charmgo.LayerMPI, 4}, {charmgo.LayerUGNI, 5}}
	}
	var out []*stats.Table
	for _, c := range cases {
		// Record with fine bins; RenderCompact merges to ~36 rows.
		rec := trace.NewRecorder(cores, sim.Millisecond)
		m := o.queensMachine(cores, c.layer, rec)
		res := ssse.Run(m, ssse.Config{
			N: n, Threshold: c.thr, Seed: o.Seed, ChunkSize: queensChunk(n, c.thr),
		})
		closeMachine(m)
		t := stats.NewTable(fmt.Sprintf("Fig 12: %d-Queens thr=%d on %d cores, %s layer (total %v)",
			n, c.thr, cores, c.layer, res.Elapsed), "profile")
		for _, line := range strings.Split(strings.TrimRight(rec.RenderCompact(50, 36), "\n"), "\n") {
			t.Add(line)
		}
		out = append(out, t)
	}
	return out
}

// Fig13 runs the weak-scaling NAMD proxy.
func Fig13(o Options) []*stats.Table {
	cases := []struct {
		sys   md.System
		cores int
	}{
		{md.IAPP, 960}, {md.DHFR, 3840}, {md.ApoA1, 7680},
	}
	steps, warm := 4, 2
	if o.Quick {
		cases = []struct {
			sys   md.System
			cores int
		}{{md.IAPP, 48}, {md.DHFR, 192}}
		steps, warm = 2, 1
	}
	// Each (system, layer) pair is an independent simulation: 2 points per
	// case, rendered in case order.
	layers := [2]charmgo.LayerKind{charmgo.LayerMPI, charmgo.LayerUGNI}
	results := make([][2]float64, len(cases))
	for i := 0; i < len(cases)*2; i++ {
		c := cases[i/2]
		m := o.queensMachine(c.cores, layers[i%2], nil)
		r := md.Run(m, md.Config{
			System: c.sys, Steps: steps, Warmup: warm, LB: true, Seed: o.Seed,
		})
		closeMachine(m)
		results[i/2][i%2] = r.MsPerStep
	}
	t := stats.NewTable("Fig 13: mini-NAMD weak scaling, PME every step (ms/step)",
		"system(cores)", "charm/mpi", "charm/ugni", "improvement")
	for i, c := range cases {
		mpiMS, ugniMS := results[i][0], results[i][1]
		t.Add(fmt.Sprintf("%s(%d)", c.sys.Name, c.cores), mpiMS, ugniMS,
			fmt.Sprintf("%.0f%%", (mpiMS-ugniMS)/mpiMS*100))
	}
	return []*stats.Table{t}
}

// Table1 reproduces Table I: per board size, the (paper's) max core count
// and the time each layer achieves there.
func Table1(o Options) []*stats.Table {
	type row struct {
		n                   int
		coresUGNI, coresMPI int
		thrUGNI, thrMPI     int
	}
	rows := []row{
		{14, 256, 48, 5, 4},
		{15, 480, 120, 5, 4},
		{16, 1536, 384, 6, 5},
		{17, 3840, 1536, 7, 6},
		{18, 7680, 3840, 7, 6},
		{19, 15360, 7680, 7, 6},
	}
	if o.Quick {
		rows = []row{{12, 64, 16, 4, 3}, {13, 128, 32, 4, 3}}
	}
	t := stats.NewTable("Table I: N-Queens best times (seconds)",
		"queens", "ugni cores", "ugni time", "mpi cores", "mpi time")
	for _, r := range rows {
		ru := o.runQueens(r.coresUGNI, charmgo.LayerUGNI, ssse.Config{
			N: r.n, Threshold: r.thrUGNI, Seed: o.Seed, ChunkSize: queensChunk(r.n, r.thrUGNI),
		})
		rm := o.runQueens(r.coresMPI, charmgo.LayerMPI, ssse.Config{
			N: r.n, Threshold: r.thrMPI, Seed: o.Seed, ChunkSize: queensChunk(r.n, r.thrMPI),
		})
		t.Add(r.n, r.coresUGNI, ru.Elapsed.Seconds(), r.coresMPI, rm.Elapsed.Seconds())
	}
	return []*stats.Table{t}
}

// Table2 reproduces the ApoA1 strong-scaling table.
func Table2(o Options) []*stats.Table {
	coreCounts := []int{2, 12, 48, 120, 240, 480, 1920, 3840}
	steps, warm := 3, 1
	if o.Quick {
		coreCounts = []int{2, 12, 48}
		steps, warm = 2, 1
	}
	t := stats.NewTable("Table II: ApoA1 ms/step", "cores", "charm/mpi", "charm/ugni")
	for _, cores := range coreCounts {
		run := func(layer charmgo.LayerKind) float64 {
			m := o.queensMachine(cores, layer, nil)
			r := md.Run(m, md.Config{
				System: md.ApoA1, Steps: steps, Warmup: warm, LB: cores >= 48, Seed: o.Seed,
			})
			closeMachine(m)
			return r.MsPerStep
		}
		t.Add(cores, run(charmgo.LayerMPI), run(charmgo.LayerUGNI))
	}
	return []*stats.Table{t}
}
