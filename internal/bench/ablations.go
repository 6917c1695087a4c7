package bench

import (
	"fmt"

	"charmgo"
	"charmgo/internal/gemini"
	"charmgo/internal/machine/ugnimachine"
	"charmgo/internal/md"
	"charmgo/internal/ssse"
	"charmgo/internal/stats"
)

// Ablations of the paper's design choices: each isolates one decision the
// paper makes (Sections III-C and IV) and quantifies it against the
// alternative.

// AblRendezvous compares the GET-based rendezvous (chosen) with the
// PUT-based scheme (rejected for its extra control message).
func AblRendezvous(o Options) []*stats.Table {
	put := ugnimachine.DefaultConfig()
	put.PutRendezvous = true
	t := stats.NewTable("Ablation: GET- vs PUT-based rendezvous, one-way latency (us)",
		"size", "GET-based", "PUT-based", "penalty")
	for _, size := range o.sizes(2<<10, 1<<20) {
		g := CharmPingPong{Layer: charmgo.LayerUGNI, Size: size}.OneWay()
		p := CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &put, Size: size}.OneWay()
		t.Add(stats.SizeLabel(size), us(g), us(p),
			fmt.Sprintf("+%.2fus", us(p-g)))
	}
	return []*stats.Table{t}
}

// AblBTEThreshold sweeps the FMA/BTE switch point; the paper places the
// right value between 2 and 8 KiB.
func AblBTEThreshold(o Options) []*stats.Table {
	sizes := []int{2 << 10, 4 << 10, 8 << 10, 32 << 10}
	t := stats.NewTable("Ablation: FMA/BTE threshold, one-way latency (us) by message size",
		"threshold", "2K", "4K", "8K", "32K")
	for _, thr := range []int{1, 2 << 10, 4 << 10, 8 << 10, 1 << 30} {
		cfg := ugnimachine.DefaultConfig()
		cfg.BTEThreshold = thr
		row := []any{stats.SizeLabel(thr)}
		if thr == 1 {
			row[0] = "always-BTE"
		}
		if thr == 1<<30 {
			row[0] = "always-FMA"
		}
		for _, size := range sizes {
			row = append(row, us(CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &cfg, Size: size}.OneWay()))
		}
		t.Add(row...)
	}
	t.Note = "the chosen default is 4K (gemini.FMABTECrossover)"
	return []*stats.Table{t}
}

// AblChunkSize sweeps ParSSSE grain bundling on N-Queens.
func AblChunkSize(o Options) []*stats.Table {
	n, thr, cores := 14, 5, 96
	if o.Quick {
		n, thr, cores = 12, 4, 32
	}
	t := stats.NewTable(fmt.Sprintf("Ablation: task bundling, %d-Queens thr=%d on %d cores", n, thr, cores),
		"chunk", "tasks", "time(ms)")
	for _, chunk := range []int{1, 4, 16, 64, 256} {
		res := o.runQueens(cores, charmgo.LayerUGNI, ssse.Config{
			N: n, Threshold: thr, Seed: o.Seed, ChunkSize: chunk,
		})
		t.Add(chunk, res.Tasks, res.Elapsed.Millis())
	}
	return []*stats.Table{t}
}

// AblSMSGMaxSize shows the job-size-dependent SMSG cap and its mailbox
// memory consequence (the scalability trade-off of Section II-B).
func AblSMSGMaxSize(o Options) []*stats.Table {
	t := stats.NewTable("Ablation: SMSG size cap and per-connection mailbox memory vs job size",
		"job PEs", "SMSG max (B)", "mailbox bytes/conn")
	p := gemini.DefaultParams()
	for _, pes := range []int{256, 1024, 4096, 16384, 65536} {
		t.Add(pes, gemini.SMSGMaxSize(pes), 2*p.SMSGMailboxBytes())
	}
	t.Note = "larger jobs shrink the cap, pushing mid-size messages onto the rendezvous path"
	return []*stats.Table{t}
}

// AblPMEPriority quantifies NAMD-style message prioritization: PME traffic
// (the long global dependency chain) runs at high scheduler priority by
// default; this ablation turns it off.
func AblPMEPriority(o Options) []*stats.Table {
	cores, steps, warm := 480, 3, 1
	if o.Quick {
		cores, steps = 96, 2
	}
	t := stats.NewTable("Ablation: PME message priority, mini-NAMD ms/step",
		"system(cores)", "prioritized", "unprioritized")
	for _, sys := range []md.System{md.DHFR, md.ApoA1} {
		run := func(noPrio bool) float64 {
			m := o.queensMachine(cores, charmgo.LayerUGNI, nil)
			r := md.Run(m, md.Config{
				System: sys, Steps: steps, Warmup: warm, LB: true,
				Seed: o.Seed, NoPMEPriority: noPrio,
			})
			closeMachine(m)
			return r.MsPerStep
		}
		t.Add(fmt.Sprintf("%s(%d)", sys.Name, cores), run(false), run(true))
	}
	return []*stats.Table{t}
}

// AblMSGQ compares the two uGNI short-message facilities the paper weighs
// in Section II-B: per-PE-pair SMSG mailboxes (fast, memory grows with
// connections) vs per-node MSGQ queues (scalable memory, slower).
func AblMSGQ(o Options) []*stats.Table {
	smsg := ugnimachine.DefaultConfig()
	msgq := ugnimachine.DefaultConfig()
	msgq.UseMSGQ = true
	t := stats.NewTable("Ablation: SMSG vs MSGQ small-message latency (us)",
		"size", "SMSG", "MSGQ")
	for _, size := range []int{8, 64, 256, 1024} {
		t.Add(stats.SizeLabel(size),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &smsg, Size: size}.OneWay()),
			us(CharmPingPong{Layer: charmgo.LayerUGNI, UGNI: &msgq, Size: size}.OneWay()),
		)
	}
	t.Note = "MSGQ queue memory grows per node pair, SMSG mailboxes per PE pair"
	return []*stats.Table{t}
}
