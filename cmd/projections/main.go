// Command projections runs a workload under the utilization tracer and
// prints the Projections-style time profile the paper's Figure 12 uses
// (useful computation vs runtime overhead vs idle, over time).
//
// Usage:
//
//	projections -app nqueens -n 14 -threshold 5 -cores 384 -layer mpi
//	projections -app md -system dhfr -cores 96 -layer ugni
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"charmgo"
	"charmgo/internal/md"
	"charmgo/internal/sim"
	"charmgo/internal/ssse"
	"charmgo/internal/trace"
)

func main() {
	var (
		app       = flag.String("app", "nqueens", "workload: nqueens or md")
		cores     = flag.Int("cores", 96, "total cores")
		layer     = flag.String("layer", "ugni", "machine layer: ugni or mpi")
		rows      = flag.Int("rows", 36, "max profile rows")
		seed      = flag.Uint64("seed", 1, "workload seed")
		n         = flag.Int("n", 14, "nqueens: board size")
		threshold = flag.Int("threshold", 5, "nqueens: parallel depth")
		chunk     = flag.Int("chunk", 1, "nqueens: task bundling")
		system    = flag.String("system", "dhfr", "md: iapp, dhfr or apoa1")
		steps     = flag.Int("steps", 3, "md: measured steps")
	)
	flag.Parse()

	nodes := (*cores + 23) / 24
	for *cores%nodes != 0 {
		nodes++
	}
	rec := trace.NewRecorder(*cores, sim.Millisecond)
	m := charmgo.NewMachine(charmgo.MachineConfig{
		Nodes:        nodes,
		CoresPerNode: *cores / nodes,
		Layer:        charmgo.LayerKind(*layer),
		Tracer:       rec,
	})

	switch *app {
	case "nqueens":
		res := ssse.Run(m, ssse.Config{
			N: *n, Threshold: *threshold, Seed: *seed, ChunkSize: *chunk,
		})
		fmt.Printf("%d-queens thr=%d on %d cores (%s): %v, %d tasks\n\n",
			*n, *threshold, *cores, *layer, res.Elapsed, res.Tasks)
	case "md":
		var sys md.System
		switch strings.ToLower(*system) {
		case "iapp":
			sys = md.IAPP
		case "dhfr":
			sys = md.DHFR
		case "apoa1":
			sys = md.ApoA1
		default:
			fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
			os.Exit(2)
		}
		res := md.Run(m, md.Config{System: sys, Steps: *steps, Warmup: 1, LB: true, Seed: *seed})
		fmt.Printf("%s on %d cores (%s): %s\n\n", sys.Name, *cores, *layer, res)
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *app)
		os.Exit(2)
	}

	fmt.Print(rec.RenderCompact(50, *rows))
	appT, ovh := rec.Totals()
	total := m.Eng().Now() * sim.Time(*cores)
	fmt.Printf("\naggregate: %.1f%% useful, %.1f%% overhead, %.1f%% idle\n",
		pct(appT, total), pct(ovh, total), 100-pct(appT, total)-pct(ovh, total))
}

func pct(part, total sim.Time) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}
