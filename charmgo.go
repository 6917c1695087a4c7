// Package charmgo is a Go reproduction of "A uGNI-based Asynchronous
// Message-driven Runtime System for Cray Supercomputers with Gemini
// Interconnect" (Sun, Zheng, Kalé, Jones, Olson — IPDPS 2012).
//
// It provides a CHARM++-style asynchronous message-driven runtime running
// on a simulated Cray Gemini interconnect, with two interchangeable LRTS
// machine layers — the paper's direct uGNI layer and the MPI baseline —
// plus the paper's optimizations (registered memory pool, persistent
// messages, pxshm intra-node transport) and the full experiment harness
// that regenerates every figure and table of the paper's evaluation.
//
// Quick start:
//
//	m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: 2, Layer: charmgo.LayerUGNI})
//	pong := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
//		fmt.Printf("pong on PE %d at %v\n", ctx.PE(), ctx.Now())
//	})
//	ping := m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
//		ctx.Send(m.NumPEs()-1, pong, nil, 64)
//	})
//	m.Inject(0, ping, nil, 0, 0)
//	m.Run()
//
// All time is virtual (see internal/sim); runs are deterministic. Every
// machine runs on the flat event engine (sim.Engine), and every transfer
// books synchronously.
package charmgo

import (
	"fmt"

	"charmgo/internal/converse"
	"charmgo/internal/fault"
	"charmgo/internal/gemini"
	"charmgo/internal/lrts"
	"charmgo/internal/machine/mpimachine"
	"charmgo/internal/machine/ugnimachine"
	"charmgo/internal/sim"
	"charmgo/internal/trace"
	"charmgo/internal/ugni"
)

// Re-exported core types: the user-facing runtime surface.
type (
	// Machine is one simulated job (engine + network + machine layer +
	// per-PE schedulers).
	Machine = converse.Machine
	// Ctx is a handler execution context: PE-local clock, Send/Broadcast,
	// Compute/Charge time accounting.
	Ctx = converse.Ctx
	// Message is the runtime message envelope.
	Message = lrts.Message
	// HandlerFn is a Converse message handler.
	HandlerFn = converse.HandlerFn
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// PersistentHandle names a persistent channel.
	PersistentHandle = lrts.PersistentHandle
	// Probe observes simulation-kernel activity (events fired, resource
	// bookings); attach one via MachineConfig.Probe.
	Probe = sim.Probe
	// KernelStats is a ready-made Probe that aggregates kernel counters.
	KernelStats = sim.KernelStats
	// Checkpoint is a coordinated in-memory machine snapshot, taken at
	// quiescence via Machine.Checkpoint (DESIGN.md §7).
	Checkpoint = converse.Checkpoint
	// KernelCheckpoint is the kernel clock/sequence part of a Checkpoint;
	// pass it as MachineConfig.Resume to roll a fresh machine forward.
	KernelCheckpoint = sim.KernelCheckpoint
)

// NewKernelStats returns an empty kernel-statistics probe.
func NewKernelStats() *KernelStats { return sim.NewKernelStats() }

// Virtual-time units, re-exported for convenience.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// LayerKind selects a machine layer.
type LayerKind string

const (
	// LayerUGNI is the paper's contribution: the direct uGNI machine layer.
	LayerUGNI LayerKind = "ugni"
	// LayerMPI is the baseline: the runtime implemented over MPI.
	LayerMPI LayerKind = "mpi"
)

// MachineConfig describes the simulated job.
type MachineConfig struct {
	// Nodes is the number of compute nodes (required, >= 1).
	Nodes int
	// CoresPerNode overrides the hardware default of 24 when > 0.
	CoresPerNode int
	// Layer selects the machine layer; default LayerUGNI.
	Layer LayerKind
	// Params overrides hardware constants when non-nil.
	Params *gemini.Params
	// UGNI overrides the uGNI-layer configuration when non-nil.
	UGNI *ugnimachine.Config
	// MPI overrides the MPI-layer configuration when non-nil.
	MPI *mpimachine.Config
	// Converse overrides runtime scheduler constants when non-nil.
	Converse *converse.Options
	// Tracer, when non-nil, records the Projections-style time profile.
	Tracer *trace.Recorder
	// Probe, when non-nil, observes the simulation kernel (every event
	// fired and every resource booking across network, NIC engines, and
	// CPUs). Probes are pure observers: attaching one never changes
	// virtual-time results.
	Probe Probe
	// Faults, when non-nil, is the deterministic fault schedule injected
	// into the NIC before the run starts (DESIGN.md §7). Same schedule +
	// same workload seed replay bit-identically. NodeKill ops are booked
	// on the machine's schedulers (fault.ApplyKills) after construction;
	// everything else goes through the NIC fault hooks.
	Faults *fault.Schedule
	// Resume, when non-nil, restores the kernel from a quiescent-machine
	// checkpoint before anything is built: the fresh machine's clock,
	// event sequence, and fired count continue exactly where the
	// checkpointed machine stopped, so a rolled-back replay is
	// bit-identical to the unbroken run (DESIGN.md §7). Obtain one from
	// Machine.Checkpoint (the Kernel field), optionally advanced past the
	// recovery delay with KernelCheckpoint.Advanced.
	Resume *KernelCheckpoint
}

// NewMachine builds a ready-to-run simulated machine.
func NewMachine(cfg MachineConfig) *Machine {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("charmgo: MachineConfig.Nodes = %d", cfg.Nodes))
	}
	params := gemini.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	if cfg.CoresPerNode > 0 {
		params.CoresPerNode = cfg.CoresPerNode
	}
	eng := sim.NewEngine()
	if cfg.Resume != nil {
		// Restore before attaching the probe or building the network:
		// construction must happen at the resumed clock (no layer books
		// events before Run), and probes only observe post-resume work.
		if err := eng.Restore(*cfg.Resume); err != nil {
			panic(fmt.Sprintf("charmgo: resume: %v", err))
		}
	}
	if cfg.Probe != nil {
		// Attach before building anything so every resource the network
		// and machine layers create inherits the probe.
		eng.SetProbe(cfg.Probe)
	}
	net := gemini.NewNetwork(eng, cfg.Nodes, params)
	g := ugni.New(net)
	if cfg.Faults != nil {
		fault.Apply(g, *cfg.Faults)
	}

	var layer lrts.Layer
	switch cfg.Layer {
	case LayerUGNI, "":
		c := ugnimachine.DefaultConfig()
		if cfg.UGNI != nil {
			c = *cfg.UGNI
		}
		layer = ugnimachine.New(g, c)
	case LayerMPI:
		c := mpimachine.DefaultConfig()
		if cfg.MPI != nil {
			c = *cfg.MPI
		}
		layer = mpimachine.New(g, c)
	default:
		panic(fmt.Sprintf("charmgo: unknown layer %q", cfg.Layer))
	}

	opts := converse.DefaultOptions()
	if cfg.Converse != nil {
		opts = *cfg.Converse
	}
	opts.Tracer = cfg.Tracer
	m := converse.NewMachine(eng, net, layer, opts)
	if cfg.Faults != nil {
		// Kills book on the machine's schedulers, so they apply last.
		fault.ApplyKills(m, *cfg.Faults)
	}
	return m
}
