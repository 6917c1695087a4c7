// Package gemini models the Cray Gemini interconnect at the level the
// paper's experiments depend on: a 3D torus of routers with per-link
// serialization and per-hop latency, and a NIC per node with two transfer
// engines — the CPU-driven FMA unit (lowest latency, modest bandwidth) and
// the offloaded BTE unit (higher startup, high bandwidth) — plus SMSG
// mailbox messaging and completion-queue event delivery.
//
// The model is a discrete-event simulation in virtual time (see
// internal/sim); constants in Params are calibrated against the paper's
// own microbenchmark figures (Figures 1, 4, 6; DESIGN.md §4).
package gemini

import (
	"charmgo/internal/mem"
	"charmgo/internal/sim"
)

// Unit selects which NIC engine carries a transfer.
type Unit int

const (
	// UnitFMA is the Fast Memory Access unit: direct OS-bypass stores into
	// the FMA window. Lowest startup, but the CPU pushes the bytes, so
	// bandwidth is modest.
	UnitFMA Unit = iota
	// UnitBTE is the Block Transfer Engine: the transaction is fully
	// offloaded to the NIC. Higher startup, best bandwidth and overlap.
	UnitBTE
	// UnitSMSG is the short-message path (GNI SMSG): FMA hardware with the
	// mailbox protocol's per-message overhead.
	UnitSMSG
	// UnitMSGQ is the shared-queue path (GNI MSGQ): the SMSG hardware view
	// plus a fixed wire-protocol surcharge per delivery (paper II-B:
	// scalable memory "at the expense of lower performance").
	UnitMSGQ
)

// String names the unit for diagnostics.
func (u Unit) String() string {
	switch u {
	case UnitFMA:
		return "FMA"
	case UnitBTE:
		return "BTE"
	case UnitSMSG:
		return "SMSG"
	case UnitMSGQ:
		return "MSGQ"
	}
	return "unit?"
}

// Params holds every hardware constant of the model.
type Params struct {
	CoresPerNode int // XE6 nodes have 24 cores (2x12 Magny-Cours)

	// Torus links.
	LinkBW           float64  // bytes/ns per directional link
	HopLatency       sim.Time // router traversal per hop
	InjectionLatency sim.Time // HT3 crossing + NIC injection/ejection

	// FMA unit.
	FMAOverhead sim.Time // engine startup per transaction
	FMABW       float64  // bytes/ns (CPU-driven PIO)

	// BTE unit.
	BTEOverhead sim.Time // descriptor fetch + engine start
	BTEBW       float64  // bytes/ns

	// SMSG. The mailbox at each connection endpoint is a finite ring of
	// credit slots: a send occupies one slot until the receive side
	// dequeues the message, and a full window makes SmsgSendWTag return
	// RCNotDone (the paper's GNI_RC_NOT_DONE error path).
	SMSGOverhead    sim.Time // mailbox protocol cost per message
	SMSGCreditSlots int      // mailbox slots per connection (credit window)
	SMSGSlotBytes   int      // bytes per mailbox slot

	// MSGQ (the per-node shared-queue alternative to SMSG; paper II-B:
	// scalable memory "at the expense of lower performance").
	MSGQExtraOverhead sim.Time // added wire-protocol cost vs SMSG
	MSGQBytesPerNode  int      // queue memory per node pair endpoint

	// NIC loopback (intra-node transfers routed through the NIC; the paper
	// notes this is possible but contends with inter-node traffic).
	LoopbackBW      float64
	LoopbackLatency sim.Time

	// Completion queues.
	CQLatency sim.Time // NIC -> host memory event visibility delay
	CQDepth   int      // finite CQ capacity; <=0 means unbounded

	// Faults.
	TxErrorLatency sim.Time // post -> EvError completion delay for a failed transaction

	// Host CPU costs of driving the NIC (charged to the calling PE).
	HostSendCPU   sim.Time // building + issuing an SMSG send
	HostPostCPU   sim.Time // building + posting an FMA/RDMA descriptor
	HostCQPollCPU sim.Time // one GNI_CqGetEvent poll that finds an event

	Mem mem.CostModel
}

// DefaultParams returns the calibrated Hopper-like constants.
func DefaultParams() Params {
	return Params{
		CoresPerNode:      24,
		LinkBW:            sim.GBps(4.7),
		HopLatency:        105 * sim.Nanosecond,
		InjectionLatency:  300 * sim.Nanosecond,
		FMAOverhead:       120 * sim.Nanosecond,
		FMABW:             sim.GBps(1.4),
		BTEOverhead:       2000 * sim.Nanosecond,
		BTEBW:             sim.GBps(6.1),
		SMSGOverhead:      230 * sim.Nanosecond,
		SMSGCreditSlots:   8,
		SMSGSlotBytes:     2 << 10,
		MSGQExtraOverhead: 450 * sim.Nanosecond,
		MSGQBytesPerNode:  64 << 10,
		LoopbackBW:        sim.GBps(5.0),
		LoopbackLatency:   350 * sim.Nanosecond,
		CQLatency:         140 * sim.Nanosecond,
		CQDepth:           4096,
		TxErrorLatency:    5000 * sim.Nanosecond,
		HostSendCPU:       260 * sim.Nanosecond,
		HostPostCPU:       300 * sim.Nanosecond,
		HostCQPollCPU:     90 * sim.Nanosecond,
		Mem:               mem.DefaultCostModel(),
	}
}

// SMSGMailboxBytes reports mailbox memory per connection endpoint: the
// credit window's slots times the slot size. Finite-credit accounting and
// memory accounting agree by construction (ISSUE 5 satellite fix).
func (p Params) SMSGMailboxBytes() int { return p.SMSGCreditSlots * p.SMSGSlotBytes }

// SMSGMaxSize reports the largest message SMSG will carry for a job of the
// given PE count. The paper: "By default, the maximum SMSG message size is
// 1024 bytes. However, as the job size increases, this limit decreases to
// reduce the mailbox memory cost for each SMSG connection pair."
func SMSGMaxSize(jobPEs int) int {
	switch {
	case jobPEs <= 1024:
		return 1024
	case jobPEs <= 4096:
		return 512
	case jobPEs <= 16384:
		return 256
	default:
		return 128
	}
}

// FMABTECrossover reports the message size at which the machine layer
// switches from FMA to BTE for RDMA transactions. The paper places the
// application crossover between 2 KiB and 8 KiB; 4096 is the BTE
// effectiveness point it cites.
const FMABTECrossover = 4096

// unitCosts resolves a Unit to its startup overhead and bandwidth.
func (p Params) unitCosts(u Unit) (overhead sim.Time, bw float64) {
	switch u {
	case UnitFMA:
		return p.FMAOverhead, p.FMABW
	case UnitBTE:
		return p.BTEOverhead, p.BTEBW
	case UnitSMSG, UnitMSGQ:
		return p.SMSGOverhead, p.FMABW
	}
	panic("gemini: unknown unit")
}
