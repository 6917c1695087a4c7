// Package lrts defines the Lower-level RunTime System interface of paper
// Section III-B: the minimal contract between the machine-independent
// Converse runtime and a machine-specific communication layer. Two
// implementations exist in this repository — internal/machine/ugnimachine
// (the paper's contribution) and internal/machine/mpimachine (the baseline)
// — and applications switch between them without any source change, exactly
// as the paper's benchmarks do ("linked with either MPI- or uGNI-based
// message-driven runtime").
package lrts

import (
	"charmgo/internal/sim"
)

// Message is the runtime's message envelope. The runtime owns message
// memory (the property Section IV exploits aggressively); Data carries the
// payload object and Size the modelled wire size in bytes.
type Message struct {
	Data    any
	Size    int
	SrcPE   int
	DstPE   int
	Handler int      // Converse handler index on the destination
	SentAt  sim.Time // PE-local time of the SyncSend call (set by the runtime)
	// Priority orders execution on the destination scheduler: lower values
	// run first (the CHARM++ convention); ties run FIFO. It does not
	// affect network transit, only queueing.
	Priority int

	// ReleaseBy, when set by a machine layer, names who frees the message's
	// receive buffer after handler execution (CmiFree). The scheduler calls
	// ReleaseBy.ReleaseBuf(ReleasePE, ReleaseCap, ReleaseRegistered) once
	// and charges the returned cost as overhead. The interface+fields form
	// replaces a per-message `func() sim.Time` closure: layers implement
	// BufReleaser once, so attaching release information to a message
	// allocates nothing.
	ReleaseBy         BufReleaser
	ReleasePE         int
	ReleaseCap        int  // buffer capacity as reported by the layer's allocator
	ReleaseRegistered bool // buffer was registered memory (deregister on free)

	// Elem and Entry are the entry header of a CHARM++ entry-method send:
	// the target array element and the entry method's index, read by the
	// array's handler on arrival (zero for other messages). As in CHARM++'s
	// envelope, the header travels in the runtime's pooled message, so an
	// entry send allocates no payload record of its own. They fill the
	// padding after ReleaseRegistered: the envelope stays in the 112-byte
	// allocation size class (TestMessageSizeClass).
	Elem, Entry int32
}

// BufReleaser frees a receive buffer previously attached to a Message via
// ReleaseBy/ReleasePE/ReleaseCap/ReleaseRegistered, returning the host CPU
// cost of the free.
type BufReleaser interface {
	ReleaseBuf(pe, capacity int, registered bool) sim.Time
}

// Host is what a machine layer may ask of the runtime: the event engine,
// machine geometry, per-PE CPU resources for progress-engine work, message
// delivery into the scheduler, and overhead attribution for tracing.
type Host interface {
	Eng() *sim.Engine
	NumPEs() int
	// CPU returns the serially reusable processor resource of a PE; machine
	// layers book receive-side protocol work on it.
	CPU(pe int) *sim.PEResource
	// Deliver hands a fully received message to the destination scheduler
	// no earlier than at.
	Deliver(pe int, msg *Message, at sim.Time)
	// NoteOverhead attributes [from, to) on pe to runtime overhead for the
	// Projections-style time profile.
	NoteOverhead(pe int, from, to sim.Time)
}

// UndeliveredSink is the optional Host surface a machine layer uses to
// account for a message it accepted via SyncSend but will never deliver —
// a send stranded in host memory when its source node fail-stopped
// (DESIGN.md §7 "Node failure and recovery"). The host balances its
// quiescence counters and reclaims the envelope; the layer must not touch
// the message afterwards. converse.Machine implements it.
type UndeliveredSink interface {
	DropUndelivered(msg *Message, at sim.Time)
}

// NodeDeathHandler is the optional layer surface the runtime invokes when
// a node fail-stops: the layer reaps protocol state that lived in the dead
// node's host memory (pending-send queues whose source ranks died). NIC-
// side state is deliberately untouched — the fail-stop boundary is the
// scheduler, and in-flight DMA drains normally (DESIGN.md §7).
type NodeDeathHandler interface {
	OnNodeDeath(node int, at sim.Time)
}

// LayerCheckpoint is a machine layer's contribution to a coordinated
// in-memory checkpoint. Records are typically pool-backed; Release returns
// the record for reuse and must be called exactly once.
type LayerCheckpoint interface {
	Release()
}

// Checkpointer is the optional layer surface for coordinated in-memory
// checkpoints. The coordination rule (DESIGN.md §7): a checkpoint is only
// taken at communication quiescence, so CheckpointState verifies the
// layer's protocol state is empty — credit windows whole, pending-send
// queues drained, no rendezvous flights — rather than serializing
// in-flight state, and fails loudly if the rule was violated.
type Checkpointer interface {
	CheckpointState() (LayerCheckpoint, error)
}

// SendContext is the sender-side view a machine layer gets during
// LrtsSyncSend: the calling PE, its PE-local virtual clock, and the ability
// to charge send-side CPU work against it.
type SendContext interface {
	PE() int
	Now() sim.Time
	// Charge advances the PE-local clock by d units of runtime overhead.
	Charge(d sim.Time)
}

// PersistentHandle names a persistent communication channel created by
// CreatePersistent (paper Section IV-A). Handles are layer-scoped.
type PersistentHandle int

// ErrNoPersistent is returned by layers that do not implement persistent
// channels (the MPI-based baseline).
type unsupportedError string

func (e unsupportedError) Error() string { return string(e) }

// ErrUnsupported reports that a layer lacks an optional capability.
const ErrUnsupported = unsupportedError("lrts: operation not supported by this machine layer")

// Layer is the LRTS machine layer contract (paper Section III-B): LrtsInit
// maps to Start, LrtsSyncSend to SyncSend; LrtsNetworkEngine has no direct
// analogue because the simulator is event-driven — completion-queue hooks
// invoke the layer instead of a polling loop (DESIGN.md §5).
type Layer interface {
	// Name identifies the layer in experiment output ("ugni", "mpi").
	Name() string
	// Start initializes per-PE state (CQs, pools, mailbox attachments).
	Start(h Host)
	// SyncSend sends msg; non-blocking (the message is handed to the
	// network or buffered, never synchronously delivered).
	SyncSend(ctx SendContext, msg *Message)
	// CreatePersistent sets up a persistent channel to dstPE with a
	// receive buffer of maxBytes (LrtsCreatePersistent).
	CreatePersistent(ctx SendContext, dstPE, maxBytes int) (PersistentHandle, error)
	// SendPersistent sends over a persistent channel
	// (LrtsSendPersistentMsg).
	SendPersistent(ctx SendContext, h PersistentHandle, msg *Message) error
	// Stats exposes layer counters for the experiment harness.
	Stats() map[string]int64
}
