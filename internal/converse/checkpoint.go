package converse

import (
	"fmt"

	"charmgo/internal/lrts"
	"charmgo/internal/mem"
	"charmgo/internal/sim"
)

// Coordinated in-memory checkpoint (DESIGN.md §7 "Node failure and
// recovery"). The coordination rule: a checkpoint is taken only at
// communication quiescence — every sent message processed, every
// scheduler queue empty, no kernel events pending — so the snapshot
// reduces to the kernel clock/sequence state plus verified-empty machine
// layer tables. Restoring it onto a fresh machine (charmgo
// MachineConfig.Resume) and replaying the same workload reproduces the
// unbroken run bit-identically, which is what makes rollback recovery
// *testable*: the proof harness compares a rolled-back replay against the
// continuous oracle byte for byte.

// Checkpoint is one machine snapshot. Records are pool-backed; Release
// returns the record (and the layer's) for reuse.
type Checkpoint struct {
	// Kernel is the clock/sequence snapshot to restore the engine from.
	Kernel sim.KernelCheckpoint
	// Sent and Processed are the quiescence counters at the snapshot
	// (equal, by the coordination rule).
	Sent, Processed uint64
	// Layer is the machine layer's verified-empty state record, nil when
	// the layer has no checkpoint surface.
	Layer lrts.LayerCheckpoint
}

// checkpoints pools machine snapshot records across Checkpoint/Release
// cycles.
var checkpoints mem.FreeList[Checkpoint]

// Checkpoint snapshots a quiescent machine. It fails — taking no
// snapshot — if any quiescence condition is violated: unprocessed sends,
// pending kernel events, occupied scheduler queues, or machine-layer
// protocol state still in flight (the layer verifies its own emptiness).
// The caller owns the returned record and must Release it exactly once.
//
//simlint:acquire
func (m *Machine) Checkpoint() (*Checkpoint, error) {
	if m.sent != m.processed {
		return nil, fmt.Errorf("converse: checkpoint before quiescence (%d sent, %d processed)", m.sent, m.processed)
	}
	if n := m.eng.Pending(); n != 0 {
		return nil, fmt.Errorf("converse: checkpoint with %d kernel events pending", n)
	}
	for pe := range m.procs {
		if len(m.procs[pe].q) != 0 {
			return nil, fmt.Errorf("converse: checkpoint with %d messages queued on PE %d", len(m.procs[pe].q), pe)
		}
	}
	kck, err := m.eng.Checkpoint()
	if err != nil {
		return nil, err
	}
	var lck lrts.LayerCheckpoint
	if c, ok := m.layer.(lrts.Checkpointer); ok {
		lck, err = c.CheckpointState()
		if err != nil {
			return nil, fmt.Errorf("converse: layer checkpoint: %w", err)
		}
	}
	ck := checkpoints.Get()
	ck.Kernel = kck
	ck.Sent, ck.Processed = m.sent, m.processed
	ck.Layer = lck
	m.NoteFault(sim.FaultCheckpoint, m.eng.Now())
	return ck, nil
}

// Release returns the snapshot record — and the layer record it carries —
// to their pools. The checkpoint must not be used afterwards.
//
//simlint:release
func (ck *Checkpoint) Release() {
	if ck.Layer != nil {
		ck.Layer.Release()
		ck.Layer = nil
	}
	checkpoints.Put(ck)
}
