package mpimachine

import (
	"fmt"

	"charmgo/internal/lrts"
	"charmgo/internal/mem"
	"charmgo/internal/mpi"
	"charmgo/internal/sim"
)

// Node-failure and checkpoint surfaces of the MPI baseline (DESIGN.md §7
// "Node failure and recovery"). The fail-stop boundary is the converse
// scheduler: a dead node's progress engine keeps pumping — its Iprobe/
// Recv machinery is modelled on the NIC side of the boundary — and every
// message it delivers to a dead PE drops at the scheduler with exact
// quiescence accounting. What the layer must reap itself is host memory
// lost with the node: sends parked in the library's RC_NOT_DONE pending
// queues by ranks that died before their credits came back.

// OnNodeDeath implements lrts.NodeDeathHandler: surrender every pending
// send queued by a PE on the dead node, routing the stranded payloads
// through the host's quiescence accounting.
func (l *Layer) OnNodeDeath(node int, at sim.Time) {
	sink, ok := l.host.(lrts.UndeliveredSink)
	if !ok {
		return
	}
	l.comm.ReapDeadSends(node, func(env *mpi.Envelope) {
		if msg, ok := env.Payload.(*lrts.Message); ok {
			env.Payload = nil
			sink.DropUndelivered(msg, at)
		}
	})
}

// Checkpoint is the MPI baseline's contribution to a coordinated
// in-memory snapshot: the layer's send counter and buffer cursor. It is
// pool-backed; Release returns it.
type Checkpoint struct {
	Sends, NextBuf int64
}

// ckpts pools layer snapshot records across CheckpointState/Release
// cycles.
var ckpts mem.FreeList[Checkpoint]

// CheckpointState implements lrts.Checkpointer. Under the coordination
// rule the layer holds no serializable protocol state at a legal
// checkpoint, so this *verifies* emptiness — no arrived-but-unreceived
// envelopes and a fully drained communicator — and fails the checkpoint
// loudly otherwise. The caller owns the returned record until Release.
//
//simlint:acquire
func (l *Layer) CheckpointState() (lrts.LayerCheckpoint, error) {
	for pe := range l.queues {
		if n := len(l.queues[pe]); n != 0 {
			return nil, fmt.Errorf("mpimachine: %d envelopes queued on PE %d", n, pe)
		}
	}
	if err := l.comm.CheckpointReady(); err != nil {
		return nil, err
	}
	ck := ckpts.Get()
	ck.Sends, ck.NextBuf = l.sends, l.nextBuf
	return ck, nil
}

// Release implements lrts.LayerCheckpoint.
//
//simlint:release
func (c *Checkpoint) Release() { ckpts.Put(c) }

var (
	_ lrts.NodeDeathHandler = (*Layer)(nil)
	_ lrts.Checkpointer     = (*Layer)(nil)
	_ lrts.LayerCheckpoint  = (*Checkpoint)(nil)
)
