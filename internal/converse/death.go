package converse

import (
	"fmt"

	"charmgo/internal/lrts"
	"charmgo/internal/sim"
)

// Node-failure semantics (DESIGN.md §7 "Node failure and recovery").
//
// A node kill is fail-stop at the *scheduler* boundary: the node's PEs
// stop dispatching forever — queued messages drop, the pending dispatch
// cancels, and no handler on a dead PE runs again. The NIC deliberately
// survives: CQ hooks, credit returns, and in-flight DMA on a dead node
// drain normally, exactly as Gemini hardware drains transactions after a
// rank dies. That boundary is what keeps the machine-layer conservation
// invariants (credits consumed == returned + in flight, rendezvous pools
// drained) intact across any kill schedule, so recovery strategies build
// on a layer whose accounting never wedges.
//
// Messages addressed to a dead PE either drop (with exact quiescence
// accounting — a dropped message counts as processed, and its receive
// buffer is released like any handled message) or, when a DeadRoute is
// installed, reroute to a surviving replica: the warm-failover hook the
// team-replication strategy uses.

// DeadRoute decides what happens to a message delivered to a dead PE:
// return a live PE and true to reroute it there, or false to drop it.
// The hook runs on the delivery path, so it must not allocate or touch
// simulation state.
type DeadRoute func(msg *lrts.Message, deadPE int, at sim.Time) (newPE int, ok bool)

// SetDeadRoute installs the dead-PE delivery policy. With none installed,
// deliveries to dead PEs drop.
func (m *Machine) SetDeadRoute(fn DeadRoute) { m.redirect = fn }

// ScheduleNodeKill books a fail-stop of every PE on node at virtual time
// at.
func (m *Machine) ScheduleNodeKill(node int, at sim.Time) {
	if node < 0 || node >= m.net.NumNodes() {
		panic(fmt.Sprintf("converse: ScheduleNodeKill(%d) on a %d-node machine", node, m.net.NumNodes()))
	}
	if m.deadPE == nil {
		m.deadPE = make([]bool, len(m.procs))
	}
	n := m.kills.Get()
	n.m = m
	n.node = node
	n.at = at
	m.eng.AtArg(at, fireKill, n)
}

// killNode is one scheduled fail-stop, pooled so kills book closure-free.
type killNode struct {
	m    *Machine
	node int
	at   sim.Time
}

func fireKill(arg any) {
	n := arg.(*killNode)
	m, node, at := n.m, n.node, n.at
	m.kills.Put(n)
	m.killNode(node, at)
}

func (m *Machine) killNode(node int, at sim.Time) {
	cpn := m.net.P.CoresPerNode
	fresh := false
	for pe := node * cpn; pe < (node+1)*cpn; pe++ {
		if m.deadPE[pe] {
			continue
		}
		fresh = true
		m.deadPE[pe] = true
		p := &m.procs[pe]
		if p.dispatchAt != nil {
			p.dispatchAt.Cancel()
			p.dispatchAt = nil
		}
		for len(p.q) > 0 {
			m.dropDead(p.q.pop().msg)
		}
	}
	if !fresh {
		return // node already dead: a duplicate kill is a no-op
	}
	m.deadNodes++
	m.NoteFault(sim.FaultNodeKill, at)
	if h, ok := m.layer.(lrts.NodeDeathHandler); ok {
		h.OnNodeDeath(node, at)
	}
	m.checkQuiescence(at)
}

// deliverDead handles a delivery addressed to a dead PE: reroute through
// the DeadRoute if one is installed and names a live PE, else drop.
//
//simlint:hotpath
func (m *Machine) deliverDead(pe int, msg *lrts.Message, at sim.Time) {
	if m.redirect != nil {
		if npe, ok := m.redirect(msg, pe, at); ok && !m.deadPE[npe] {
			m.NoteFault(sim.FaultReroute, at)
			p := &m.procs[npe]
			p.q.push(queued{msg: msg, seq: p.seq})
			p.seq++
			p.kick(at)
			return
		}
	}
	m.dropDead(msg)
	m.checkQuiescence(at)
}

// dropDead retires an undeliverable message with exact quiescence
// accounting: it counts as processed, its receive buffer returns to the
// machine layer's pool, and the envelope recycles. Callers re-check
// quiescence afterwards.
//
//simlint:hotpath
func (m *Machine) dropDead(msg *lrts.Message) {
	m.processed++
	m.dropped++
	if rb := msg.ReleaseBy; rb != nil {
		rb.ReleaseBuf(msg.ReleasePE, msg.ReleaseCap, msg.ReleaseRegistered)
		msg.ReleaseBy = nil
	}
	m.msgs.Put(msg)
}

// DropUndelivered implements lrts.UndeliveredSink: a machine layer
// surrenders a send stranded in a dead node's host memory, and the
// runtime balances the quiescence counters and reclaims the envelope.
func (m *Machine) DropUndelivered(msg *lrts.Message, at sim.Time) {
	m.dropDead(msg)
	m.checkQuiescence(at)
}

// DeadPE reports whether a PE's node has been killed.
func (m *Machine) DeadPE(pe int) bool { return m.deadPE != nil && m.deadPE[pe] }

// DeadNodes reports how many nodes have been killed so far.
func (m *Machine) DeadNodes() int { return m.deadNodes }

// DroppedDead reports how many messages were dropped at dead PEs (or
// surrendered by layers reaping dead senders) instead of being handled.
func (m *Machine) DroppedDead() uint64 { return m.dropped }

// NoteFault forwards a fault-model observation to the installed probe, if
// any — the hook recovery strategies use to record heartbeat misses,
// failovers, and rollbacks in the same counter stream as NIC faults.
func (m *Machine) NoteFault(k sim.FaultKind, at sim.Time) {
	if p := m.eng.Probe(); p != nil {
		p.FaultNoted(k, at)
	}
}

var _ lrts.UndeliveredSink = (*Machine)(nil)
