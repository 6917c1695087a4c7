package ugni

import (
	"fmt"

	"charmgo/internal/gemini"
	"charmgo/internal/sim"
)

// MSGQ support (paper Section II-B): "MSGQ overcomes the above scalability
// issue due to memory cost, but at the expense of lower performance. Setup
// of MSGQs is done on a per-node rather than per-peer basis, so the memory
// only grows as the number of nodes in the job."
//
// The simulator models this as SMSG with an extra per-message protocol
// cost and per-node-pair (instead of per-PE-pair) queue memory.

// MsgqSend sends a short tagged message through the per-node message
// queues. Semantics match SmsgSendWTag (delivery into the destination PE's
// attached SMSG receive CQ); the size cap is the same, the wire cost is
// higher, and queue memory is accounted per node pair. MSGQ queues are
// shared per node rather than per PE pair, so there is no per-connection
// credit window: MsgqSend never returns RCNotDone, which is exactly why the
// machine layer degrades to it when SMSG is starved.
func (g *GNI) MsgqSend(src, dst int, tag uint8, size int, payload any, at sim.Time) (sim.Time, RC, error) {
	if size > g.smsgMax {
		return 0, RCErrorResource, fmt.Errorf("%w: %d > %d", ErrSmsgTooBig, size, g.smsgMax)
	}
	rx := g.rxCQ[dst]
	if rx == nil {
		return 0, RCErrorResource, fmt.Errorf("ugni: PE %d has no attached SMSG receive CQ", dst)
	}
	sNode, dNode := g.Net.NodeOf(src), g.Net.NodeOf(dst)
	g.connectMsgq(sNode, dNode)
	// The MSGQ NIC engine is the SMSG hardware view plus the protocol's
	// per-message surcharge, already folded into the arrival time.
	_, arrive := g.Net.Transfer(sNode, dNode, size, gemini.UnitMSGQ, at)
	rx.push(arrive+g.Net.P.CQLatency, Event{
		Type: EvSmsg, Src: src, Dst: dst, Tag: tag, Size: size, Payload: payload,
	})
	return g.Net.P.HostSendCPU + g.Net.P.MSGQExtraOverhead/2, RCSuccess, nil
}

// connectMsgq accounts queue memory once per node pair.
func (g *GNI) connectMsgq(a, b int) {
	key := uint64(a)<<32 | uint64(uint32(b))
	if a > b {
		key = uint64(b)<<32 | uint64(uint32(a))
	}
	if g.msgqConns == nil {
		//simlint:allow hotpathalloc -- MSGQ establishment: first shared receive queue use only, modeling the real one-time queue allocation
		g.msgqConns = make(map[uint64]bool)
	}
	if !g.msgqConns[key] {
		//simlint:allow hotpathalloc -- MSGQ establishment: first message between a node pair only
		g.msgqConns[key] = true
		g.msgqBytes += 2 * int64(g.Net.P.MSGQBytesPerNode)
	}
}

// MsgqBytes reports memory consumed by MSGQ queues: it grows with node
// pairs, not PE pairs.
func (g *GNI) MsgqBytes() int64 { return g.msgqBytes }
