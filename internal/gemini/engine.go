package gemini

import (
	"charmgo/internal/sim"
)

// unitEngine is one NIC transfer engine of one node — the FMA unit, the
// BTE unit, or the SMSG/MSGQ protocol views of the FMA hardware — and is
// the single audited booking path of the Gemini model: every Acquire the
// network performs happens in this file (engine serialization here, link
// booking in bookPath). It implements sim.NICEngine.
//
// SMSG shares the FMA gap resource (mailbox messages ride the FMA
// hardware with the mailbox protocol's per-message overhead); MSGQ is
// SMSG plus a fixed wire-protocol surcharge on delivery, modelled as
// `extra` added to every arrival time.
type unitEngine struct {
	net      *Network
	name     sim.Name
	node     int
	res      *sim.GapResource
	overhead sim.Time // engine startup per transaction
	bw       float64  // engine serialization bandwidth, bytes/ns
	extra    sim.Time // MSGQ-only: protocol overhead added to arrivals
}

var _ sim.NICEngine = (*unitEngine)(nil)

// Name labels the engine for diagnostics.
func (u *unitEngine) Name() string { return u.name.String() }

// Ready reports the engine's next idle instant at or after `at`, without
// booking anything.
func (u *unitEngine) Ready(at sim.Time) sim.Time {
	s, _ := u.res.Peek(at, 0)
	return s
}

// Serialization reports the engine-side serialization time for a payload.
func (u *unitEngine) Serialization(size int) sim.Time {
	return sim.DurationOf(size, u.bw)
}

// Enqueue schedules a completion callback on the machine's event loop.
//
//simlint:hotpath
func (u *unitEngine) Enqueue(at sim.Time, fn func()) {
	u.net.Eng.At(at, fn)
}

// EnqueueArg schedules a closure-free completion callback on the machine's
// event loop (see sim.Engine.AtArg).
//
//simlint:hotpath
func (u *unitEngine) EnqueueArg(at sim.Time, fn func(any), arg any) {
	u.net.Eng.AtArg(at, fn, arg)
}

// Transfer books a data movement of size bytes from this engine's node to
// dstNode, ready to start no earlier than `ready`. It books the engine
// and every directional link on the dimension-ordered path (wormhole
// approximation: a common start time after the most-loaded link frees,
// one serialization term at the bottleneck bandwidth, per-hop latency).
// It returns:
//
//	srcDone:   the source engine is free / source buffer no longer in use
//	dstArrive: the last byte has landed in destination memory
//
//simlint:hotpath
func (u *unitEngine) Transfer(dstNode, size int, ready sim.Time) (srcDone, dstArrive sim.Time) {
	n := u.net
	if size < 0 {
		size = 0
	}
	n.transfers++
	n.bytes += int64(size)
	serUnit := sim.DurationOf(size, u.bw)

	if u.node == dstNode {
		// NIC loopback. Contends with inter-node traffic on the same engine
		// (the behaviour Section IV.C warns about).
		ser := serUnit
		if lb := sim.DurationOf(size, n.P.LoopbackBW); lb > ser {
			ser = lb
		}
		_, e := u.res.Acquire(ready, u.overhead+ser)
		return e, e + n.P.LoopbackLatency + u.extra
	}

	es, ee := u.res.Acquire(ready, u.overhead+serUnit)
	launch := es + u.overhead
	dstArrive = n.bookPath(u.node, dstNode, size, serUnit, launch)
	return ee, dstArrive + u.extra
}

// Get books a read transaction: this engine sends a read request to the
// target node, and the data flows back along target->requester links. It
// returns when the request engine is done issuing and when the data has
// fully arrived at the requester.
//
//simlint:hotpath
func (u *unitEngine) Get(target, size int, ready sim.Time) (reqDone, dataArrive sim.Time) {
	n := u.net
	if size < 0 {
		size = 0
	}
	n.transfers++
	n.bytes += int64(size)
	serUnit := sim.DurationOf(size, u.bw)

	if u.node == target {
		ser := serUnit
		if lb := sim.DurationOf(size, n.P.LoopbackBW); lb > ser {
			ser = lb
		}
		_, e := u.res.Acquire(ready, u.overhead+ser)
		return e, e + n.P.LoopbackLatency + u.extra
	}

	es, ee := u.res.Acquire(ready, u.overhead+serUnit)
	reqArrive := es + u.overhead + n.pathLatency(u.node, target)
	dataArrive = n.bookPath(target, u.node, size, serUnit, reqArrive)
	return ee, dataArrive + u.extra
}

// bookPath advances a message head along the dimension-ordered path,
// booking each directional link in its earliest gap (wormhole-style: the
// head waits where a link is busy, serialization overlaps across hops).
// It returns the arrival time of the last byte in destination memory.
// The path comes from the per-(src, dst) route cache: dense link indices
// computed once per pair, so steady-state booking neither re-enumerates
// the path nor allocates.
func (n *Network) bookPath(srcNode, dstNode, size int, serUnit, launch sim.Time) sim.Time {
	path := n.route(srcNode, dstNode)
	serLink := sim.DurationOf(size, n.P.LinkBW)
	ser := serUnit
	if serLink > ser {
		ser = serLink
	}
	t := launch
	lastStart := launch
	for _, li := range path {
		s, _ := n.links[li].Acquire(t, serLink)
		lastStart = s
		t = s + n.P.HopLatency
	}
	return lastStart + n.P.HopLatency + n.P.InjectionLatency + ser
}
