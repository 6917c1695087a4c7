package ugni

import (
	"errors"
	"fmt"
	"math/bits"

	"charmgo/internal/gemini"
	"charmgo/internal/mem"
	"charmgo/internal/sim"
)

// GNI is one job's handle on the simulated Gemini NICs: it owns the SMSG
// connection state, routes events into per-PE completion queues, and tracks
// registration statistics.
type GNI struct {
	Net *gemini.Network

	smsgMax int
	rxCQ    []*CQ            // per-PE SMSG receive CQ (attached by the machine layer)
	amoRegs map[amoKey]int64 // lazily created on first AMO

	// eps holds the SMSG endpoints, one table per sending PE (nil until
	// the first send or squeeze): the PE's record for each peer it has
	// an ordered connection to, created on the pair's first send (or by
	// SqueezeCredits). A record carries the pair's credit window and
	// whether this direction has sent. A send looks its record up once
	// and the delivery carries it, so the receive side returns the credit
	// when it dequeues the message (hook invocation or GetEvent) without
	// a lookup. A sender that saw RCNotDone gets one EvCreditReturn
	// notification per starvation episode when the window reopens.
	eps []epTable
	// slab is the current chunk the records are carved from. Chunks are
	// never reallocated, so a record's address is stable for the job.
	slab            []smsgConn
	creditsInFlight int64 //simlint:proto credit account

	// txArm counts armed one-shot transaction errors per initiator PE
	// (nil until the fault injector arms one).
	txArm map[int]int

	msgqConns map[uint64]bool
	msgqBytes int64

	// Fault/recovery counters (see the matching accessors).
	smsgNotDone    uint64
	creditConsumed uint64
	creditReturns  uint64
	txErrors       uint64
	cqOverruns     uint64

	// cqNodes pools in-flight CQ deliveries; descs pools post descriptors
	// for callers that follow the acquire/release contract (NewPostDesc /
	// ReleasePostDesc). See DESIGN.md §2.2. amoFlights and creditFlights
	// pool the records an AMO request and a returning credit carry
	// between their wire booking and the event that applies them.
	cqNodes       mem.FreeList[cqNode]
	descs         mem.FreeList[PostDesc]
	amoFlights    mem.FreeList[amoFlight]
	creditFlights mem.FreeList[creditFlight]

	registeredBytes int64
	registrations   uint64
}

// New creates a GNI instance for the whole job. The SMSG maximum message
// size is derived from the job's PE count (paper Section III-C).
func New(net *gemini.Network) *GNI {
	return &GNI{
		Net:     net,
		smsgMax: gemini.SMSGMaxSize(net.NumPEs()),
		rxCQ:    make([]*CQ, net.NumPEs()),
	}
}

// MaxSmsgSize reports the largest message SMSG will carry for this job.
func (g *GNI) MaxSmsgSize() int { return g.smsgMax }

// CqCreate mirrors GNI_CqCreate: it returns an empty completion queue with
// the machine's configured finite depth.
func (g *GNI) CqCreate(name string) *CQ {
	return &CQ{name: sim.Lit(name), eng: g.Net.Eng, g: g, depth: int32(g.Net.P.CQDepth)}
}

// CqCreateIdx is CqCreate for per-PE queues ("<pre><idx><post>"): the
// label is kept lazy so creating thousands of queues costs no formatting.
func (g *GNI) CqCreateIdx(pre string, idx int, post string) *CQ {
	cq := &CQ{}
	g.CqInitIdx(cq, pre, idx, post)
	return cq
}

// CqInitIdx initializes cq in place with CqCreateIdx semantics, for machine
// layers that slab-allocate their per-PE queue arrays (`make([]ugni.CQ, n)`)
// instead of paying one heap object per queue.
func (g *GNI) CqInitIdx(cq *CQ, pre string, idx int, post string) {
	*cq = CQ{name: sim.Indexed(pre, idx, post), eng: g.Net.Eng, g: g, idx: int32(idx), depth: int32(g.Net.P.CQDepth)}
}

// NewPostDesc acquires a zeroed post descriptor from the job-wide pool.
// The matching ReleasePostDesc call happens at the descriptor's completion
// event (the last CQ event the post generates); a descriptor that outlives
// its transaction must be heap-allocated instead.
//
//simlint:acquire
func (g *GNI) NewPostDesc() *PostDesc { return g.descs.Get() }

// ReleasePostDesc returns a pool-acquired descriptor. The caller must not
// touch d afterwards.
//
//simlint:release
func (g *GNI) ReleasePostDesc(d *PostDesc) { g.descs.Put(d) }

// AttachSmsgCQ designates cq as the receive CQ for incoming SMSG messages
// addressed to pe.
func (g *GNI) AttachSmsgCQ(pe int, cq *CQ) {
	g.rxCQ[pe] = cq
}

// MemHandle is an opaque registration handle, mirroring gni_mem_handle_t.
type MemHandle struct {
	Node int
	Size int
}

// MemRegister mirrors GNI_MemRegister: it registers size bytes on the PE's
// node and returns the handle plus the host CPU cost the caller must charge.
func (g *GNI) MemRegister(pe, size int) (MemHandle, sim.Time) {
	g.registeredBytes += int64(size)
	g.registrations++
	return MemHandle{Node: g.Net.NodeOf(pe), Size: size}, g.Net.P.Mem.Register(size)
}

// MemDeregister mirrors GNI_MemDeregister and returns the CPU cost.
func (g *GNI) MemDeregister(h MemHandle) sim.Time {
	g.registeredBytes -= int64(h.Size)
	return g.Net.P.Mem.Deregister()
}

// RegisteredBytes reports currently registered bytes across the job.
func (g *GNI) RegisteredBytes() int64 { return g.registeredBytes }

// Registrations reports the cumulative GNI_MemRegister call count.
func (g *GNI) Registrations() uint64 { return g.registrations }

// MailboxBytes reports memory consumed by SMSG mailboxes: per connected PE
// pair, each endpoint allocates a finite mailbox ring of SMSGCreditSlots
// slots of SMSGSlotBytes each — the same window the credit protocol
// enforces, so memory accounting and back-pressure accounting agree. It
// grows with distinct connected pairs — the scalability cost the paper
// attributes to SMSG.
//
// A pair's mailboxes exist from its first send in either direction, which
// marks that direction's record (smsgConn.mailbox); a record SqueezeCredits
// created before any send has none. The pairs are counted here, from the
// records, rather than on the send path: a first send then only sets its
// own flag and never probes the peer's table for the reverse record. A
// pair is counted at its lower rank's record, or at the higher rank's
// when the lower rank never sent.
func (g *GNI) MailboxBytes() int64 {
	var pairs int64
	for src := range g.eps {
		for _, c := range g.eps[src].slots {
			if c == nil || !c.mailbox {
				continue
			}
			if dst := int(c.peer); src <= dst {
				pairs++
			} else if r := g.eps[dst].find(src); r == nil || !r.mailbox {
				pairs++
			}
		}
	}
	return pairs * 2 * int64(g.Net.P.SMSGMailboxBytes())
}

// smsgConn is one ordered (src→dst) connection: peer is dst, the key its
// endpoint-table slot is found by, inflight counts slots occupied in
// dst's mailbox, limit is the current window size (narrowed by
// SqueezeCredits), starved marks a sender waiting for an EvCreditReturn
// notification, and mailbox marks that this direction has sent, so the
// pair's mailboxes exist (see MailboxBytes).
type smsgConn struct {
	peer     int32
	limit    int32
	inflight int32 //simlint:proto credit window
	starved  bool
	mailbox  bool
}

// epTable is one PE's SMSG endpoints, the model of the endpoints the
// machine layer binds once per peer (GNI_EpCreate/GNI_EpBind): an
// open-addressed table keyed by peer rank with linear probing. Its size
// is a power of two that doubles before the load passes 3/4, so a PE's
// few dozen peers share a few cache lines instead of a job-wide map. A
// slot is the record's address alone (nil when empty); the record holds
// the peer rank it is keyed by, so a slot is 8 bytes and a cache line
// holds eight.
type epTable struct {
	slots []*smsgConn
	n     int32 // occupied slots
	shift uint8 // 32 - log2(len(slots)): epHash keeps the top bits
}

const (
	epMinSlots  = 8    // a table's first size
	epSlabFirst = 16   // the first record chunk
	epSlabMax   = 1024 // record chunks double up to this size
)

// epHash spreads peer ranks over the table (Fibonacci hashing), so
// strided peer sets do not pile up in one run of slots.
func epHash(peer int32, shift uint8) uint32 { return uint32(peer) * 0x9E3779B9 >> shift }

// find returns the record for peer, or nil if the PE never connected to
// it.
func (t *epTable) find(peer int) *smsgConn {
	if t.n == 0 {
		return nil
	}
	mask := uint32(len(t.slots) - 1)
	for i := epHash(int32(peer), t.shift); ; i = (i + 1) & mask {
		if c := t.slots[i]; c == nil || c.peer == int32(peer) {
			return c
		}
	}
}

// insert binds c, keyed by its peer, in a table with a free slot.
func (t *epTable) insert(c *smsgConn) {
	mask := uint32(len(t.slots) - 1)
	i := epHash(c.peer, t.shift)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = c
	t.n++
}

// grow doubles the table (or gives an empty one its first slots) and
// rehashes every binding; the records themselves do not move.
func (t *epTable) grow() {
	size := epMinSlots
	if len(t.slots) > 0 {
		size = 2 * len(t.slots)
	}
	old := t.slots
	t.slots = epAlloc[*smsgConn](size)
	t.n = 0
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for _, c := range old {
		if c != nil {
			t.insert(c)
		}
	}
}

// epAlloc is the endpoint tables' one allocation site: the per-PE table
// array (once per job), a table's slots when it doubles, and a record
// chunk when the last one fills. Each runs on connection establishment
// only, never for a message on an established pair.
func epAlloc[T any](n int) []T {
	//simlint:allow hotpathalloc -- connection establishment: per-PE endpoint tables, doubling slot arrays and record chunks, amortized over a pair's first send
	return make([]T, n)
}

// window is the configured credit window of a fresh or restored
// connection: SMSGCreditSlots, or unbounded when credits are disabled by
// configuration (SMSGCreditSlots <= 0).
func (g *GNI) window() int32 {
	if w := g.Net.P.SMSGCreditSlots; w > 0 {
		return int32(w)
	}
	return 1 << 30
}

// conn returns (creating on first use) the credit window for src→dst.
func (g *GNI) conn(src, dst int) *smsgConn {
	if src < len(g.eps) {
		if c := g.eps[src].find(dst); c != nil {
			return c
		}
	}
	return g.newConn(src, dst)
}

// newConn establishes src's endpoint for dst: a record carved from the
// current chunk, bound in src's table. Records are created in first-use
// order, the same order every run.
func (g *GNI) newConn(src, dst int) *smsgConn {
	if g.eps == nil {
		g.eps = epAlloc[epTable](g.Net.NumPEs())
	}
	if len(g.slab) == cap(g.slab) {
		size := min(max(2*cap(g.slab), epSlabFirst), epSlabMax)
		g.slab = epAlloc[smsgConn](size)[:0]
	}
	g.slab = g.slab[:len(g.slab)+1]
	c := &g.slab[len(g.slab)-1]
	c.peer, c.limit = int32(dst), g.window()
	t := &g.eps[src]
	if 4*(int(t.n)+1) > 3*len(t.slots) {
		t.grow()
	}
	t.insert(c)
	return c
}

// smsgConsumed returns one credit on c, the src→dst window the delivery
// carried: the receive side dequeued a message, freeing its mailbox slot.
// Intra-node the window reopens immediately; internode the credit rides a
// control packet back to the sender's NIC, so the decrement lands one
// ControlLatency later — as an event on the *sender's* node, so every
// mutation of an outbound credit window happens at the sender (the
// receive side only launches the packet). If the sender starved while the
// window was full, one EvCreditReturn notification is delivered to its
// SMSG receive CQ when the credit lands.
//
//simlint:proto credit return
func (g *GNI) smsgConsumed(c *smsgConn, src, dst int, now sim.Time) {
	srcNode := g.Net.NodeOf(src)
	dstNode := g.Net.NodeOf(dst)
	if srcNode == dstNode {
		c.inflight--
		g.creditsInFlight--
		g.creditReturns++
		if c.starved && c.inflight < c.limit {
			c.starved = false
			g.notifyCreditReturn(src, dst, now)
		}
		return
	}
	fl := g.creditFlights.Get()
	fl.g, fl.c, fl.src, fl.dst = g, c, int32(src), int32(dst)
	fl.at = now + g.Net.ControlLatency(dstNode, srcNode)
	g.Net.Eng.AtArg(fl.at, creditBack, fl)
}

// creditFlight carries one internode credit return through the engine:
// the control packet from the consuming receiver back to the sender's NIC.
// c is the sender's window; the receiver only forwards it, and creditBack
// mutates it on the sender's node.
//
//simlint:proto flight record
type creditFlight struct {
	g        *GNI
	c        *smsgConn
	at       sim.Time
	src, dst int32
}

// creditBack lands an internode credit return on the sender's node: the
// window decrement and, if the sender starved, the EvCreditReturn wake-up
// (the control packet already flew, so only the CQ hop remains — the same
// total latency the starved path always paid).
//
//simlint:hotpath
//simlint:proto credit return
//simlint:proto flight complete
func creditBack(arg any) {
	fl := arg.(*creditFlight)
	g, c, src, dst, at := fl.g, fl.c, int(fl.src), int(fl.dst), fl.at
	*fl = creditFlight{}
	g.creditFlights.Put(fl)
	c.inflight--
	g.creditsInFlight--
	g.creditReturns++
	if c.starved && c.inflight < c.limit {
		c.starved = false
		if cq := g.rxCQ[src]; cq != nil {
			cq.push(at+g.Net.P.CQLatency, Event{
				Type: EvCreditReturn, Src: src, Dst: dst,
			})
		}
	}
}

// notifyCreditReturn schedules the EvCreditReturn event on the sender's
// receive CQ, one control-packet flight away. Bare-API users without an
// attached CQ poll the RC instead.
func (g *GNI) notifyCreditReturn(src, dst int, now sim.Time) {
	tx := g.rxCQ[src]
	if tx == nil {
		return
	}
	lat := g.Net.ControlLatency(g.Net.NodeOf(dst), g.Net.NodeOf(src))
	tx.push(now+lat+g.Net.P.CQLatency, Event{
		Type: EvCreditReturn, Src: src, Dst: dst,
	})
}

// noteFault reports a fault-model observation to the installed kernel
// probe, if any.
func (g *GNI) noteFault(k sim.FaultKind, now sim.Time) {
	if p := g.Net.Eng.Probe(); p != nil {
		p.FaultNoted(k, now)
	}
}

// SqueezeCredits narrows the src→dst credit window to limit during
// [from, until), then restores the configured window. Both edges are
// virtual-time engine events, so a squeeze is deterministic like any other
// scheduled work. Restoring wakes a starved sender.
func (g *GNI) SqueezeCredits(src, dst, limit int, from, until sim.Time) {
	if limit < 0 {
		limit = 0
	}
	lim := int32(limit)
	g.Net.Eng.At(from, func() {
		g.conn(src, dst).limit = lim
		g.noteFault(sim.FaultCreditSqueeze, from)
	})
	g.Net.Eng.At(until, func() {
		c := g.conn(src, dst)
		c.limit = g.window()
		if c.starved && c.inflight < c.limit {
			c.starved = false
			g.notifyCreditReturn(src, dst, until)
		}
	})
}

// ArmTxError arms n one-shot transaction errors against PE's FMA/BTE posts,
// effective at virtual time from: each of the next n posts initiated by pe
// completes with EvError instead of data movement.
func (g *GNI) ArmTxError(pe, n int, from sim.Time) {
	g.Net.Eng.At(from, func() {
		if g.txArm == nil {
			g.txArm = make(map[int]int)
		}
		g.txArm[pe] += n
	})
}

// SuspendSmsgCQ holds back pe's SMSG receive CQ during [from, until): a CQ
// back-pressure window. Deliveries defer (holding their mailbox credits, so
// the stall propagates to senders as RCNotDone), and past the queue's depth
// the overrun flag raises, to be cleared through OnError/ErrorRecover at
// resume.
func (g *GNI) SuspendSmsgCQ(pe int, from, until sim.Time) {
	g.Net.Eng.At(from, func() {
		if cq := g.rxCQ[pe]; cq != nil {
			cq.suspended = true
			g.noteFault(sim.FaultCqBackPressure, from)
		}
	})
	g.Net.Eng.At(until, func() {
		if cq := g.rxCQ[pe]; cq != nil {
			cq.resume(until)
		}
	})
}

// SmsgNotDone reports how many sends were refused with RCNotDone.
func (g *GNI) SmsgNotDone() uint64 { return g.smsgNotDone }

// CreditsConsumed reports how many mailbox credits were ever consumed by
// accepted SMSG sends. With CreditReturns and CreditsInFlight it states
// the conservation law the creditbalance analyzer proves statically:
// consumed == returned + in-flight at every quiescent point.
func (g *GNI) CreditsConsumed() uint64 { return g.creditConsumed }

// CreditReturns reports how many mailbox credits were returned by
// receive-side dequeues.
func (g *GNI) CreditReturns() uint64 { return g.creditReturns }

// TxErrors reports how many posts completed with EvError.
func (g *GNI) TxErrors() uint64 { return g.txErrors }

// CqOverruns reports overrun episodes across all this job's CQs.
func (g *GNI) CqOverruns() uint64 { return g.cqOverruns }

// CreditsInFlight reports mailbox slots currently occupied across every
// connection; a drained machine must bring this back to zero.
func (g *GNI) CreditsInFlight() int64 { return g.creditsInFlight }

// ErrSmsgTooBig is returned when a message exceeds the SMSG size cap.
var ErrSmsgTooBig = errors.New("ugni: message exceeds SMSG maximum size")

// SmsgSendWTag mirrors GNI_SmsgSendWTag: it sends a short tagged message
// from src to dst, ready at the caller's PE-local time `at`. The message is
// delivered into dst's attached SMSG receive CQ. It returns the host CPU
// cost the caller must charge and the uGNI return code. RCNotDone (with a
// nil error) means dst's mailbox credit window is full and the send did NOT
// happen: the caller queues the message and retries when the EvCreditReturn
// event says the window reopened. If txCQ is non-nil a TX_DONE event is
// delivered there when the send leaves the NIC.
//
//simlint:proto credit consume
func (g *GNI) SmsgSendWTag(src, dst int, tag uint8, size int, payload any, at sim.Time, txCQ *CQ) (sim.Time, RC, error) {
	if size > g.smsgMax {
		return 0, RCErrorResource, fmt.Errorf("%w: %d > %d", ErrSmsgTooBig, size, g.smsgMax)
	}
	rx := g.rxCQ[dst]
	if rx == nil {
		return 0, RCErrorResource, fmt.Errorf("ugni: PE %d has no attached SMSG receive CQ", dst)
	}
	c := g.conn(src, dst)
	c.mailbox = true
	if c.inflight >= c.limit {
		c.starved = true
		g.smsgNotDone++
		g.noteFault(sim.FaultSmsgNotDone, at)
		return 0, RCNotDone, nil
	}
	c.inflight++
	g.creditsInFlight++
	g.creditConsumed++
	// Book through the node's SMSG NIC engine (FMA hardware, mailbox
	// protocol overhead); the delivery is pushed before the TX_DONE.
	srcDone, arrive := g.Net.Transfer(g.Net.NodeOf(src), g.Net.NodeOf(dst), size, gemini.UnitSMSG, at)
	rx.push(arrive+g.Net.P.CQLatency, Event{
		Type: EvSmsg, Src: src, Dst: dst, Tag: tag, Size: size, Payload: payload, credit: c,
	})
	if txCQ != nil {
		txCQ.push(srcDone+g.Net.P.CQLatency, Event{
			Type: EvTxDone, Src: src, Dst: dst, Tag: tag, Size: size,
		})
	}
	return g.Net.P.HostSendCPU, RCSuccess, nil
}

// PostKind discriminates PUT and GET transactions.
type PostKind int

const (
	// PostPut moves data from the initiator to the remote PE.
	PostPut PostKind = iota
	// PostGet pulls data from the remote PE to the initiator.
	PostGet
)

// String names the post kind.
func (k PostKind) String() string {
	if k == PostPut {
		return "PUT"
	}
	return "GET"
}

// PostDesc is the transaction descriptor handed to PostFma/PostRdma,
// mirroring gni_post_descriptor_t. LocalCQ receives EvRdmaLocal when the
// transaction completes on the initiator side; RemoteCQ (optional) receives
// EvRdmaRemote when it completes on the remote side.
type PostDesc struct {
	Kind      PostKind
	Initiator int // PE posting the descriptor
	Remote    int // the other PE
	Size      int
	Payload   any
	Tag       uint8
	UserData  any
	LocalCQ   *CQ
	RemoteCQ  *CQ

	// Attempts counts transaction-error failures of this descriptor so the
	// recovering layer can bound its retries and scale its backoff.
	Attempts uint8
}

// PostFma mirrors GNI_PostFma: execute the transaction on the FMA unit.
// It returns the host CPU cost of posting.
//
//simlint:proto retry post
func (g *GNI) PostFma(d *PostDesc, at sim.Time) sim.Time {
	return g.post(d, gemini.UnitFMA, at)
}

// PostRdma mirrors GNI_PostRdma: queue the transaction on the BTE.
//
//simlint:proto retry post
func (g *GNI) PostRdma(d *PostDesc, at sim.Time) sim.Time {
	return g.post(d, gemini.UnitBTE, at)
}

func (g *GNI) post(d *PostDesc, unit gemini.Unit, at sim.Time) sim.Time {
	if n := g.txArm[d.Initiator]; n > 0 {
		// Armed one-shot transaction error: the post is accepted (the host
		// still pays the posting cost) but fails in flight — no data moves,
		// no bandwidth is booked, and the initiator learns via an EvError
		// completion carrying the descriptor (GNI_RC_TRANSACTION_ERROR).
		//simlint:allow hotpathalloc -- fault path: reached only while transaction errors are armed; clean runs take the n==0 branch
		g.txArm[d.Initiator] = n - 1
		d.Attempts++
		g.txErrors++
		g.noteFault(sim.FaultTxError, at)
		cq := d.LocalCQ
		if cq == nil {
			cq = d.RemoteCQ
		}
		if cq == nil {
			panic("ugni: post without any CQ hit an armed transaction error")
		}
		cq.push(at+g.Net.P.TxErrorLatency, Event{
			Type: EvError, Src: d.Initiator, Dst: d.Remote, Tag: d.Tag,
			Size: d.Size, Payload: d.Payload, Desc: d,
		})
		return g.Net.P.HostPostCPU
	}
	iNode := g.Net.NodeOf(d.Initiator)
	rNode := g.Net.NodeOf(d.Remote)
	var localDone, remoteDone sim.Time
	switch d.Kind {
	case PostPut:
		srcDone, arrive := g.Net.Transfer(iNode, rNode, d.Size, unit, at)
		localDone, remoteDone = srcDone, arrive
	case PostGet:
		_, arrive := g.Net.Get(iNode, rNode, d.Size, unit, at)
		localDone, remoteDone = arrive, arrive
	default:
		panic("ugni: unknown post kind")
	}
	ev := Event{Src: d.Initiator, Dst: d.Remote, Tag: d.Tag, Size: d.Size, Payload: d.Payload, Desc: d}
	if d.LocalCQ != nil {
		lev := ev
		lev.Type = EvRdmaLocal
		d.LocalCQ.push(localDone+g.Net.P.CQLatency, lev)
	}
	if d.RemoteCQ != nil {
		rev := ev
		rev.Type = EvRdmaRemote
		d.RemoteCQ.push(remoteDone+g.Net.P.CQLatency, rev)
	}
	return g.Net.P.HostPostCPU
}

// PollCost reports the CPU cost of one successful CQ poll; progress engines
// charge it per handled event.
func (g *GNI) PollCost() sim.Time { return g.Net.P.HostCQPollCPU }
