// Package converse is the machine-independent runtime layer of the paper's
// Figure 3: per-PE message-driven schedulers, a handler registry, and
// common services (spanning-tree broadcast, quiescence detection) shared by
// every machine layer. It implements lrts.Host, so machine layers can book
// progress-engine work on PE CPUs and deliver received messages into
// schedulers.
package converse

import (
	"charmgo/internal/gemini"
	"charmgo/internal/lrts"
	"charmgo/internal/mem"
	"charmgo/internal/sim"
	"charmgo/internal/trace"
)

// HandlerFn is a Converse message handler. Handlers are run-to-completion:
// they execute real Go code and account virtual time through the Ctx.
type HandlerFn func(ctx *Ctx, msg *lrts.Message)

// Options tunes machine-independent runtime costs.
type Options struct {
	// SchedCost is the per-message scheduler overhead (dequeue, envelope
	// inspection, handler dispatch).
	SchedCost sim.Time
	// SelfSendCost is the cost of an intra-PE send (no network involved).
	SelfSendCost sim.Time
	// Tracer, if non-nil, receives busy intervals for the time profile.
	Tracer *trace.Recorder
}

// DefaultOptions returns the calibrated runtime constants.
func DefaultOptions() Options {
	return Options{
		SchedCost:    140 * sim.Nanosecond,
		SelfSendCost: 90 * sim.Nanosecond,
	}
}

// Machine is one simulated job: an engine, a network, a machine layer, and
// NumPEs schedulers.
type Machine struct {
	eng   *sim.Engine
	net   *gemini.Network
	layer lrts.Layer
	opts  Options

	procs    []Proc           // slab: one allocation for all schedulers
	cpus     []sim.PEResource // slab: one allocation for all PE CPUs
	handlers []HandlerFn

	// msgs pools lrts.Message envelopes: acquired by every send path
	// (Ctx.SendPrio, SendPersistent, Inject, broadcast fan-out), released
	// by the scheduler after handler execution — the converse analog of
	// the paper's CmiAlloc/CmiFree over the §V.B pool. delivery pools the
	// Deliver→scheduler handoff records. See DESIGN.md §2.2.
	msgs     mem.FreeList[lrts.Message]
	delivery mem.FreeList[deliverNode]

	// Quiescence accounting (valid inside a single-process DES; DESIGN.md §5).
	sent      uint64
	processed uint64
	qdWatcher func(at sim.Time)

	// Node-failure state (DESIGN.md §7; see death.go). deadPE is nil until
	// the first ScheduleNodeKill, so fault-free runs pay one predictable
	// branch on the delivery path and nothing else.
	deadPE    []bool
	deadNodes int
	dropped   uint64
	redirect  DeadRoute
	kills     mem.FreeList[killNode]
}

// NewMachine wires a machine together and starts the layer. The layer must
// not have been started elsewhere.
func NewMachine(eng *sim.Engine, net *gemini.Network, layer lrts.Layer, opts Options) *Machine {
	m := &Machine{eng: eng, net: net, layer: layer, opts: opts}
	n := net.NumPEs()
	probe := eng.Probe()
	m.procs = procSlabs.Get(n)
	m.cpus = peSlabs.Get(n)
	for pe := 0; pe < n; pe++ {
		cpu := &m.cpus[pe]
		sim.InitPEResource(cpu, sim.Indexed("pe", pe, ".cpu"))
		if probe != nil {
			cpu.SetProbe(probe)
		}
		m.procs[pe] = Proc{m: m, pe: pe, cpu: cpu}
	}
	m.registerBroadcastHandler()
	layer.Start(m)
	return m
}

// procSlabs and peSlabs recycle the per-PE scheduler and CPU-resource
// slabs across machines (see mem.SlabCache).
var (
	procSlabs mem.SlabCache[Proc]
	peSlabs   mem.SlabCache[sim.PEResource]
)

// Close releases the machine's construction slabs — and, via the layer's
// Close when it has one, the layer's — for reuse by a later NewMachine.
// The machine and its whole stack (layer, GNI, network, engine) must not
// be used afterwards. The network is not closed here: it is constructed by
// the caller and may outlive the machine.
func (m *Machine) Close() {
	procSlabs.Put(m.procs)
	peSlabs.Put(m.cpus)
	m.procs, m.cpus = nil, nil
	if c, ok := m.layer.(interface{ Close() }); ok {
		c.Close()
	}
}

// Eng implements lrts.Host.
func (m *Machine) Eng() *sim.Engine { return m.eng }

// NumPEs implements lrts.Host.
func (m *Machine) NumPEs() int { return len(m.procs) }

// CPU implements lrts.Host.
func (m *Machine) CPU(pe int) *sim.PEResource { return m.procs[pe].cpu }

// Net exposes the underlying network (for placement decisions and stats).
func (m *Machine) Net() *gemini.Network { return m.net }

// Layer exposes the machine layer (for experiment stats).
func (m *Machine) Layer() lrts.Layer { return m.layer }

// deliverNode is one in-flight Deliver→scheduler handoff, pooled on the
// machine so delivery schedules closure-free (Engine.AtArg).
type deliverNode struct {
	p   *Proc
	msg *lrts.Message
	at  sim.Time
}

// fireDeliver enqueues the delivered message on its scheduler.
//
//simlint:hotpath
func fireDeliver(arg any) {
	n := arg.(*deliverNode)
	p, msg, at := n.p, n.msg, n.at
	m := p.m
	m.delivery.Put(n)
	if m.deadPE != nil && m.deadPE[p.pe] {
		m.deliverDead(p.pe, msg, at)
		return
	}
	p.q.push(queued{msg: msg, seq: p.seq})
	p.seq++
	p.kick(at)
}

// Deliver implements lrts.Host: enqueue msg on pe's scheduler at time at.
//
//simlint:hotpath
func (m *Machine) Deliver(pe int, msg *lrts.Message, at sim.Time) {
	if at < m.eng.Now() {
		at = m.eng.Now()
	}
	n := m.delivery.Get()
	n.p = &m.procs[pe]
	n.msg = msg
	n.at = at
	m.eng.AtArg(at, fireDeliver, n)
}

// NoteOverhead implements lrts.Host.
func (m *Machine) NoteOverhead(pe int, from, to sim.Time) {
	if m.opts.Tracer != nil {
		m.opts.Tracer.Add(pe, trace.KindOverhead, from, to)
	}
	m.procs[pe].busyOvh += to - from
}

// RegisterHandler adds a handler and returns its index. All handlers must
// be registered before any message referencing them is sent; registration
// is global (every PE shares the table), mirroring CmiRegisterHandler.
func (m *Machine) RegisterHandler(fn HandlerFn) int {
	m.handlers = append(m.handlers, fn)
	return len(m.handlers) - 1
}

// Inject seeds an initial message from outside any handler (mainchare
// startup). It counts as a sent message for quiescence purposes.
func (m *Machine) Inject(pe, handler int, data any, size int, at sim.Time) {
	m.sent++
	msg := m.msgs.Get()
	msg.Data, msg.Size = data, size
	msg.SrcPE, msg.DstPE = pe, pe
	msg.Handler, msg.SentAt = handler, at
	m.Deliver(pe, msg, at)
}

// Run drives the engine until no events remain and returns the final time.
func (m *Machine) Run() sim.Time {
	m.eng.Run()
	return m.eng.Now()
}

// OnQuiescence registers fn to run once the application reaches quiescence:
// every sent message has been processed and all scheduler queues are empty.
// Exact global counters stand in for a distributed QD wave (DESIGN.md §5).
func (m *Machine) OnQuiescence(fn func(at sim.Time)) { m.qdWatcher = fn }

func (m *Machine) checkQuiescence(at sim.Time) {
	if m.qdWatcher != nil && m.sent == m.processed {
		fn := m.qdWatcher
		m.qdWatcher = nil
		//simlint:allow hotpathalloc -- quiescence fires once per detection, not per message; the closure is the wave's single epilogue
		m.eng.At(at, func() { fn(at) })
	}
}

// ProcStats reports per-PE accounting.
type ProcStats struct {
	Processed uint64
	BusyApp   sim.Time
	BusyOvh   sim.Time
}

// ProcStats returns the accounting for one PE.
func (m *Machine) ProcStats(pe int) ProcStats {
	p := &m.procs[pe]
	return ProcStats{Processed: p.processed, BusyApp: p.busyApp, BusyOvh: p.busyOvh}
}

// TotalProcessed reports the machine-wide count of executed handlers.
func (m *Machine) TotalProcessed() uint64 { return m.processed }

// Proc is one PE's message-driven scheduler. The queue is a priority
// queue: lower Message.Priority runs first, ties in FIFO order.
type Proc struct {
	m   *Machine
	pe  int
	cpu *sim.PEResource
	q   msgHeap
	seq uint64

	dispatchAt *sim.Event // pending dispatch event, nil if none

	// ctx is the per-dispatch handler context, embedded so each handler
	// execution reuses this record instead of allocating one. Safe because
	// dispatch is not reentrant: a handler that hands off (AMPI) returns
	// the token before the next dispatch on this PE runs.
	ctx Ctx

	processed uint64
	busyApp   sim.Time
	busyOvh   sim.Time
}

// queued is one scheduler queue entry.
type queued struct {
	msg *lrts.Message
	seq uint64
}

// msgHeap is a binary min-heap ordered by (priority, arrival sequence).
// It is hand-rolled rather than container/heap because pushing through an
// `any` interface boxes every queued value — one allocation per delivered
// message on the hottest path in the runtime.
type msgHeap []queued

func (a queued) before(b queued) bool {
	if a.msg.Priority != b.msg.Priority {
		return a.msg.Priority < b.msg.Priority
	}
	return a.seq < b.seq
}

func (h *msgHeap) push(v queued) {
	//simlint:allow hotpathalloc -- amortized heap growth: the backing array is reused across pushes and recycled by Close
	q := append(*h, v)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !v.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = v
	*h = q
}

func (h *msgHeap) pop() queued {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = queued{}
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// kick ensures a dispatch is scheduled no earlier than at (and no earlier
// than the CPU frees up).
func (p *Proc) kick(at sim.Time) {
	if p.dispatchAt != nil || len(p.q) == 0 {
		return
	}
	t := at
	if f := p.cpu.FreeAt(); f > t {
		t = f
	}
	p.dispatchAt = p.m.eng.AtArg(t, fireDispatch, p)
}

// fireDispatch is the closure-free engine callback for scheduler dispatch.
//
//simlint:hotpath
func fireDispatch(arg any) { arg.(*Proc).dispatch() }

func (p *Proc) dispatch() {
	p.dispatchAt = nil
	now := p.m.eng.Now()
	if f := p.cpu.FreeAt(); f > now {
		// A machine layer booked progress work in the meantime; retry.
		p.kick(f)
		return
	}
	if len(p.q) == 0 {
		return
	}
	msg := p.q.pop().msg

	p.ctx = Ctx{proc: p, now: now}
	ctx := &p.ctx
	ctx.Charge(p.m.opts.SchedCost)
	fn := p.m.handlers[msg.Handler]
	fn(ctx, msg)
	if rb := msg.ReleaseBy; rb != nil {
		// Return the receive buffer to the machine layer's pool (CmiFree).
		ctx.Charge(rb.ReleaseBuf(msg.ReleasePE, msg.ReleaseCap, msg.ReleaseRegistered))
		msg.ReleaseBy = nil
	}
	// The envelope's delivery is complete: recycle it. Handlers consume
	// msg.Data and must not retain the envelope itself.
	p.m.msgs.Put(msg)
	end := ctx.now
	p.cpu.Acquire(now, end-now)

	p.processed++
	p.m.processed++
	p.busyApp += ctx.appTime
	ovh := (end - now) - ctx.appTime
	p.busyOvh += ovh
	if tr := p.m.opts.Tracer; tr != nil {
		// Attribute the app portion first, then overhead; within one
		// handler the split order is immaterial to the binned profile.
		tr.Add(p.pe, trace.KindApp, now, now+ctx.appTime)
		tr.Add(p.pe, trace.KindOverhead, now+ctx.appTime, end)
	}

	if len(p.q) > 0 {
		p.kick(end)
	}
	p.m.checkQuiescence(end)
}
