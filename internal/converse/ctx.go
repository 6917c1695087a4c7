package converse

import (
	"charmgo/internal/lrts"
	"charmgo/internal/sim"
)

// Ctx is the execution context of one handler invocation: the PE-local
// virtual clock plus the send API. It implements lrts.SendContext.
type Ctx struct {
	proc    *Proc
	now     sim.Time
	appTime sim.Time
}

// PE reports the executing processor.
func (c *Ctx) PE() int { return c.proc.pe }

// NumPEs reports the job size.
func (c *Ctx) NumPEs() int { return c.proc.m.NumPEs() }

// Machine exposes the machine (e.g. for topology-aware placement).
func (c *Ctx) Machine() *Machine { return c.proc.m }

// Now reports the PE-local virtual time (handler start plus charges so far).
func (c *Ctx) Now() sim.Time { return c.now }

// AppTime reports the useful application time accumulated so far in this
// handler invocation (used for measurement-based load balancing).
func (c *Ctx) AppTime() sim.Time { return c.appTime }

// Charge advances the PE-local clock by d units of *runtime overhead*.
// Machine layers use it for send-side protocol costs.
func (c *Ctx) Charge(d sim.Time) {
	if d < 0 {
		panic("converse: negative charge")
	}
	c.now += d
}

// Compute advances the PE-local clock by d units of *useful application
// work* (Projections' "useful" category).
func (c *Ctx) Compute(d sim.Time) {
	if d < 0 {
		panic("converse: negative compute charge")
	}
	c.now += d
	c.appTime += d
}

// Send sends an asynchronous message of the modelled wire size to handler
// on dst. Intra-PE sends bypass the machine layer, as CmiSendSelf does.
func (c *Ctx) Send(dst, handler int, data any, size int) {
	c.SendPrio(dst, handler, data, size, 0)
}

// SendPrio is Send with an explicit scheduler priority (lower runs first;
// the default priority is 0).
//
//simlint:hotpath
func (c *Ctx) SendPrio(dst, handler int, data any, size, priority int) {
	c.SendEntry(dst, handler, 0, 0, data, size, priority)
}

// SendEntry is SendPrio for a message that carries an entry header: elem
// and entry travel in the envelope (lrts.Message.Elem and Entry), where
// the CHARM++ layer's handler reads them, so the header needs no payload
// record of its own. It is the one send body; SendPrio is its header-less
// call.
//
//simlint:hotpath
func (c *Ctx) SendEntry(dst, handler, elem, entry int, data any, size, priority int) {
	m := c.proc.m
	m.sent++
	msg := m.msgs.Get()
	msg.Data, msg.Size = data, size
	msg.SrcPE, msg.DstPE = c.PE(), dst
	msg.Handler, msg.SentAt, msg.Priority = handler, c.now, priority
	msg.Elem, msg.Entry = int32(elem), int32(entry)
	if dst == c.PE() {
		c.Charge(m.opts.SelfSendCost)
		m.Deliver(dst, msg, c.now)
		return
	}
	m.layer.SyncSend(c, msg)
}

// CreatePersistent sets up a persistent channel (LrtsCreatePersistent).
func (c *Ctx) CreatePersistent(dst, maxBytes int) (lrts.PersistentHandle, error) {
	return c.proc.m.layer.CreatePersistent(c, dst, maxBytes)
}

// SendPersistent sends over a persistent channel (LrtsSendPersistentMsg).
//
//simlint:hotpath
func (c *Ctx) SendPersistent(h lrts.PersistentHandle, dst, handler int, data any, size int) error {
	return c.SendPersistentEntry(h, dst, handler, 0, 0, data, size)
}

// SendPersistentEntry is SendPersistent with an entry header in the
// envelope, as SendEntry is to SendPrio.
//
//simlint:hotpath
func (c *Ctx) SendPersistentEntry(h lrts.PersistentHandle, dst, handler, elem, entry int, data any, size int) error {
	m := c.proc.m
	m.sent++
	msg := m.msgs.Get()
	msg.Data, msg.Size = data, size
	msg.SrcPE, msg.DstPE = c.PE(), dst
	msg.Handler, msg.SentAt = handler, c.now
	msg.Elem, msg.Entry = int32(elem), int32(entry)
	return m.layer.SendPersistent(c, h, msg)
}
