// Package charm implements the CHARM++-style programming model on top of
// Converse (paper Section III-A): indexed collections of migratable objects
// (chare arrays) that communicate through asynchronous entry-method
// invocations, with array reductions and measurement-based load balancing.
//
// Each array registers one Converse handler; an entry invocation carries
// its element index and entry method in the message envelope's entry
// header (lrts.Message.Elem and Entry), as CHARM++'s envelope does, and
// its argument as the payload. Element-to-PE placement is explicit and
// migratable, which is what the NAMD-style load balancer uses.
package charm

import (
	"fmt"

	"charmgo/internal/converse"
	"charmgo/internal/lrts"
	"charmgo/internal/sim"
)

// Runtime is the CHARM++ layer for one machine.
type Runtime struct {
	M *converse.Machine

	arrays       []*Array
	startHandler int
	startFn      func(ctx *converse.Ctx)
	nop          int // do-nothing handler (migration payloads)
	red          int // reduction partial-merge handler
	section      int // section multicast-tree handler
	sections     []*Section
}

// NewRuntime attaches a CHARM++ runtime to a machine. Create it before
// sending any messages.
func NewRuntime(m *converse.Machine) *Runtime {
	rt := &Runtime{M: m}
	rt.startHandler = m.RegisterHandler(func(ctx *converse.Ctx, msg *lrts.Message) {
		rt.startFn(ctx)
	})
	rt.nop = m.RegisterHandler(func(*converse.Ctx, *lrts.Message) {})
	rt.red = m.RegisterHandler(func(ctx *converse.Ctx, msg *lrts.Message) {
		rt.onRedPartial(ctx, msg.Data.(*redPartial))
	})
	rt.section = m.RegisterHandler(func(ctx *converse.Ctx, msg *lrts.Message) {
		rt.onSectionMsg(ctx, msg.Data.(*sectionMsg))
	})
	return rt
}

// Start injects fn as the mainchare body on PE 0 at time 0 and runs the
// machine to completion, returning the final virtual time.
func (rt *Runtime) Start(fn func(ctx *converse.Ctx)) sim.Time {
	rt.startFn = fn
	rt.M.Inject(0, rt.startHandler, nil, 0, 0)
	return rt.M.Run()
}

// Resume injects fn on PE 0 at the current virtual time and drains the
// machine again. Because the previous Start/Resume ran to quiescence, fn
// executes at an application-quiescent point — the precondition for
// TakeCheckpoint and for safe section rebuilds after load balancing.
func (rt *Runtime) Resume(fn func(ctx *converse.Ctx)) sim.Time {
	rt.startFn = fn
	rt.M.Inject(0, rt.startHandler, nil, 0, rt.M.Eng().Now())
	return rt.M.Run()
}

// EntryFn is an entry method: it runs on the element's current PE with the
// element object and the invocation argument.
type EntryFn func(ctx *converse.Ctx, elem any, arg any)

// MapFn places element idx of an n-element array on a PE.
type MapFn func(idx, n, numPEs int) int

// BlockMap is the default placement: contiguous blocks of elements per PE.
func BlockMap(idx, n, numPEs int) int {
	per := (n + numPEs - 1) / numPEs
	pe := idx / per
	if pe >= numPEs {
		pe = numPEs - 1
	}
	return pe
}

// RoundRobinMap places element idx on PE idx mod numPEs.
func RoundRobinMap(idx, n, numPEs int) int { return idx % numPEs }

// Array is a 1D chare array. Multidimensional collections flatten their
// index space (helpers in the application packages).
type Array struct {
	rt      *Runtime
	id      int
	handler int // the Converse handler that runs this array's entry messages
	n       int
	elems   []any
	peOf    []int
	entries []EntryFn

	// Per-element measured load since the last LB step.
	load []sim.Time

	reds map[int]*reduction // reduction round -> state
}

// NewArray creates an n-element array, constructing each element with
// factory and placing it with mapFn (nil = BlockMap).
func (rt *Runtime) NewArray(n int, factory func(idx int) any, mapFn MapFn) *Array {
	if n <= 0 {
		panic(fmt.Sprintf("charm: NewArray(%d)", n))
	}
	if mapFn == nil {
		mapFn = BlockMap
	}
	arr := &Array{
		rt:    rt,
		id:    len(rt.arrays),
		n:     n,
		elems: make([]any, n),
		peOf:  make([]int, n),
		load:  make([]sim.Time, n),
		reds:  make(map[int]*reduction),
	}
	numPEs := rt.M.NumPEs()
	for i := 0; i < n; i++ {
		arr.elems[i] = factory(i)
		pe := mapFn(i, n, numPEs)
		if pe < 0 || pe >= numPEs {
			panic(fmt.Sprintf("charm: map placed element %d on PE %d of %d", i, pe, numPEs))
		}
		arr.peOf[i] = pe
	}
	arr.handler = rt.M.RegisterHandler(arr.onEntry)
	rt.arrays = append(rt.arrays, arr)
	return arr
}

// Len reports the element count.
func (a *Array) Len() int { return a.n }

// Entry registers an entry method and returns its index.
func (a *Array) Entry(fn EntryFn) int {
	a.entries = append(a.entries, fn)
	return len(a.entries) - 1
}

// PEOf reports the current home PE of element idx.
func (a *Array) PEOf(idx int) int { return a.peOf[idx] }

// Elem returns the element object (test and LB use).
func (a *Array) Elem(idx int) any { return a.elems[idx] }

// Send asynchronously invokes entry on element idx with arg; size is the
// modelled wire size of the marshalled invocation.
func (a *Array) Send(ctx *converse.Ctx, idx, entry int, arg any, size int) {
	a.SendPrio(ctx, idx, entry, arg, size, 0)
}

// SendPrio is Send with an explicit scheduler priority (lower runs first).
// The element and entry ride in the envelope's entry header and arg is the
// payload, so the send allocates nothing beyond what arg itself costs.
//
//simlint:hotpath
func (a *Array) SendPrio(ctx *converse.Ctx, idx, entry int, arg any, size, priority int) {
	ctx.SendEntry(a.peOf[idx], a.handler, idx, entry, arg, size, priority)
}

// SendPersistent invokes entry over a persistent channel created with
// ctx.CreatePersistent toward the element's PE.
func (a *Array) SendPersistent(ctx *converse.Ctx, h lrts.PersistentHandle, idx, entry int, arg any, size int) error {
	return ctx.SendPersistentEntry(h, a.peOf[idx], a.handler, idx, entry, arg, size)
}

// onEntry is the array's Converse handler: it runs the entry the
// envelope's header names on its element, with the payload as argument.
//
//simlint:hotpath
func (a *Array) onEntry(ctx *converse.Ctx, msg *lrts.Message) {
	a.execute(ctx, int(msg.Elem), int(msg.Entry), msg.Data)
}

// BroadcastEntry invokes entry on every element (one message per element;
// a production runtime would use section multicast trees — the paper's
// workloads send per-element anyway).
func (a *Array) BroadcastEntry(ctx *converse.Ctx, entry int, arg any, size int) {
	for idx := 0; idx < a.n; idx++ {
		a.Send(ctx, idx, entry, arg, size)
	}
}

// execute runs entry on element idx with arg, measuring load.
func (a *Array) execute(ctx *converse.Ctx, idx, entry int, arg any) {
	if a.peOf[idx] != ctx.PE() {
		// Message raced with a migration: forward to the current home.
		a.Send(ctx, idx, entry, arg, 64)
		return
	}
	before := ctx.AppTime()
	a.entries[entry](ctx, a.elems[idx], arg)
	a.load[idx] += ctx.AppTime() - before
}

// Migrate moves element idx to pe, charging a migration message of
// stateSize bytes. It must be called from a handler running on the
// element's current PE (the LB framework does).
func (a *Array) Migrate(ctx *converse.Ctx, idx, pe, stateSize int) {
	if pe == a.peOf[idx] {
		return
	}
	// The state travels as a regular (usually large) message; arrival is
	// modelled by the send itself. Placement switches immediately —
	// in-flight messages forward (see execute).
	ctx.Send(pe, a.rt.nop, nil, stateSize)
	a.peOf[idx] = pe
}
