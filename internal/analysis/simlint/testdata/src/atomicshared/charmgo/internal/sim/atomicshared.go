// Package sim is the atomicshared fixture: anywhere in simulation scope,
// a variable or field whose address feeds sync/atomic at one site must
// never be accessed plainly at another.
package sim

import "sync/atomic"

// Counters holds one field per discipline.
type Counters struct {
	fired uint64       // plain everywhere: one discipline, clean
	gen   uint64       // atomic in tock, plain in reset: mixed
	live  atomic.Int64 // atomic by construction, clean
}

// hits is accessed atomically in bump and plainly in plainBump: mixed
// discipline, flagged at the plain access.
var hits int64

func bump() {
	atomic.AddInt64(&hits, 1)
}

func plainBump() {
	hits++ // want `plain access to charmgo/internal/sim.hits`
}

// tick touches the plain-only counter plainly: clean.
func (c *Counters) tick() {
	c.fired++
}

// tock is the sanctioned access: the field is only touched inside the
// sync/atomic argument.
func (c *Counters) tock() {
	atomic.AddUint64(&c.gen, 1)
}

// breathe uses the atomic-typed field: atomic by construction, clean.
func (c *Counters) breathe() {
	c.live.Add(1)
}

// reset writes gen plainly although tock updates it through sync/atomic.
func (c *Counters) reset() {
	c.fired = 0
	c.gen = 0 // want `plain access to charmgo/internal/sim.Counters.gen`
}

func run() *Counters {
	c := &Counters{}
	c.tick()
	c.tock()
	c.breathe()
	c.reset()
	bump()
	plainBump()
	return c
}
