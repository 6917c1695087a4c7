// Package demo seeds flightlifecycle fixtures: pooled records must be
// launched or zeroed-and-retired on every path, and completion callbacks
// must retire the record they re-enter.
package demo

import "charmgo/internal/mem"

// queue is a stand-in completion queue.
type queue struct{ n int }

func (q *queue) push() { q.n++ }

// flight is the pooled deferred-completion record.
//
//simlint:proto flight record
type flight struct {
	q *queue
	v int
}

var pool mem.FreeList[flight]

// transferThen is the engine stand-in: completion callback plus record.
func transferThen(size int, done func(any), arg any) { done(arg) }

// sendClean launches the flight; the engine owns it from here.
func sendClean(q *queue) {
	fl := pool.Get()
	fl.q = q
	fl.v = 1
	transferThen(1, onDone, fl)
}

// sendDrop forgets the flight on the refusal path.
func sendDrop(q *queue, fail bool) {
	fl := pool.Get() // want `flight born here may be dropped`
	fl.q = q
	if fail {
		return
	}
	transferThen(1, onDone, fl)
}

// retireClean zeroes then retires without launching.
func retireClean() {
	fl := pool.Get()
	fl.v = 2
	*fl = flight{}
	pool.Put(fl)
}

// putLive returns an un-zeroed record to the pool.
func putLive() {
	fl := pool.Get()
	fl.v = 3
	pool.Put(fl) // want `flight Put from state "live"`
}

// useAfterPut touches the record after retirement.
func useAfterPut() {
	fl := pool.Get()
	*fl = flight{}
	pool.Put(fl)
	fl.v = 4 // want `flight used after being returned to its pool`
}

// onDone is the record's completion callback: use, zero, retire.
//
//simlint:proto flight complete
func onDone(arg any) {
	fl := arg.(*flight)
	fl.q.push()
	*fl = flight{}
	pool.Put(fl)
}

// onDoneLeak exits with the record still live.
//
//simlint:proto flight complete
func onDoneLeak(arg any) {
	fl := arg.(*flight) // want `callback onDoneLeak may exit in state "live"`
	fl.q.push()
}
