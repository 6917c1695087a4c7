package sim

import (
	"fmt"
	"testing"
)

// FuzzEngineOrder drives the Engine with a fuzzed operation stream and
// checks it against a reference that keeps pending events in a plain
// slice and fires the smallest (time, sequence) key. After every
// operation the fired order, Now(), Pending() and Fired() must match. The checked-in corpus
// (testdata/fuzz) runs with the ordinary tests; `make fuzz-smoke`
// explores beyond it.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runOrderStream(t, NewEngine(), data)
	})
}

// The fuzzed operations. Each takes three bytes: the kind (modulo
// numOrderOps) and two arguments a and b. Scheduling has two kinds so
// that streams keep a population to order.
const (
	opSchedule = iota // a: chain (bit 1); b: delay
	opSchedule2
	opCancel // a: which pending event
	opStep
	opRunUntil   // b: deadline past now
	opCheckpoint // b: how far Restore warps the clock
	opPeek       // no-op: keeps the checked-in corpus decoding to the same streams
	numOrderOps
)

// orderDelay maps a byte onto a delay: a quarter are zero, the rest
// spread over 2^0 to 2^19.
func orderDelay(b byte) Time {
	if b&3 == 0 {
		return 0
	}
	return Time(1)<<(b>>2%20) + Time(b&3)
}

// refEvent is one pending event of the reference model.
type refEvent struct {
	at    Time
	seq   uint64
	id    int
	chain bool
	ev    *Event
}

func (r refEvent) before(o refEvent) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	return r.seq < o.seq
}

// orderRun holds the engine under test and its reference.
type orderRun struct {
	t       *testing.T
	k       *Engine
	now     Time
	seq     uint64
	pending []refEvent
	want    []int // reference firing order (event ids)
	got     []int // kernel firing order
	nextID  int
	// children maps a chained event's follow-up id to the handle the
	// kernel returned when the callback scheduled it.
	children map[int]*Event
}

// child is the id of the zero-delay follow-up a chained event schedules.
func child(id int) int { return id + 1_000_000 }

func runOrderStream(t *testing.T, k *Engine, data []byte) {
	r := &orderRun{t: t, k: k, children: map[int]*Event{}}
	if len(data) > 3*400 {
		data = data[:3*400]
	}
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := int(data[i])%numOrderOps, data[i+1], data[i+2]
		r.apply(op, a, b)
		r.check(fmt.Sprintf("op %d (%d %d %d)", i/3, op, a, b))
	}
	r.k.Run()
	r.fire(-1, maxTime)
	r.check("final Run")
}

func (r *orderRun) apply(op int, a, b byte) {
	switch op {
	case opSchedule, opSchedule2:
		r.schedule(r.now+orderDelay(b), a&2 != 0, r.nextID)
		r.nextID++
	case opCancel:
		if len(r.pending) == 0 {
			return
		}
		i := int(a) % len(r.pending)
		r.pending[i].ev.Cancel()
		r.pending = append(r.pending[:i], r.pending[i+1:]...)
	case opStep:
		if fired, n := r.k.Step(), r.fire(1, maxTime); fired != (n > 0) {
			r.t.Fatalf("Step reported %v, reference fired %d", fired, n)
		}
	case opRunUntil:
		deadline := r.now + orderDelay(b)
		r.k.RunUntil(deadline)
		r.fire(-1, deadline)
		if r.now < deadline {
			r.now = deadline
		}
	case opCheckpoint:
		ck, err := r.k.Checkpoint()
		if len(r.pending) > 0 {
			if err == nil {
				r.t.Fatalf("Checkpoint with %d pending succeeded", len(r.pending))
			}
			return
		}
		if err != nil {
			r.t.Fatal(err)
		}
		to := r.now + orderDelay(b)
		if err := r.k.Restore(ck.Advanced(to)); err != nil {
			r.t.Fatal(err)
		}
		r.now = to
	}
}

// schedule books event id on the kernel and the reference.
func (r *orderRun) schedule(at Time, chain bool, id int) {
	fn := func() {
		r.got = append(r.got, id)
		if chain {
			c := child(id)
			r.children[c] = r.k.At(r.k.Now(), func() { r.got = append(r.got, c) })
		}
	}
	ev := r.k.At(at, fn)
	r.push(refEvent{at: at, chain: chain, id: id, ev: ev})
}

// push adds ev to the reference with the next sequence.
func (r *orderRun) push(ev refEvent) {
	ev.seq = r.seq
	r.seq++
	r.pending = append(r.pending, ev)
}

// min returns the index of the reference's next event, or -1.
func (r *orderRun) min() int {
	m := -1
	for i, ev := range r.pending {
		if m < 0 || ev.before(r.pending[m]) {
			m = i
		}
	}
	return m
}

// fire pops up to limit reference events (all when limit < 0) at or
// before deadline, and returns how many fired.
func (r *orderRun) fire(limit int, deadline Time) int {
	n := 0
	for ; n != limit; n++ {
		m := r.min()
		if m < 0 || r.pending[m].at > deadline {
			break
		}
		ev := r.pending[m]
		r.pending = append(r.pending[:m], r.pending[m+1:]...)
		r.now = ev.at
		r.want = append(r.want, ev.id)
		if !ev.chain {
			continue
		}
		c := child(ev.id)
		h, ok := r.children[c]
		if !ok {
			r.t.Fatalf("event %d fired in the reference but not in the kernel", ev.id)
		}
		delete(r.children, c)
		r.push(refEvent{at: ev.at, id: c, ev: h})
	}
	return n
}

func (r *orderRun) check(where string) {
	r.t.Helper()
	if len(r.got) != len(r.want) {
		r.t.Fatalf("%s: kernel fired %d events, reference %d\nkernel    %v\nreference %v",
			where, len(r.got), len(r.want), r.got, r.want)
	}
	for i := range r.got {
		if r.got[i] != r.want[i] {
			r.t.Fatalf("%s: firing %d is event %d, reference %d", where, i, r.got[i], r.want[i])
		}
	}
	if r.k.Now() != r.now {
		r.t.Fatalf("%s: Now = %v, reference %v", where, r.k.Now(), r.now)
	}
	if r.k.Pending() != len(r.pending) {
		r.t.Fatalf("%s: Pending = %d, reference %d", where, r.k.Pending(), len(r.pending))
	}
	if r.k.Fired() != uint64(len(r.got)) {
		r.t.Fatalf("%s: Fired = %d, callbacks ran %d", where, r.k.Fired(), len(r.got))
	}
}
