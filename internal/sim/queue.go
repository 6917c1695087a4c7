package sim

import (
	"math"
	"math/bits"
)

// The event queue is a monotone radix queue (Ahuja, Mehlhorn, Orlin &
// Tarjan, J. ACM 1990) over (time, sequence) keys. It relies on two
// facts of a discrete-event kernel: nothing is scheduled before the
// clock, and every sequence number exceeds all earlier ones.
//
//   - last is the time of the entries in the front lane b0. It never
//     exceeds the clock outside Step, so every push lands at or after it.
//   - b0 holds the entries at last in sequence order. A push at last
//     (a zero-delay event, the common case for dispatch) just appends.
//   - Bucket i holds the entries whose time first differs from last in
//     bit i. Every entry of bucket i is smaller than every entry of a
//     higher bucket, and a mask bit per bucket finds the lowest one.
//   - When b0 runs dry, refill takes the lowest bucket, whose minimum
//     time m its lane tracks as entries arrive, sets last = m, and
//     redistributes the bucket: the entries at m go to b0 and the rest to
//     buckets below i (they all agree with m above bit i). Entries in
//     higher buckets keep their place.
//
// Sequence order needs no sorting: all entries at one time share a lane
// (the lane is a function of the time and last), each push appends the
// largest sequence so far to its lane, and redistribution and compaction
// preserve relative order. Each move takes an entry to a lower bucket, so
// it moves at most once per bit of its distance from last; the Fig 13
// DHFR/3840 run averages about four moves per event.
//
// Lanes are FIFOs of fixed-size chunks from one per-engine pool, so the
// memory the queue retains tracks its peak population rather than the
// sum of every bucket's high-water mark.
//
// While the lanes are empty, the first fewLen entries wait in few
// instead, a sorted array outside the lanes, until one more push spills
// them all into the lanes. The kernels of a ping-pong run never hold
// more than two events, and for them scheduling and firing is a copy
// in and a copy out.

// QueueChunkLen is the entry count of one queue chunk, the unit in which
// the queue's capacity grows. That many entries, a count and a link fill
// one 512-byte allocation size class exactly.
const QueueChunkLen = 21

// chunk is one block of a lane. Chunks link by id (an index into
// queue.chunks, 0 for none) rather than by pointer, so lanes and the
// bucket table hold no pointers: relinking them costs no GC write
// barriers and the table is never scanned.
type chunk struct {
	e    [QueueChunkLen]entry
	n    int32 // entries written
	next int32 // id of the next chunk, 0 at the tail
}

// lane is a FIFO of entries in a chain of chunks; every chunk but the
// tail is full. The zero lane is empty.
type lane struct {
	head, tail int32
	min        Time // smallest time in the lane, cancelled entries included
}

// QueueStats counts the event queue's work. The counts depend only on the
// sequence of scheduling, firing and cancelling calls, so a fixed
// workload repeats them exactly.
type QueueStats struct {
	// Pushes counts scheduled events.
	Pushes uint64
	// Refills counts front-lane refills from the lowest bucket.
	Refills uint64
	// Moved counts entries taken out of a bucket by refills, to the
	// front lane or a lower bucket.
	Moved uint64
	// Capacity is the number of entries the queue's chunks hold. Chunks
	// are recycled, never freed, so this is the peak retained capacity.
	Capacity int
}

// maxTime is later than any event time.
const maxTime = Time(math.MaxInt64)

// minTime is the earliest representable virtual time.
const minTime = Time(math.MinInt64)

// queue is the engine's event queue. The zero value is empty.
type queue struct {
	few    [fewLen]entry // the queue's entries in order, while the lanes are empty
	nfew   int32
	last   Time
	b0     lane
	r      int32     // read index into b0's head chunk
	bk     *[64]lane // buckets, in the store
	mask   uint64    // bit i set while bucket i is non-empty
	chunks []*chunk  // every chunk by id; chunks[0] is unused
	spare  int32     // recycled chunks, linked through next
	stats  QueueStats
}

// store is the queue's one allocation besides its chunks, made when the
// lanes are first used, so that building an engine costs nothing extra:
// the bucket table and the first few chunk ids.
type store struct {
	bk    [64]lane
	first [4]*chunk
}

// init builds the store.
func (q *queue) init() {
	//simlint:allow hotpathalloc -- once per engine, the first time its lanes are used (a third pending event): the bucket table and the initial chunk-id table
	s := new(store)
	q.bk = &s.bk
	q.chunks = s.first[:1]
}

// fewLen is the population up to which the queue keeps its entries in
// few rather than in the lanes.
const fewLen = 2

// push books en; en.at must not precede last.
func (q *queue) push(en entry) {
	q.stats.Pushes++
	if q.b0.head == 0 && q.mask == 0 {
		if i := q.nfew; i < fewLen {
			// en has the largest sequence, so it goes after every
			// entry at its time.
			for ; i > 0 && q.few[i-1].at > en.at; i-- {
				q.few[i] = q.few[i-1]
			}
			q.few[i] = en
			q.nfew++
			return
		}
		for _, f := range q.few {
			q.place(f)
		}
		q.nfew = 0
	}
	q.place(en)
}

// place books en in the lanes.
func (q *queue) place(en entry) {
	if q.bk == nil {
		q.init()
	}
	d := bits.Len64(uint64(en.at ^ q.last))
	if d == 0 {
		q.append(&q.b0, en)
		return
	}
	q.mask |= 1 << (d - 1)
	q.append(&q.bk[d-1], en)
}

// append adds en at the tail of l. The common case, room in the tail
// chunk, is small enough to inline.
func (q *queue) append(l *lane, en entry) {
	if l.tail != 0 {
		if c := q.chunks[l.tail]; c.n < QueueChunkLen {
			c.e[c.n] = en
			c.n++
			l.min = min(l.min, en.at)
			return
		}
	}
	q.appendChunk(l, en)
}

// appendChunk adds en at the start of a new tail chunk of l.
func (q *queue) appendChunk(l *lane, en entry) {
	if l.tail == 0 {
		l.min = en.at
	} else {
		l.min = min(l.min, en.at)
	}
	c := q.grow(l)
	c.e[0] = en
	c.n = 1
}

// grow links a recycled or fresh chunk to the tail of l and returns it.
func (q *queue) grow(l *lane) *chunk {
	id := q.spare
	var c *chunk
	if id != 0 {
		c = q.chunks[id]
		q.spare = c.next
		c.next = 0
	} else {
		//simlint:allow hotpathalloc -- chunk pool miss path: allocates only while the queue's population exceeds every earlier peak; drained chunks are recycled through spare
		c = new(chunk)
		id = int32(len(q.chunks))
		q.chunks = append(q.chunks, c)
		q.stats.Capacity += QueueChunkLen
	}
	if l.tail == 0 {
		l.head = id
	} else {
		q.chunks[l.tail].next = id
	}
	l.tail = id
	return c
}

// recycle returns a drained chunk to the pool.
func (q *queue) recycle(id int32) {
	c := q.chunks[id]
	c.n = 0
	c.next = q.spare
	q.spare = id
}

// front returns the first entry of few or of b0, or nil when both are
// empty.
func (q *queue) front() *entry {
	if q.nfew > 0 {
		return &q.few[0]
	}
	if q.b0.head == 0 {
		return nil
	}
	return &q.chunks[q.b0.head].e[q.r]
}

// pop removes and returns the minimum entry, refilling b0 when it runs
// dry. ok is false when the queue is empty.
func (q *queue) pop() (en entry, ok bool) {
	if q.nfew > 0 {
		en = q.few[0]
		q.nfew--
		for i := range q.nfew {
			q.few[i] = q.few[i+1]
		}
		return en, true
	}
	if q.b0.head == 0 && !q.refill(maxTime) {
		return entry{}, false
	}
	id := q.b0.head
	c := q.chunks[id]
	en = c.e[q.r]
	q.r++
	if q.r == c.n {
		q.r = 0
		q.b0.head = c.next
		if c.next == 0 {
			q.b0.tail = 0
		}
		q.recycle(id)
	}
	return en, true
}

// refill empties the lowest bucket into the empty b0 (the entries at its
// minimum time m) and the buckets below it (the rest), and sets last = m.
// It reports false, changing nothing, when every bucket is empty or m is
// after deadline. The bucket's head chunk becomes b0: the entries at m
// are compacted into it in place (the write index never passes the read
// index), and the chunks after it are recycled as they drain.
func (q *queue) refill(deadline Time) bool {
	if q.mask == 0 {
		return false
	}
	i := bits.TrailingZeros64(q.mask)
	l := q.bk[i]
	m := l.min
	if m > deadline {
		return false
	}
	q.bk[i] = lane{}
	q.mask &^= 1 << i
	q.last = m
	q.stats.Refills++
	c := q.chunks[l.head]
	n, next := c.n, c.next
	q.stats.Moved += uint64(n)
	if n == 1 {
		// One entry: it is at m, and its chunk becomes b0 as it is.
		q.b0 = l
		return true
	}
	q.b0 = lane{l.head, l.head, m}
	c.n, c.next = 0, 0
	q.spread(c.e[:n], m)
	for id := next; id != 0; id = next {
		c = q.chunks[id]
		q.spread(c.e[:c.n], m)
		q.stats.Moved += uint64(c.n)
		next = c.next
		q.recycle(id)
	}
	return true
}

// spread appends each entry to b0 when it is at m, else to its bucket
// relative to m.
func (q *queue) spread(es []entry, m Time) {
	for _, en := range es {
		l := &q.b0
		if d := bits.Len64(uint64(en.at ^ m)); d != 0 {
			q.mask |= 1 << (d - 1)
			l = &q.bk[d-1]
		}
		if l.tail != 0 {
			if c := q.chunks[l.tail]; c.n < QueueChunkLen {
				c.e[c.n] = en
				c.n++
				l.min = min(l.min, en.at)
				continue
			}
		}
		q.appendChunk(l, en)
	}
}

// compact evicts cancelled entries from every lane, filtering each in
// place. Relative order within a lane is kept, which is all the (time,
// sequence) order needs, so determinism is unaffected.
func (e *Engine) compact() {
	q := &e.q
	n := int32(0)
	for _, en := range q.few[:q.nfew] {
		if en.ev.state == evCancelled {
			e.release(en.ev)
			continue
		}
		q.few[n] = en
		n++
	}
	q.nfew = n
	if e.filter(&q.b0, q.r) == 0 && q.b0.head != 0 {
		q.recycle(q.b0.head)
		q.b0 = lane{}
	}
	q.r = 0
	for m := q.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if e.filter(&q.bk[i], 0) == 0 {
			q.recycle(q.bk[i].head)
			q.bk[i] = lane{}
			q.mask &^= 1 << i
		}
	}
	e.cancelled = 0
}

// filter drops the cancelled entries of l, reading its head chunk from
// index from and writing survivors from the head's start, recycles the
// chunks it empties (all but the head), recomputes the lane's minimum,
// and returns the survivor count.
func (e *Engine) filter(l *lane, from int32) int {
	q := &e.q
	if l.head == 0 {
		return 0
	}
	wid := l.head
	w := q.chunks[wid]
	var n, wn int32
	for id, i := l.head, from; id != 0; id, i = q.chunks[id].next, 0 {
		c := q.chunks[id]
		for _, en := range c.e[i:c.n] {
			if en.ev.state == evCancelled {
				e.release(en.ev)
				continue
			}
			if wn == QueueChunkLen {
				wid, wn = w.next, 0
				w = q.chunks[wid]
			}
			w.e[wn] = en
			wn++
			if n == 0 || en.at < l.min {
				l.min = en.at
			}
			n++
		}
	}
	for id := w.next; id != 0; {
		next := q.chunks[id].next
		q.recycle(id)
		id = next
	}
	w.n = wn
	w.next = 0
	l.tail = wid
	return int(n)
}
