package sim

// GapResource models shared hardware booked with a gap-filling discipline:
// bookings are kept as a set of disjoint busy intervals and a new request
// fills the earliest gap at or after its ready time. This is right for
// shared network hardware (NIC engines, torus links), where posts arrive
// in event order, not ready order: a transfer whose sender's PE-local
// clock ran far ahead must not block an independent, earlier-ready
// transfer posted a moment later.
//
// The interval set is one sorted array of disjoint, non-adjacent spans
// with a hole in it: iv[:lo] and iv[hi:] hold the intervals in start
// order and iv[lo:hi] is free. Starts are sorted, so ends are sorted too.
// A booking that lands after every interval appends past iv[hi:]; any
// other booking moves the hole to where it lands, by the intervals in
// between, and fills or merges there. The answer (the earliest gap at or
// after the ready time) is unique, so placement does not depend on the
// layout.
//
// The layout follows where bookings land on a loaded link, whose
// intervals are usually out of cache when it is booked. Of the first 3M
// torus-link bookings of a Fig 13 (namd) op (BenchmarkLinkBookingReplay
// in internal/bench replays them), 47% land after every interval; the
// rest land a mean 9 intervals (median 1) from the previous one on the
// same link, among 222 held intervals. So the search gallops out from
// the hole, a read or two next to the previous booking, and moving the
// hole shifts a few intervals, where a binary search of the whole set
// and a shift of the shorter side of the array (47 intervals on average)
// touch many cold lines. The end of the last interval lives in the
// header, so a booking after every interval reads no interval.
//
// Every gap resource has a clock (the owning engine's Now); no booking
// may ask for time before it, so an interval that ended by the clock can
// never matter again. Dead intervals are dropped lazily, without reading
// the front of the array per booking: all at once when a booking after
// every interval finds the last one dead, and otherwise when the array
// runs out of room and is laid out again, so memory stays bounded by
// in-flight bookings with no lossy cap. Intervals and FreeAt count only
// intervals that outlive the clock of the last Acquire.
type GapResource struct {
	name      Name
	clock     func() Time
	seen      Time   // the clock at the last Acquire
	last      Time   // end of the last interval; minTime when none
	iv        []span // intervals in iv[:lo] and iv[hi:]; iv[lo:hi] is the hole
	lo, hi    int32
	busyTotal Time
	acquires  uint64
	probe     Probe
}

// span is one busy interval [s, e).
type span struct{ s, e Time }

// NewGapResource returns an idle gap-filling resource. The clock is
// mandatory: it is what allows exact pruning of dead intervals, and a
// resource without one would either leak or (as the old implementation
// did) silently drop potentially-live bookings past an arbitrary cap.
func NewGapResource(name Name, clock func() Time) *GapResource {
	r := &GapResource{}
	InitGapResource(r, name, clock)
	return r
}

// InitGapResource initializes r in place with NewGapResource semantics,
// for callers that slab-allocate resource arrays (one allocation for a
// whole network's links) instead of one heap object per resource. The
// interval buffer r already holds is kept for reuse: every other field is
// reset, and only the buffer's capacity carries over, which moves where
// intervals sit in it but never where a booking lands.
func InitGapResource(r *GapResource, name Name, clock func() Time) {
	if clock == nil {
		panic("sim: NewGapResource requires a clock for exact dead-interval pruning")
	}
	*r = GapResource{name: name, clock: clock, last: minTime, iv: r.iv[:0]}
}

// SetProbe installs p to observe every booking (nil disables).
func (r *GapResource) SetProbe(p Probe) { r.probe = p }

// Name reports the diagnostic name given at construction.
func (r *GapResource) Name() string { return r.name.String() }

// Clock reports the resource's pruning clock: the earliest time any
// booking may ask for.
func (r *GapResource) Clock() Time { return r.clock() }

// Acquire books the resource for dur units starting no earlier than at and
// returns the booked interval [start, end): the earliest gap at or after
// at that fits dur.
func (r *GapResource) Acquire(at, dur Time) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	r.acquires++
	r.busyTotal += dur
	now := r.clock()
	r.seen = now
	if at >= r.last {
		start, end = at, at+dur
		if dur > 0 {
			if r.last <= now { // every interval is dead
				r.iv, r.lo, r.hi, r.last = r.iv[:0], 0, 0, minTime
			}
			r.append(start, end)
		}
	} else {
		var p int
		p, start = r.find(at, dur)
		end = start + dur
		if dur > 0 {
			r.insert(p, start, end)
		}
	}
	if r.probe != nil {
		r.probe.Booking(r, at, start, end)
	}
	return start, end
}

// Peek reports where Acquire(at, dur) would book, without booking.
func (r *GapResource) Peek(at, dur Time) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	if at >= r.last {
		return at, at + dur
	}
	_, start = r.find(at, dur)
	return start, start + dur
}

// append adds [s, e) after every interval.
func (r *GapResource) append(s, e Time) {
	iv := r.iv
	switch {
	case r.last == s && len(iv) > int(r.hi): // extends the last interval
		iv[len(iv)-1].e = e
	case r.last == s: // extends the last interval, below the hole
		iv[r.lo-1].e = e
	default:
		if len(iv) == cap(iv) {
			r.relayout()
			iv = r.iv
		}
		iv = iv[:len(iv)+1]
		iv[len(iv)-1] = span{s, e}
		r.iv = iv
	}
	r.last = e
}

// find returns the start of the earliest gap at or after at that fits
// dur, and where the first interval after that gap is: an index in
// [0, lo) or [hi, len(iv)], the latter meaning after every interval. The
// last interval must end after at.
func (r *GapResource) find(at, dur Time) (int, Time) {
	iv, lo := r.iv, int(r.lo)
	p := r.lowerBound(at)
	pos := at
	for {
		if p == lo {
			p = int(r.hi)
		}
		if p == len(iv) || iv[p].s-pos >= dur {
			return p, pos
		}
		pos = iv[p].e // ends are sorted, so this only moves forward
		p++
	}
}

// lowerBound returns the index of the first interval ending after t, in
// [0, lo) or [hi, len(iv)], len(iv) if there is none. It gallops out from
// the hole: bookings on a link land close together, so the answer is
// usually a read or two away.
func (r *GapResource) lowerBound(t Time) int {
	iv, lo, hi := r.iv, int(r.lo), int(r.hi)
	if lo > 0 && iv[lo-1].e > t { // below the hole: probe lo-2, lo-4, lo-8, lo-16
		j, step := lo-1, 1
		for j-step >= 0 && iv[j-step].e > t {
			j -= step
			if step == gallopMax {
				return firstAfter(iv, 0, j, t)
			}
			step *= 2
		}
		return firstAfter(iv, max(j-step+1, 0), j, t)
	}
	a, bound := hi, 1 // above it: probe hi, hi+1, hi+3, hi+7
	for hi+bound <= len(iv) && iv[hi+bound-1].e <= t {
		a = hi + bound
		if bound == gallopMax {
			return firstAfter(iv, a, len(iv), t)
		}
		bound *= 2
	}
	return firstAfter(iv, a, min(hi+bound-1, len(iv)), t)
}

// gallopMax is the longest step lowerBound gallops: an answer more than
// gallopMax (above the hole) or 2*gallopMax (below it) intervals away is
// binary-searched in the rest of its side.
const gallopMax = 8

// firstAfter binary-searches iv[a:b] for the first interval ending after
// t, returning b if none does.
func firstAfter(iv []span, a, b int, t Time) int {
	for a < b {
		m := int(uint(a+b) >> 1)
		if iv[m].e > t {
			b = m
		} else {
			a = m + 1
		}
	}
	return a
}

// insert books [s, e) before the interval at p (a result of find),
// merging with the neighbours it touches so the set stays disjoint and
// non-adjacent. A merge with one neighbour changes it in place; a new
// interval, or one merging both neighbours, first moves the hole to p,
// shifting the intervals in between, and then fills or widens it.
func (r *GapResource) insert(p int, s, e Time) {
	iv, lo, hi := r.iv, int(r.lo), int(r.hi)
	l := p - 1 // the left neighbour
	if p == hi {
		l = lo - 1
	}
	left := l >= 0 && iv[l].e == s
	right := p < len(iv) && iv[p].s == e
	switch {
	case left && !right:
		iv[l].e = e
		if r.last == s {
			r.last = e
		}
		return
	case right && !left:
		iv[p].s = s
		return
	}
	if p < lo {
		n := copy(iv[hi-(lo-p):hi], iv[p:lo])
		lo, hi = p, hi-n
	} else if p > hi {
		n := copy(iv[lo:], iv[hi:p])
		lo, hi = lo+n, p
	}
	if left { // and right: one interval now spans both neighbours
		iv[lo-1].e = iv[hi].e
		hi++
	} else {
		if lo == hi {
			r.lo, r.hi = int32(lo), int32(hi)
			r.relayout()
			iv, lo, hi = r.iv, int(r.lo), int(r.hi)
		}
		iv[lo] = span{s, e}
		lo++
	}
	r.lo, r.hi = int32(lo), int32(hi)
}

// relayout drops the dead intervals and lays the live ones out again,
// with the hole where it was and room to append after them, the free
// slots split evenly between the two: in place while the live intervals
// fill at most three quarters of the array, otherwise in one twice its
// size. Each relayout thus buys at least live/6 new intervals, or as many
// appends, before the next.
func (r *GapResource) relayout() {
	iv, lo, hi := r.iv, int(r.lo), int(r.hi)
	d := r.firstLive()
	a := iv[:lo]
	b := iv[hi:]
	if d < lo {
		a = a[d:]
	} else {
		b, a = b[firstAfter(b, 0, len(b), r.seen):], nil
	}
	live := len(a) + len(b)
	buf := iv[:cap(iv)]
	if 4*live > 3*cap(iv) || cap(iv)-live < 2 {
		//simlint:allow hotpathalloc -- span-array growth: a resource's array doubles only while its live interval count reaches a new peak, and it survives Network.Close into the next network built from the same slabs (InitGapResource keeps it), so the first namd benchmark op (Fig 13 DHFR/3840 on both layers) grows about 5,900 arrays for 20 MB, the second about one (an array that starts larger is laid out again at other moments), and later ops none
		buf = make([]span, max(2*cap(iv), 8))
	}
	hole := (len(buf) - live) / 2
	copy(buf, a)
	end := len(a) + hole + len(b)
	copy(buf[len(a)+hole:end], b)
	r.iv, r.lo, r.hi = buf[:end], int32(len(a)), int32(len(a)+hole)
}

// firstLive returns the index of the first interval ending after the
// clock of the last Acquire, in [0, lo) or [hi, len(iv)]; the ones before
// it are dead.
func (r *GapResource) firstLive() int {
	iv, lo := r.iv, int(r.lo)
	if lo > 0 && iv[lo-1].e > r.seen {
		return firstAfter(iv, 0, lo, r.seen)
	}
	return firstAfter(iv, int(r.hi), len(iv), r.seen)
}

// Intervals reports how many disjoint busy intervals are currently held:
// those ending after the clock of the last Acquire (diagnostic).
func (r *GapResource) Intervals() int {
	lo, hi := int(r.lo), int(r.hi)
	d := r.firstLive()
	if d < lo {
		return lo - d + len(r.iv) - hi
	}
	return len(r.iv) - d
}

// FreeAt reports the time after which the resource is idle forever given
// current bookings (the end of the last interval), or 0 if every interval
// ended by the clock of the last Acquire.
func (r *GapResource) FreeAt() Time {
	if r.last <= r.seen {
		return 0
	}
	return r.last
}

// BusyTotal reports the cumulative booked time.
func (r *GapResource) BusyTotal() Time { return r.busyTotal }

// Acquires reports how many bookings have been made.
func (r *GapResource) Acquires() uint64 { return r.acquires }

// Utilization reports busyTotal / window, clamped to [0, 1]; it is a
// convenience for link-load reporting.
func (r *GapResource) Utilization(window Time) float64 {
	if window <= 0 {
		return 0
	}
	u := float64(r.busyTotal) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}

// Reset returns the resource to idle and clears statistics.
func (r *GapResource) Reset() {
	r.iv, r.lo, r.hi = r.iv[:0], 0, 0
	r.seen, r.last = 0, minTime
	r.busyTotal = 0
	r.acquires = 0
}
