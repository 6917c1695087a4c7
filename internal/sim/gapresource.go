package sim

// GapResource models shared hardware booked with a gap-filling discipline:
// bookings are kept as a set of disjoint busy intervals and a new request
// fills the earliest gap at or after its ready time. This is right for
// shared network hardware (NIC engines, torus links), where posts arrive
// in event order, not ready order: a transfer whose sender's PE-local
// clock ran far ahead must not block an independent, earlier-ready
// transfer posted a moment later.
//
// The interval set is one sorted slice of disjoint, non-adjacent spans.
// Starts are sorted, so ends are sorted too, and the intervals that have
// died (ended at or before the clock) always form a prefix: pruning just
// advances a head index past them, and the dead prefix is reclaimed only
// when the slice is full. A booking binary-searches the first interval
// ending after its ready time, then scans forward for the first gap that
// fits. On the measured populations — a few hundred live intervals per
// torus link, over half of all link bookings filling an internal gap —
// that scan takes one to three steps, and a contiguous array beats any
// pointer-linked search tree. The answer (the earliest gap at or after
// the ready time) is unique, so placement does not depend on the layout.
//
// Every gap resource has a clock (the owning engine's Now); intervals
// wholly in the dead past — no future request may ask for time before
// now — are pruned exactly, so memory is bounded by in-flight bookings
// with no lossy cap.
type GapResource struct {
	name      Name
	clock     func() Time
	iv        []span // iv[head:] are the held intervals in start order
	head      int
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
// interval buffer r already holds is kept for reuse.
func InitGapResource(r *GapResource, name Name, clock func() Time) {
	if clock == nil {
		panic("sim: NewGapResource requires a clock for exact dead-interval pruning")
	}
	*r = GapResource{name: name, clock: clock, iv: r.iv[:0]}
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
	r.prune(r.clock())
	i, start := r.find(at, dur)
	end = start + dur
	if dur > 0 {
		r.insert(i, start, end)
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
	_, start = r.find(at, dur)
	return start, start + dur
}

// prune drops every interval ending at or before now: a prefix, since
// ends are sorted.
func (r *GapResource) prune(now Time) {
	h := r.head
	for h < len(r.iv) && r.iv[h].e <= now {
		h++
	}
	if h == len(r.iv) {
		r.iv, h = r.iv[:0], 0
	}
	r.head = h
}

// find returns the start of the earliest gap at or after at that fits
// dur, and the index of the first held interval after that gap.
func (r *GapResource) find(at, dur Time) (int, Time) {
	iv := r.iv
	if n := len(iv); n == r.head || iv[n-1].e <= at {
		return n, at // past every interval: the common case on NIC units
	}
	lo, hi := r.head, len(iv)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if iv[m].e > at {
			hi = m
		} else {
			lo = m + 1
		}
	}
	pos := at
	for ; lo < len(iv) && iv[lo].s-pos < dur; lo++ {
		pos = iv[lo].e // ends are sorted, so this only moves forward
	}
	return lo, pos
}

// insert adds [s, e) just before iv[i], merging with the neighbours it
// touches so the set stays disjoint and non-adjacent.
func (r *GapResource) insert(i int, s, e Time) {
	iv := r.iv
	left := i > r.head && iv[i-1].e == s
	right := i < len(iv) && iv[i].s == e
	switch {
	case left && right:
		iv[i].s = iv[i-1].s
		r.removeAt(i - 1)
	case left:
		iv[i-1].e = e
	case right:
		iv[i].s = s
	default:
		r.insertAt(i, span{s, e})
	}
}

// removeAt deletes iv[j], shifting whichever side of it is shorter.
func (r *GapResource) removeAt(j int) {
	iv := r.iv
	if j-r.head < len(iv)-1-j {
		copy(iv[r.head+1:j+1], iv[r.head:j])
		r.head++
		return
	}
	copy(iv[j:], iv[j+1:])
	r.iv = iv[:len(iv)-1]
}

// insertAt places sp at index i, shifting whichever side is shorter: the
// intervals before i move down into the dead prefix when there is one.
// A full slice first drops its dead prefix, in place when that frees at
// least half of it and into a larger buffer otherwise.
func (r *GapResource) insertAt(i int, sp span) {
	iv := r.iv
	if r.head > 0 && i-r.head < len(iv)-i {
		copy(iv[r.head-1:i-1], iv[r.head:i])
		r.head--
		iv[i-1] = sp
		return
	}
	if len(iv) == cap(iv) {
		live := iv[r.head:]
		if 2*r.head > len(iv) {
			iv = iv[:len(live)]
		} else {
			//simlint:allow hotpathalloc -- span-slice growth: a resource's buffer grows only while its live interval count reaches a new peak, to about twice that peak, and is then reused for every later booking (about 370 allocations and 0.2 MB per namd benchmark op, Fig 13 DHFR/3840 on both layers)
			iv = make([]span, len(live), 2*len(live)+8)
		}
		copy(iv, live)
		i -= r.head
		r.head = 0
	}
	iv = iv[:len(iv)+1]
	copy(iv[i+1:], iv[i:])
	iv[i] = sp
	r.iv = iv
}

// Intervals reports how many disjoint busy intervals are currently held
// (diagnostic; dead intervals count until the next Acquire prunes them).
func (r *GapResource) Intervals() int { return len(r.iv) - r.head }

// FreeAt reports the time after which the resource is idle forever given
// current bookings (the end of the last interval).
func (r *GapResource) FreeAt() Time {
	if n := len(r.iv); n > r.head {
		return r.iv[n-1].e
	}
	return 0
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
	r.iv, r.head = r.iv[:0], 0
	r.busyTotal = 0
	r.acquires = 0
}
