package sim

import (
	"encoding/binary"
	"slices"
	"sort"
	"testing"
)

// linearGap is the reference gap-filling implementation: one sorted slice
// that never prunes. GapResource must book bit-identically against it.
type linearGap struct{ iv []struct{ s, e Time } }

func (l *linearGap) acquire(at, dur Time) (Time, Time) {
	pos := at
	i := sort.Search(len(l.iv), func(i int) bool { return l.iv[i].e > at })
	for ; i < len(l.iv); i++ {
		if l.iv[i].s-pos >= dur {
			break
		}
		if l.iv[i].e > pos {
			pos = l.iv[i].e
		}
	}
	s, e := pos, pos+dur
	if dur > 0 {
		j := sort.Search(len(l.iv), func(i int) bool { return l.iv[i].s >= s })
		switch {
		case j > 0 && l.iv[j-1].e == s:
			l.iv[j-1].e = e
			if j < len(l.iv) && l.iv[j].s == e {
				l.iv[j-1].e = l.iv[j].e
				l.iv = append(l.iv[:j], l.iv[j+1:]...)
			}
		case j < len(l.iv) && l.iv[j].s == e:
			l.iv[j].s = s
		default:
			l.iv = append(l.iv, struct{ s, e Time }{})
			copy(l.iv[j+1:], l.iv[j:])
			l.iv[j] = struct{ s, e Time }{s, e}
		}
	}
	return s, e
}

// live counts the intervals still busy after now: the ones a pruned
// resource holds.
func (l *linearGap) live(now Time) int {
	return len(l.iv) - sort.Search(len(l.iv), func(i int) bool { return l.iv[i].e > now })
}

// freeAt is FreeAt for a resource pruned at now.
func (l *linearGap) freeAt(now Time) Time {
	if n := len(l.iv); n > 0 && l.iv[n-1].e > now {
		return l.iv[n-1].e
	}
	return 0
}

// gapOp is one step of a booking stream: advance the clock by adv, then
// book dur units ready at off past the new clock. The clock only moves
// forward and no booking asks for time before it, the precondition of
// exact pruning.
type gapOp struct{ adv, off, dur Time }

// gapShape summarises a stream as GapResource saw it.
type gapShape struct {
	ops, fills int // fills: bookings ending before the previous FreeAt
	medianLive int
	peakLive   int
}

// runGapStream drives a GapResource and the linear reference with ops and
// fails on the first divergence. Before every booking it checks Peek
// against the Acquire that follows; after it, FreeAt and Intervals
// against the reference's live intervals, and the layout invariants
// (checkGapLayout).
func runGapStream(t testing.TB, ops []gapOp) gapShape {
	t.Helper()
	var now Time
	r := NewGapResource(Lit("x"), func() Time { return now })
	ref := &linearGap{}
	var sh gapShape
	live := make([]int, 0, len(ops))
	for i, op := range ops {
		now += op.adv
		at := now + op.off
		prev := r.FreeAt()
		ps, pe := r.Peek(at, op.dur)
		s, e := r.Acquire(at, op.dur)
		rs, re := ref.acquire(at, op.dur)
		if s != rs || e != re {
			t.Fatalf("op %d: Acquire(%v,%v) = [%v,%v), reference [%v,%v)", i, at, op.dur, s, e, rs, re)
		}
		if ps != s || pe != e {
			t.Fatalf("op %d: Peek(%v,%v) = [%v,%v), Acquire booked [%v,%v)", i, at, op.dur, ps, pe, s, e)
		}
		if got, want := r.FreeAt(), ref.freeAt(now); got != want {
			t.Fatalf("op %d: FreeAt = %v, reference %v", i, got, want)
		}
		n := r.Intervals()
		if want := ref.live(now); n != want {
			t.Fatalf("op %d: Intervals = %d, reference holds %d live", i, n, want)
		}
		checkGapLayout(t, i, r)
		if e < prev {
			sh.fills++
		}
		live = append(live, n)
	}
	sh.ops = len(ops)
	if sh.ops > 0 {
		slices.Sort(live)
		sh.medianLive, sh.peakLive = live[len(live)/2], live[len(live)-1]
	}
	return sh
}

// checkGapLayout fails unless r's intervals, iv[:lo] then iv[hi:], are
// disjoint, non-adjacent and in start order, and the header's last end is
// the last interval's (minTime when none).
func checkGapLayout(t testing.TB, op int, r *GapResource) {
	t.Helper()
	if r.lo < 0 || r.lo > r.hi || int(r.hi) > len(r.iv) {
		t.Fatalf("op %d: hole [%d, %d) in %d slots", op, r.lo, r.hi, len(r.iv))
	}
	held := append(slices.Clip(r.iv[:r.lo]), r.iv[r.hi:]...)
	for j, sp := range held {
		if sp.e <= sp.s || j > 0 && sp.s <= held[j-1].e {
			t.Fatalf("op %d: interval %d [%v, %v) after [%v, %v)", op, j, sp.s, sp.e, held[max(j-1, 0)].s, held[max(j-1, 0)].e)
		}
	}
	last := minTime
	if len(held) > 0 {
		last = held[len(held)-1].e
	}
	if r.last != last {
		t.Fatalf("op %d: header holds last end %v, the intervals %v", op, r.last, last)
	}
}

// uniformGapStream is random bookings up to 2000 past the clock, with the
// clock advancing every 64 bookings.
func uniformGapStream() []gapOp {
	rng := NewRNG(12345)
	ops := make([]gapOp, 20000)
	for i := range ops {
		ops[i] = gapOp{off: Time(rng.Intn(2000)), dur: Time(rng.Intn(50))}
		if i%64 == 0 && i > 0 {
			ops[i].adv = Time(rng.Intn(500))
		}
	}
	return ops
}

// linkGapStream is shaped like a loaded torus link in the Fig 13 and
// 17-Queens runs: a steady state of a few hundred live intervals where
// most bookings fill an internal gap, then a stalled clock under which the
// live set grows past 10K (the peaks measured on namd links), then a jump
// that prunes it all and a return to the steady state.
func linkGapStream() []gapOp {
	rng := NewRNG(7)
	var ops []gapOp
	steady := func(n int) {
		for range n {
			op := gapOp{adv: Time(rng.Intn(41)), off: Time(rng.Intn(15000)), dur: 1 + Time(rng.Intn(19))}
			if rng.Intn(8) == 0 {
				op.off = 0 // ready now, right behind intervals pruning just dropped
			}
			ops = append(ops, op)
		}
	}
	steady(20000)
	for range 14000 {
		ops = append(ops, gapOp{off: Time(rng.Intn(1 << 22)), dur: 1 + Time(rng.Intn(19))})
	}
	ops = append(ops, gapOp{adv: 1 << 23, dur: 10})
	steady(10000)
	return ops
}

// TestGapResourceMatchesLinearReference drives GapResource and the
// reference with identical forward-clock request streams and requires
// identical bookings: placement must not depend on pruning or layout.
func TestGapResourceMatchesLinearReference(t *testing.T) {
	cases := []struct {
		name  string
		ops   []gapOp
		check func(t *testing.T, sh gapShape)
	}{
		{"uniform", uniformGapStream(), func(*testing.T, gapShape) {}},
		{"link", linkGapStream(), func(t *testing.T, sh gapShape) {
			if 2*sh.fills <= sh.ops || sh.medianLive < 100 || sh.medianLive > 1000 || sh.peakLive <= 10000 {
				t.Fatalf("stream is not link-shaped: %d/%d gap fills, median live %d, peak live %d",
					sh.fills, sh.ops, sh.medianLive, sh.peakLive)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sh := runGapStream(t, c.ops)
			c.check(t, sh)
		})
	}
}

// gapOpsFromBytes decodes a fuzz input, four bytes per booking: clock
// advance, ready offset (little-endian uint16) and duration.
func gapOpsFromBytes(data []byte) []gapOp {
	ops := make([]gapOp, 0, len(data)/4)
	for ; len(data) >= 4; data = data[4:] {
		ops = append(ops, gapOp{
			adv: Time(data[0]),
			off: Time(binary.LittleEndian.Uint16(data[1:3])),
			dur: Time(data[3] % 64),
		})
	}
	return ops
}

// FuzzGapResource compares GapResource with the linear reference under a
// forward-only clock. The checked-in corpus (testdata/fuzz) runs with the
// ordinary tests; `make fuzz-smoke` explores beyond it.
func FuzzGapResource(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runGapStream(t, gapOpsFromBytes(data))
	})
}
