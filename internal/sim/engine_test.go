package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	if n := e.Run(); n != 3 {
		t.Fatalf("Run fired %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
		e.Schedule(0, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	ev.Cancel() // double-cancel is a no-op
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

// TestEngineCancelStormCompacts checks the cancelled-event leak fix:
// cancelling most of a large queue must shrink the queue before anything
// is popped, and the survivors must still fire in order.
func TestEngineCancelStormCompacts(t *testing.T) {
	e := NewEngine()
	var evs []*Event
	var fired []Time
	for i := 1; i <= 1000; i++ {
		d := Time(i)
		evs = append(evs, e.Schedule(d, func() { fired = append(fired, d) }))
	}
	for i, ev := range evs {
		if i%4 != 0 {
			ev.Cancel()
		}
	}
	if e.Pending() != 250 {
		t.Fatalf("Pending = %d, want 250", e.Pending())
	}
	if got := e.q.len(); got > 500 {
		t.Fatalf("queue holds %d entries after cancel storm, want compaction below 500", got)
	}
	e.Run()
	if len(fired) != 250 {
		t.Fatalf("fired %d, want 250", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatalf("post-compaction firing out of order: %v before %v", fired[i-1], fired[i])
		}
	}
}

// TestEngineEventPooling checks that steady-state scheduling reuses event
// records instead of allocating.
func TestEngineEventPooling(t *testing.T) {
	e := NewEngine()
	var fn func()
	fn = func() {
		if e.Now() < 1000 {
			e.Schedule(1, fn)
		}
	}
	e.Schedule(1, fn)
	allocs := testing.AllocsPerRun(100, func() {
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state Step allocates %.1f objects/op, want 0", allocs)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	n := e.RunUntil(12)
	if n != 2 {
		t.Fatalf("RunUntil fired %d, want 2", n)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %v, want 12 (clock advances to deadline)", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("total fired %d, want 4", len(fired))
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-5, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		rng := NewRNG(42)
		var stamps []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			stamps = append(stamps, e.Now())
			if depth == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				d := Time(rng.Intn(100))
				e.Schedule(d, func() { spawn(depth - 1) })
			}
		}
		e.Schedule(0, func() { spawn(4) })
		e.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewPEResource(Lit("link"))
	s1, e1 := r.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first acquire = [%v,%v), want [0,10)", s1, e1)
	}
	s2, e2 := r.Acquire(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("overlapping acquire = [%v,%v), want [10,20)", s2, e2)
	}
	s3, e3 := r.Acquire(100, 5)
	if s3 != 100 || e3 != 105 {
		t.Fatalf("idle-gap acquire = [%v,%v), want [100,105)", s3, e3)
	}
	if r.BusyTotal() != 25 {
		t.Fatalf("BusyTotal = %v, want 25", r.BusyTotal())
	}
	if r.Acquires() != 3 {
		t.Fatalf("Acquires = %d, want 3", r.Acquires())
	}
}

func TestResourceNeverOverlaps(t *testing.T) {
	// Property: for any sequence of (at, dur) requests, booked intervals
	// never overlap and starts are monotonically non-decreasing.
	f := func(reqs []struct {
		At  uint16
		Dur uint8
	}) bool {
		r := NewPEResource(Lit("x"))
		lastEnd := Time(0)
		for _, q := range reqs {
			s, e := r.Acquire(Time(q.At), Time(q.Dur))
			if s < lastEnd {
				return false
			}
			if e < s {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.5us"},
		{2500000, "2.5ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestName(t *testing.T) {
	if got := Lit("cpu").String(); got != "cpu" {
		t.Fatalf("Lit = %q", got)
	}
	if got := Indexed("node", 17, ".fma").String(); got != "node17.fma" {
		t.Fatalf("Indexed = %q", got)
	}
}

func TestDurationOf(t *testing.T) {
	if d := DurationOf(1000, 1.0); d != 1000 {
		t.Fatalf("DurationOf(1000, 1 B/ns) = %v, want 1000ns", d)
	}
	if d := DurationOf(0, 5); d != 0 {
		t.Fatalf("DurationOf(0, _) = %v, want 0", d)
	}
	if d := DurationOf(100, 0); d != 0 {
		t.Fatalf("DurationOf(_, 0) = %v, want 0", d)
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of range", f)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestMixIsDeterministicAndSpreads(t *testing.T) {
	if Mix(1) != Mix(1) {
		t.Fatal("Mix not deterministic")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		seen[Mix(i)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("Mix collided on small inputs: %d unique of 1000", len(seen))
	}
}

// zeroClock is the clock for gap-resource tests that never advance time.
func zeroClock() Time { return 0 }

func TestGapResourceFillsHoles(t *testing.T) {
	r := NewGapResource(Lit("link"), zeroClock)
	// A far-future booking must not block an earlier-ready request.
	s1, e1 := r.Acquire(1000, 50)
	if s1 != 1000 || e1 != 1050 {
		t.Fatalf("future booking = [%v,%v)", s1, e1)
	}
	s2, e2 := r.Acquire(0, 100)
	if s2 != 0 || e2 != 100 {
		t.Fatalf("gap-fill booking = [%v,%v), want [0,100)", s2, e2)
	}
	// A request that does not fit before 1000 goes after 1050.
	s3, _ := r.Acquire(950, 100)
	if s3 != 1050 {
		t.Fatalf("non-fitting booking starts at %v, want 1050", s3)
	}
}

func TestGapResourceExactFit(t *testing.T) {
	r := NewGapResource(Lit("x"), zeroClock)
	r.Acquire(0, 10)
	r.Acquire(20, 10)
	s, e := r.Acquire(5, 10) // exactly fits [10,20)
	if s != 10 || e != 20 {
		t.Fatalf("exact-fit booking = [%v,%v), want [10,20)", s, e)
	}
	if r.Intervals() != 1 {
		t.Fatalf("Intervals = %d after full merge, want 1", r.Intervals())
	}
	// Everything merged into one interval now: next booking at 30.
	s2, _ := r.Acquire(0, 1)
	if s2 != 30 {
		t.Fatalf("merged booking starts at %v, want 30", s2)
	}
}

func TestGapResourcePeek(t *testing.T) {
	r := NewGapResource(Lit("x"), zeroClock)
	r.Acquire(0, 10)
	r.Acquire(20, 10)
	if s, e := r.Peek(5, 10); s != 10 || e != 20 {
		t.Fatalf("Peek = [%v,%v), want [10,20)", s, e)
	}
	if r.Intervals() != 2 {
		t.Fatal("Peek booked")
	}
	// Peek with zero duration reports the next idle instant.
	if s, _ := r.Peek(3, 0); s != 10 {
		t.Fatalf("Peek(3,0) = %v, want 10", s)
	}
	if s, _ := r.Peek(15, 0); s != 15 {
		t.Fatalf("Peek(15,0) = %v, want 15", s)
	}
}

func TestGapResourceNeverOverlaps(t *testing.T) {
	f := func(reqs []struct {
		At  uint16
		Dur uint8
	}) bool {
		r := NewGapResource(Lit("x"), zeroClock)
		type iv struct{ s, e Time }
		var booked []iv
		for _, q := range reqs {
			if q.Dur == 0 {
				continue
			}
			s, e := r.Acquire(Time(q.At), Time(q.Dur))
			if s < Time(q.At) || e != s+Time(q.Dur) {
				return false
			}
			for _, b := range booked {
				if s < b.e && b.s < e {
					return false // overlap
				}
			}
			booked = append(booked, iv{s, e})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGapResourcePruneWithClock(t *testing.T) {
	var now Time
	r := NewGapResource(Lit("x"), func() Time { return now })
	for i := 0; i < 100; i++ {
		r.Acquire(Time(i*10), 5)
	}
	now = 2000
	r.Acquire(2000, 5) // triggers prune
	if n := r.Intervals(); n > 2 {
		t.Fatalf("prune left %d intervals", n)
	}
	if r.FreeAt() != 2005 {
		t.Fatalf("FreeAt = %v", r.FreeAt())
	}
}

func TestGapResourceRequiresClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGapResource(nil clock) did not panic")
		}
	}()
	NewGapResource(Lit("x"), nil)
}

func TestBusyUntilResourceStillFIFO(t *testing.T) {
	r := NewPEResource(Lit("cpu"))
	r.Acquire(100, 10)
	s, _ := r.Acquire(0, 5) // must NOT fill the hole before 100
	if s != 110 {
		t.Fatalf("busy-until resource gap-filled: start %v, want 110", s)
	}
}

// probeLog is a test probe.
type probeLog struct {
	events   int
	bookings int
	booked   Time
}

func (p *probeLog) EventFired(now Time, pending int) { p.events++ }
func (p *probeLog) Booking(r Booked, at, start, end Time) {
	p.bookings++
	p.booked += end - start
}
func (p *probeLog) FaultNoted(FaultKind, Time) {}

// TestProbeObservesKernel checks that an installed probe sees every fired
// event and every booking on both resource kinds, and that KernelStats
// aggregates per-resource busy time.
func TestProbeObservesKernel(t *testing.T) {
	e := NewEngine()
	p := &probeLog{}
	ks := NewKernelStats()
	e.SetProbe(Probes(p, ks))
	cpu := NewPEResource(Lit("cpu"))
	cpu.SetProbe(e.Probe())
	link := NewGapResource(Lit("link"), e.Now)
	link.SetProbe(e.Probe())
	e.Schedule(5, func() {
		cpu.Acquire(e.Now(), 10)
		link.Acquire(e.Now(), 7)
	})
	e.Schedule(9, func() {})
	e.Run()
	if p.events != 2 || ks.Events != 2 {
		t.Fatalf("probe saw %d/%d events, want 2", p.events, ks.Events)
	}
	if p.bookings != 2 || p.booked != 17 {
		t.Fatalf("probe saw %d bookings totalling %v, want 2 totalling 17", p.bookings, p.booked)
	}
	if ks.BookedTime != 17 {
		t.Fatalf("KernelStats.BookedTime = %v, want 17", ks.BookedTime)
	}
	rows := ks.TopResources(10)
	if len(rows) != 2 || rows[0].Name != "cpu" || rows[0].Busy != 10 {
		t.Fatalf("TopResources = %+v", rows)
	}
}

// len counts the queue's entries, cancelled ones included, by walking
// every lane.
func (q *queue) len() int {
	n := int(q.nfew) - int(q.r)
	count := func(l lane) {
		for id := l.head; id != 0; id = q.chunks[id].next {
			n += int(q.chunks[id].n)
		}
	}
	count(q.b0)
	if q.bk != nil {
		for _, l := range q.bk {
			count(l)
		}
	}
	return n
}
