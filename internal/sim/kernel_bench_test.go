package sim

import "testing"

// BenchmarkEngineScheduleFire measures the steady-state cost of one
// schedule+fire cycle: the engine's hot path, which every layer of the
// stack drives millions of times per experiment.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	var fn func()
	fn = func() {
		e.Schedule(1, fn)
	}
	e.Schedule(1, fn)
	b.ReportAllocs()
	for b.Loop() {
		e.Step()
	}
}

// BenchmarkEngineQueue measures the event queue under two measured
// population shapes:
//
//   - tiny: the full-axis Fig 9a ping-pong, 100 fresh engines of 277
//     events each with at most 2 pending. Engine construction is part of
//     the cost.
//   - namd: the Fig 13 DHFR/3840 population, about 26K pending, a fifth
//     of them scheduled at zero delay (the dispatch kicks) and the rest
//     log-uniformly over 2^9 to 2^20 ns. It starts warmed up, so steady
//     state allocates nothing.
func BenchmarkEngineQueue(b *testing.B) {
	b.Run("tiny", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for range 100 {
				runPingEngine()
			}
		}
	})
	b.Run("namd", func(b *testing.B) {
		l := newNamdLoad()
		b.ReportAllocs()
		for b.Loop() {
			l.e.Step()
		}
	})
}

// pingLoad is two alternating event chains on one engine.
type pingLoad struct {
	e    *Engine
	left int
	i    uint64
}

func runPingEngine() {
	l := &pingLoad{e: NewEngine(), left: 275}
	l.e.ScheduleArg(0, pingFire, l)
	l.e.ScheduleArg(300, pingFire, l)
	l.e.Run()
}

func pingFire(a any) {
	l := a.(*pingLoad)
	if l.left == 0 {
		return
	}
	l.left--
	l.i++
	l.e.ScheduleArg(Time(500+Mix(l.i)%1000), pingFire, l)
}

// namdLoad keeps a fixed population pending: every fired event schedules
// one successor.
type namdLoad struct {
	e *Engine
	i uint64
}

func newNamdLoad() *namdLoad {
	l := &namdLoad{e: NewEngine()}
	for range 26000 {
		l.schedule()
	}
	for range 200000 {
		l.e.Step()
	}
	return l
}

func (l *namdLoad) schedule() {
	h := Mix(l.i)
	l.i++
	var d Time
	if h%5 != 0 {
		k := 9 + (h>>8)%11
		d = Time(1)<<k + Time(h>>20)%(Time(1)<<k)
	}
	l.e.ScheduleArg(d, namdFire, l)
}

func namdFire(a any) { a.(*namdLoad).schedule() }

// TestEngineQueueNamdAllocFree pins the namd benchmark's steady state: a
// warmed-up queue of about 26K pending events fires and reschedules
// without allocating.
func TestEngineQueueNamdAllocFree(t *testing.T) {
	l := newNamdLoad()
	if a := testing.AllocsPerRun(50000, func() { l.e.Step() }); a != 0 {
		t.Fatalf("namd-shaped step allocates %v per op, want 0", a)
	}
	if n := l.e.Pending(); n != 26000 {
		t.Fatalf("namd load holds %d pending events, want 26000", n)
	}
}

// BenchmarkGapResourceAcquire measures gap-filling bookings under three
// interval mixes:
//
//   - dense: requests land contiguously, so intervals merge and the live
//     set stays tiny (the NIC-engine case);
//   - sparse: requests leave holes, so the live set grows until the clock
//     sweeps past and pruning reclaims it;
//   - fill: the measured torus-link population of the Fig 13 and
//     17-Queens runs, about 250 live intervals with most bookings filling
//     an internal gap (see linkFill). Its ready times are uniform, so
//     consecutive bookings land far apart, which real link streams do
//     not (see GapResource);
//   - links: fill on every link of the 160-node Fig 13 machine at once,
//     booked in hashed order, so the intervals a booking touches are
//     mostly not in cache, as on a real run (see linkFills).
func BenchmarkGapResourceAcquire(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		var now Time
		r := NewGapResource(Lit("x"), func() Time { return now })
		b.ReportAllocs()
		for b.Loop() {
			_, e := r.Acquire(now, 10)
			now = e
		}
	})
	b.Run("sparse", func(b *testing.B) {
		var now Time
		r := NewGapResource(Lit("x"), func() Time { return now })
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			// Book ahead of now with holes; advance the clock slowly so a
			// few hundred live intervals persist between prunes.
			at := now + Time(i%512)*20
			r.Acquire(at, 10)
			if i%512 == 511 {
				now += 512 * 20
			}
			i++
		}
	})
	b.Run("fill", func(b *testing.B) {
		f := newLinkFill()
		b.ReportAllocs()
		for b.Loop() {
			f.book()
		}
	})
	b.Run("links", func(b *testing.B) {
		l := newLinkFills()
		b.ReportAllocs()
		for b.Loop() {
			l.book()
		}
	})
}

// linkFill books like a loaded torus link: each booking is ready up to
// 15000 past a clock that advances 20 per booking, for about 250 live
// intervals and over nine in ten bookings filling an internal gap. It
// starts warmed up, so its buffer already holds the steady-state peak.
type linkFill struct {
	r   *GapResource
	now Time
	i   uint64
}

func newLinkFill() *linkFill {
	f := &linkFill{}
	f.r = NewGapResource(Lit("link"), func() Time { return f.now })
	for range 10000 {
		f.book()
	}
	return f
}

func (f *linkFill) book() {
	h := Mix(f.i)
	f.i++
	f.r.Acquire(f.now+Time(h%15000), 1+Time(h>>32%19))
	f.now += 20
}

// machineLinks is the directional torus link count of the 160-node
// machine of the Fig 13 and 17-Queens runs: six per node.
const machineLinks = 160 * 6

// linkFills is one linkFill per link of the 160-node machine, booked in
// hashed order. Their intervals (about 4 KB per link, 4 MB in all)
// exceed L2, so a booking pays for the cache lines it touches.
type linkFills struct {
	links []*linkFill
	i     uint64
}

func newLinkFills() *linkFills {
	l := &linkFills{links: make([]*linkFill, machineLinks)}
	for j := range l.links {
		l.links[j] = newLinkFill()
	}
	return l
}

func (l *linkFills) book() {
	l.links[Mix(l.i)%machineLinks].book()
	l.i++
}

// TestGapResourceFillAllocFree pins the fill and links benchmarks' steady
// state: warmed-up links book without allocating, while their bookings
// move the hole, use it up and lay the array out again.
func TestGapResourceFillAllocFree(t *testing.T) {
	f := newLinkFill()
	if a := testing.AllocsPerRun(10000, f.book); a != 0 {
		t.Fatalf("fill booking allocates %v per op, want 0", a)
	}
	if n := f.r.Intervals(); n < 150 || n > 400 {
		t.Fatalf("fill holds %d live intervals, want about 250", n)
	}
	l := newLinkFills()
	if a := testing.AllocsPerRun(100000, l.book); a != 0 {
		t.Fatalf("links booking allocates %v per op, want 0", a)
	}
}
