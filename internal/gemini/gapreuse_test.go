package gemini

import (
	"reflect"
	"testing"

	"charmgo/internal/sim"
)

// booking is one recorded GapResource booking: the resource, the clock
// it was made at, the ready time asked for and the interval granted.
type booking struct {
	r                 *sim.GapResource
	now, at, start, e sim.Time
}

// bookingRecorder is a probe that records every booking of a network.
type bookingRecorder struct {
	eng  *sim.Engine
	log  []booking
	seen map[*sim.GapResource]bool
	res  []*sim.GapResource // every booked resource, in first-booking order
}

func (p *bookingRecorder) EventFired(sim.Time, int)           {}
func (p *bookingRecorder) FaultNoted(sim.FaultKind, sim.Time) {}
func (p *bookingRecorder) Booking(b sim.Booked, at, start, end sim.Time) {
	r := b.(*sim.GapResource)
	if !p.seen[r] {
		p.seen[r] = true
		p.res = append(p.res, r)
	}
	p.log = append(p.log, booking{r: r, now: p.eng.Now(), at: at, start: start, e: end})
}

// rebuildTraffic is the cross-traffic of TestLinkTrafficConservation
// fifteen times over, 3,000 transfers in 40 µs: dense enough that busy
// links outgrow their first 8 spans (the test checks that) while the
// clock prunes them as it moves.
func rebuildTraffic(nodes int) []xferOp {
	var ops []xferOp
	for seed := uint64(1); seed <= 15; seed++ {
		ops = append(ops, drawCrossTraffic(seed, nodes)...)
	}
	return ops
}

// spanCap reads the capacity of r's interval array: the buffer a rebuilt
// network's resources should come back with.
func spanCap(r *sim.GapResource) int { return reflect.ValueOf(r).Elem().FieldByName("iv").Cap() }

// spanCaps maps every NIC resource and link of n to its interval-array
// capacity.
func spanCaps(n *Network) map[string]int {
	caps := make(map[string]int)
	for _, res := range [][]sim.GapResource{n.nicRes, n.links} {
		for i := range res {
			caps[res[i].Name()] = spanCap(&res[i])
		}
	}
	return caps
}

// bookTraffic builds a network of the given size from the construction
// caches, books the workload on it, checks every booking, FreeAt and
// Intervals against a replay into fresh resources, and closes it. It
// returns every resource's interval-array capacity as the network was
// built and as it closed.
func bookTraffic(t *testing.T, nodes int) (built, closed map[string]int) {
	t.Helper()
	eng := sim.NewEngine()
	net := NewNetwork(eng, nodes, DefaultParams())
	built = spanCaps(net)
	ops := rebuildTraffic(nodes)
	rec := &bookingRecorder{eng: eng, seen: make(map[*sim.GapResource]bool)}
	net.SetProbe(rec)
	launches := make([]launchOp, len(ops))
	for i := range ops {
		launches[i] = launchOp{net: net, op: &ops[i]}
		eng.AtArg(ops[i].at, fireLaunch, &launches[i])
	}
	eng.Run()

	var clock sim.Time
	fresh := make(map[*sim.GapResource]*sim.GapResource)
	for _, r := range rec.res {
		fresh[r] = sim.NewGapResource(sim.Lit(r.Name()), func() sim.Time { return clock })
	}
	for i, b := range rec.log {
		clock = b.now
		s, e := fresh[b.r].Acquire(b.at, b.e-b.start)
		if s != b.start || e != b.e {
			t.Fatalf("%d nodes: booking %d on %s at %v granted [%v, %v), a fresh resource grants [%v, %v)",
				nodes, i, b.r.Name(), b.at, b.start, b.e, s, e)
		}
	}
	for _, r := range rec.res {
		f := fresh[r]
		if r.FreeAt() != f.FreeAt() || r.Intervals() != f.Intervals() {
			t.Fatalf("%d nodes: %s ends with FreeAt %v and %d intervals, a fresh resource with %v and %d",
				nodes, r.Name(), r.FreeAt(), r.Intervals(), f.FreeAt(), f.Intervals())
		}
	}
	closed = spanCaps(net)
	net.Close()
	return built, closed
}

// TestGapBuffersSurviveRebuild closes a network and builds the same shape
// again from the construction caches: every link and NIC resource comes
// back with the interval array it grew and books the same traffic exactly
// as a fresh resource would. A rebuild at another shape, whose resources
// inherit arrays grown by other links, books identically too.
//
// The arrays converge rather than stop growing at once. An array that
// starts larger is laid out again at other moments, and relayout grows
// one whose live intervals fill three quarters of it, a check the first
// pass may never have made at that load: on this traffic the second pass
// doubles 6 of the 250 arrays that grew past 8 spans once more, and from
// the third pass on none grows.
func TestGapBuffersSurviveRebuild(t *testing.T) {
	const nodes = 64
	_, first := bookTraffic(t, nodes)
	grown := 0
	for _, c := range first {
		if c > 8 {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("no resource grew past its first 8 spans: the workload never reaches relayout's growth")
	}
	built, second := bookTraffic(t, nodes)
	for name, c := range first {
		if built[name] != c {
			t.Fatalf("%s came back with a %d-span array, it held %d when the last network closed", name, built[name], c)
		}
		if second[name] != c && second[name] != 2*c {
			t.Fatalf("%s grew from %d to %d spans replaying the same traffic", name, c, second[name])
		}
	}
	_, third := bookTraffic(t, nodes)
	for name, c := range second {
		if third[name] != c {
			t.Fatalf("%s grew from %d to %d spans on the third pass of the same traffic", name, c, third[name])
		}
	}
	bookTraffic(t, 27) // a smaller shape, from the same slabs
	bookTraffic(t, nodes)
}
