package bench

import (
	"strings"
	"testing"

	"charmgo"
	"charmgo/internal/md"
	"charmgo/internal/sim"
)

// linkBooking is one recorded torus-link booking: the link, the clock when
// it was made, the ready time asked for and the duration.
type linkBooking struct {
	link         int32
	now, at, dur sim.Time
}

// linkRecorder is a probe that records the first max torus-link bookings
// of a run. Links are numbered in the order they are first booked.
type linkRecorder struct {
	ids  map[*sim.GapResource]int32 // -1 for NIC units
	recs []linkBooking
	max  int
}

func (l *linkRecorder) EventFired(sim.Time, int)           {}
func (l *linkRecorder) FaultNoted(sim.FaultKind, sim.Time) {}

func (l *linkRecorder) Booking(r sim.Booked, at, start, end sim.Time) {
	g, ok := r.(*sim.GapResource)
	if !ok || len(l.recs) == l.max {
		return
	}
	id, seen := l.ids[g]
	if !seen {
		id = -1
		if strings.HasPrefix(g.Name(), "link") {
			id = int32(len(l.ids))
		}
		l.ids[g] = id
	}
	if id >= 0 {
		l.recs = append(l.recs, linkBooking{id, g.Clock(), at, end - start})
	}
}

// BenchmarkLinkBookingReplay replays the first 3M torus-link bookings of
// the Fig 13 DHFR/3840 point on the MPI layer (the first half of a
// simbench namd op at seed 1) into fresh GapResources, one per link, and
// reports the host time per booking. Unlike the synthetic streams of
// sim.BenchmarkGapResourceAcquire, it keeps the real streams' locality:
// where on a link each booking lands relative to the previous one.
// Placement is unique, so the stream is the same for every interval-set
// layout. Recording takes a few seconds and about 100 MB.
func BenchmarkLinkBookingReplay(b *testing.B) {
	rec := &linkRecorder{ids: make(map[*sim.GapResource]int32), max: 3_000_000}
	rec.recs = make([]linkBooking, 0, rec.max)
	m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: 160, Layer: charmgo.LayerMPI, Probe: rec})
	md.Run(m, md.Config{System: md.DHFR, Steps: 4, Warmup: 2, LB: true, Seed: 1})
	closeMachine(m)
	var now sim.Time
	clock := func() sim.Time { return now }
	links := make([]sim.GapResource, len(rec.ids))
	b.ResetTimer()
	for b.Loop() {
		for i := range links {
			sim.InitGapResource(&links[i], sim.Lit("link"), clock)
		}
		for _, r := range rec.recs {
			now = r.now
			links[r.link].Acquire(r.at, r.dur)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rec.recs)), "ns/booking")
}
