package bench

import (
	"fmt"
	"testing"

	"charmgo"
	"charmgo/internal/md"
	"charmgo/internal/sim"
)

// clockCheck is a probe that checks the precondition of exact pruning in
// sim.GapResource: no booking asks for time before its resource's clock
// (the engine's Now). A booking that did
// could land in an interval pruning had already dropped, so placement
// would depend on when pruning ran and Peek could disagree with Acquire.
type clockCheck struct {
	bookings int
	early    []string
}

func (c *clockCheck) EventFired(sim.Time, int)           {}
func (c *clockCheck) FaultNoted(sim.FaultKind, sim.Time) {}

func (c *clockCheck) Booking(r sim.Booked, at, _, _ sim.Time) {
	g, ok := r.(*sim.GapResource)
	if !ok {
		return
	}
	c.bookings++
	if now := g.Clock(); at < now && len(c.early) < 5 {
		c.early = append(c.early, fmt.Sprintf("%s asked for %v at clock %v", g.Name(), at, now))
	}
}

// TestGapBookingsNeverPrecedeClock runs the Fig 13 quick cases on both
// layers under clockCheck.
func TestGapBookingsNeverPrecedeClock(t *testing.T) {
	cases := []struct {
		sys   md.System
		cores int
	}{{md.IAPP, 48}, {md.DHFR, 192}}
	for _, c := range cases {
		for _, layer := range []charmgo.LayerKind{charmgo.LayerMPI, charmgo.LayerUGNI} {
			name := fmt.Sprintf("flat/%s(%d)/%v", c.sys.Name, c.cores, layer)
			t.Run(name, func(t *testing.T) {
				p := &clockCheck{}
				nodes, cpn := geomFor(c.cores)
				m := charmgo.NewMachine(charmgo.MachineConfig{
					Nodes: nodes, CoresPerNode: cpn, Layer: layer, Probe: p,
				})
				md.Run(m, md.Config{System: c.sys, Steps: 2, Warmup: 1, LB: true, Seed: 1})
				closeMachine(m)
				if p.bookings == 0 {
					t.Fatal("no gap-resource bookings observed")
				}
				if len(p.early) > 0 {
					t.Fatalf("bookings before the resource clock: %v", p.early)
				}
			})
		}
	}
}
