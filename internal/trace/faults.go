package trace

import (
	"fmt"
	"strings"

	"charmgo/internal/sim"
)

// FaultTimeline is a sim.Probe that journals fault-model observations —
// injected perturbations and the recovery actions they provoke
// (failovers, reroutes, checkpoints, rollbacks) — as a time-ordered
// event list, the resilience analogue of the Recorder's interval
// journal. Attach it via charmgo MachineConfig.Probe (compose with other
// probes through sim.Probes). It ignores event and booking traffic, so
// it is cheap enough to leave on for recovery experiments.
type FaultTimeline struct {
	notes []FaultNote
}

// FaultNote is one journaled observation.
type FaultNote struct {
	Kind sim.FaultKind
	At   sim.Time
}

// EventFired implements sim.Probe (ignored).
func (f *FaultTimeline) EventFired(now sim.Time, pending int) {}

// Booking implements sim.Probe (ignored).
func (f *FaultTimeline) Booking(r sim.Booked, at, start, end sim.Time) {}

// FaultNoted implements sim.Probe: append one observation. Notes arrive
// in kernel execution order, so the journal is already time-sorted.
func (f *FaultTimeline) FaultNoted(kind sim.FaultKind, now sim.Time) {
	f.notes = append(f.notes, FaultNote{Kind: kind, At: now})
}

// Notes returns the journal in observation order. The slice aliases the
// timeline's storage; callers must not mutate it.
func (f *FaultTimeline) Notes() []FaultNote { return f.notes }

// Count reports how many observations of kind were journaled.
func (f *FaultTimeline) Count(kind sim.FaultKind) int {
	n := 0
	for _, note := range f.notes {
		if note.Kind == kind {
			n++
		}
	}
	return n
}

// Reset clears the journal, retaining storage.
func (f *FaultTimeline) Reset() { f.notes = f.notes[:0] }

// Render formats the journal one observation per line, e.g.
//
//	1200 node-kill
//	1500 failover
//
// Deterministic runs render identical timelines, so the output diffs
// cleanly across seeds.
func (f *FaultTimeline) Render() string {
	var b strings.Builder
	for _, note := range f.notes {
		fmt.Fprintf(&b, "%8d %s\n", int64(note.At), note.Kind)
	}
	return b.String()
}

var _ sim.Probe = (*FaultTimeline)(nil)
