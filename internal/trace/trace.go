// Package trace is the Projections stand-in (paper Figure 12): it records
// per-PE busy intervals classified as application work or runtime overhead,
// bins them over time, and renders the utilization profile — useful
// computation, overhead, and idle time — that the paper uses to explain the
// N-Queens scaling difference between the two machine layers.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"charmgo/internal/sim"
)

// Kind classifies a recorded interval.
type Kind int

const (
	// KindApp is useful application computation (Projections' "useful").
	KindApp Kind = iota
	// KindOverhead is runtime/communication overhead (Projections' black).
	KindOverhead
)

// interval is one journaled busy interval.
type interval struct {
	from, to sim.Time
	pe       int32
	kind     Kind
}

// Recorder journals per-PE busy intervals and bins them into fixed-width
// time bins, summed across PEs, when a profile is requested. Idle time is
// derived at rendering time as bin capacity minus recorded busy time.
//
// Add order does not matter: the journal is sorted by timestamp before
// binning, so a Recorder fed out of chronological order renders
// byte-identically to one fed a single monotone stream. (The bin sums are
// commutative anyway; sorting makes the canonical order explicit so every
// future consumer of the journal inherits the tolerance.)
type Recorder struct {
	pes      int
	binWidth sim.Time
	iv       []interval
	settled  bool
	app      []sim.Time
	ovh      []sim.Time
	maxT     sim.Time

	totalApp sim.Time
	totalOvh sim.Time
}

// NewRecorder creates a recorder for a machine of pes processors with the
// given profile bin width.
func NewRecorder(pes int, binWidth sim.Time) *Recorder {
	if binWidth <= 0 {
		panic("trace: non-positive bin width")
	}
	return &Recorder{pes: pes, binWidth: binWidth}
}

// BinWidth reports the configured bin width.
func (r *Recorder) BinWidth() sim.Time { return r.binWidth }

// Add journals [from, to) on pe as the given kind.
func (r *Recorder) Add(pe int, kind Kind, from, to sim.Time) {
	if to <= from {
		return
	}
	if to > r.maxT {
		r.maxT = to
	}
	switch kind {
	case KindApp:
		r.totalApp += to - from
	case KindOverhead:
		r.totalOvh += to - from
	}
	r.iv = append(r.iv, interval{from: from, to: to, pe: int32(pe), kind: kind})
	r.settled = false
}

// settle sorts the journal into canonical (timestamp, pe, kind) order and
// rebuilds the bins from it.
func (r *Recorder) settle() {
	if r.settled {
		return
	}
	sort.Slice(r.iv, func(i, j int) bool {
		a, b := r.iv[i], r.iv[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.pe != b.pe {
			return a.pe < b.pe
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.to < b.to
	})
	r.app = r.app[:0]
	r.ovh = r.ovh[:0]
	for _, iv := range r.iv {
		from, to := iv.from, iv.to
		for from < to {
			bin := int(from / r.binWidth)
			binEnd := sim.Time(bin+1) * r.binWidth
			seg := to
			if binEnd < seg {
				seg = binEnd
			}
			r.grow(bin)
			switch iv.kind {
			case KindApp:
				r.app[bin] += seg - from
			case KindOverhead:
				r.ovh[bin] += seg - from
			}
			from = seg
		}
	}
	r.settled = true
}

func (r *Recorder) grow(bin int) {
	for len(r.app) <= bin {
		r.app = append(r.app, 0)
		r.ovh = append(r.ovh, 0)
	}
}

// Totals reports cumulative application and overhead time across all PEs.
func (r *Recorder) Totals() (app, ovh sim.Time) { return r.totalApp, r.totalOvh }

// Bin is one profile bin: fractions of aggregate PE time in [0, 1].
type Bin struct {
	Start    sim.Time
	App      float64
	Overhead float64
	Idle     float64
}

// Profile returns per-bin utilization fractions up to the last recorded
// instant.
func (r *Recorder) Profile() []Bin {
	r.settle()
	n := len(r.app)
	out := make([]Bin, n)
	capacity := float64(r.binWidth) * float64(r.pes)
	for i := 0; i < n; i++ {
		a := float64(r.app[i]) / capacity
		o := float64(r.ovh[i]) / capacity
		idle := 1 - a - o
		if idle < 0 {
			idle = 0
		}
		out[i] = Bin{Start: sim.Time(i) * r.binWidth, App: a, Overhead: o, Idle: idle}
	}
	return out
}

// RenderCompact is Render with adjacent bins merged so at most maxRows
// rows are emitted (long runs recorded with fine bins stay readable).
func (r *Recorder) RenderCompact(width, maxRows int) string {
	r.settle()
	if maxRows <= 0 || len(r.app) <= maxRows {
		return r.Render(width)
	}
	factor := (len(r.app) + maxRows - 1) / maxRows
	merged := &Recorder{pes: r.pes, binWidth: r.binWidth * sim.Time(factor), maxT: r.maxT,
		totalApp: r.totalApp, totalOvh: r.totalOvh, settled: true}
	for i, v := range r.app {
		merged.grow(i / factor)
		merged.app[i/factor] += v
		merged.ovh[i/factor] += r.ovh[i]
	}
	return merged.Render(width)
}

// Render draws an ASCII time profile: one row per bin with a utilization
// bar ('#' = useful, 'x' = overhead, '.' = idle), the textual counterpart
// of the paper's Figure 12 stacked-area charts.
func (r *Recorder) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time-bin(%v) utilization (#=useful x=overhead .=idle)\n", r.binWidth)
	for _, bin := range r.Profile() {
		a := int(bin.App*float64(width) + 0.5)
		o := int(bin.Overhead*float64(width) + 0.5)
		if a > width {
			a = width
		}
		if a+o > width {
			o = width - a
		}
		fmt.Fprintf(&b, "%10v |%s%s%s| %5.1f%% useful %5.1f%% ovh\n",
			bin.Start,
			strings.Repeat("#", a),
			strings.Repeat("x", o),
			strings.Repeat(".", width-a-o),
			bin.App*100, bin.Overhead*100)
	}
	return b.String()
}
