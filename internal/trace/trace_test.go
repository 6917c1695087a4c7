package trace

import (
	"strings"
	"testing"

	"charmgo/internal/sim"
)

func TestTotalsAccumulate(t *testing.T) {
	r := NewRecorder(2, 10*sim.Microsecond)
	r.Add(0, KindApp, 0, 5*sim.Microsecond)
	r.Add(1, KindOverhead, 0, 3*sim.Microsecond)
	app, ovh := r.Totals()
	if app != 5*sim.Microsecond || ovh != 3*sim.Microsecond {
		t.Fatalf("totals = %v, %v", app, ovh)
	}
}

func TestIntervalSplitsAcrossBins(t *testing.T) {
	r := NewRecorder(1, 10*sim.Microsecond)
	// 5us..25us spans three bins: 5 in bin0, 10 in bin1, 5 in bin2.
	r.Add(0, KindApp, 5*sim.Microsecond, 25*sim.Microsecond)
	p := r.Profile()
	if len(p) != 3 {
		t.Fatalf("%d bins, want 3", len(p))
	}
	if p[0].App != 0.5 || p[1].App != 1.0 || p[2].App != 0.5 {
		t.Fatalf("bin app fractions = %v %v %v", p[0].App, p[1].App, p[2].App)
	}
}

func TestIdleDerived(t *testing.T) {
	r := NewRecorder(2, 10*sim.Microsecond)
	// One of two PEs busy for the full bin => 50% idle.
	r.Add(0, KindApp, 0, 10*sim.Microsecond)
	p := r.Profile()
	if p[0].Idle != 0.5 {
		t.Fatalf("idle = %v, want 0.5", p[0].Idle)
	}
}

func TestEmptyAndInvertedIntervalsIgnored(t *testing.T) {
	r := NewRecorder(1, sim.Microsecond)
	r.Add(0, KindApp, 10, 10)
	r.Add(0, KindApp, 20, 5)
	if app, _ := r.Totals(); app != 0 {
		t.Fatalf("degenerate intervals recorded: %v", app)
	}
}

func TestRenderContainsBars(t *testing.T) {
	r := NewRecorder(1, 10*sim.Microsecond)
	r.Add(0, KindApp, 0, 5*sim.Microsecond)
	r.Add(0, KindOverhead, 5*sim.Microsecond, 8*sim.Microsecond)
	out := r.Render(20)
	if !strings.Contains(out, "#") || !strings.Contains(out, "x") || !strings.Contains(out, ".") {
		t.Fatalf("render missing bar glyphs:\n%s", out)
	}
	if !strings.Contains(out, "50.0% useful") {
		t.Fatalf("render missing percentages:\n%s", out)
	}
}

func TestRenderHandlesOverfullBins(t *testing.T) {
	// Defensive: utilization slightly above 1 must not panic.
	r := NewRecorder(1, 10*sim.Microsecond)
	r.Add(0, KindApp, 0, 11*sim.Microsecond) // spills into bin 1
	r.Add(0, KindOverhead, 0, 10*sim.Microsecond)
	_ = r.Render(30)
}

func TestBadBinWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRecorder(_, 0) did not panic")
		}
	}()
	NewRecorder(1, 0)
}

func TestAddOrderIrrelevant(t *testing.T) {
	// The same intervals in chronological, reversed, and interleaved order
	// must render byte-identically: the journal is sorted at render.
	ivs := []struct {
		pe   int
		kind Kind
		from sim.Time
		to   sim.Time
	}{
		{0, KindApp, 0, 7 * sim.Microsecond},
		{1, KindOverhead, 2 * sim.Microsecond, 12 * sim.Microsecond},
		{0, KindOverhead, 7 * sim.Microsecond, 9 * sim.Microsecond},
		{1, KindApp, 15 * sim.Microsecond, 35 * sim.Microsecond},
		{0, KindApp, 20 * sim.Microsecond, 25 * sim.Microsecond},
	}
	fwd := NewRecorder(2, 10*sim.Microsecond)
	rev := NewRecorder(2, 10*sim.Microsecond)
	for _, iv := range ivs {
		fwd.Add(iv.pe, iv.kind, iv.from, iv.to)
	}
	for i := len(ivs) - 1; i >= 0; i-- {
		rev.Add(ivs[i].pe, ivs[i].kind, ivs[i].from, ivs[i].to)
	}
	if got, want := rev.Render(30), fwd.Render(30); got != want {
		t.Fatalf("reversed add order changed the render:\n%s\nvs\n%s", got, want)
	}
	ra, ro := rev.Totals()
	fa, fo := fwd.Totals()
	if ra != fa || ro != fo {
		t.Fatalf("totals differ: %v/%v vs %v/%v", ra, ro, fa, fo)
	}
}
