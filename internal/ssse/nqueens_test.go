package ssse_test

import (
	"strings"
	"testing"

	"charmgo"
	"charmgo/internal/machine/ugnimachine"
	"charmgo/internal/ssse"
)

func newMachine(nodes, cores int, layer charmgo.LayerKind) *charmgo.Machine {
	return charmgo.NewMachine(charmgo.MachineConfig{Nodes: nodes, CoresPerNode: cores, Layer: layer})
}

// checkCreditsDrained witnesses SMSG credit conservation on a drained
// uGNI-layer run: nothing is left in flight and every consumed credit came
// back. Other layers pass through unchecked.
func checkCreditsDrained(t *testing.T, m *charmgo.Machine) {
	t.Helper()
	l, ok := m.Layer().(*ugnimachine.Layer)
	if !ok {
		return
	}
	g := l.GNI()
	consumed, returned, inflight := g.CreditsConsumed(), g.CreditReturns(), g.CreditsInFlight()
	if inflight != 0 || consumed == 0 || consumed != returned {
		t.Fatalf("credits after drain: consumed %d, returned %d, in flight %d", consumed, returned, inflight)
	}
}

func TestSequentialSolverMatchesKnownCounts(t *testing.T) {
	for n := 1; n <= 12; n++ {
		sol, nodes := ssse.Count(n)
		if sol != ssse.Solutions[n] {
			t.Fatalf("%d-queens: solver found %d solutions, want %d", n, sol, ssse.Solutions[n])
		}
		if nodes < sol {
			t.Fatalf("%d-queens: %d nodes < %d solutions", n, nodes, sol)
		}
	}
}

func TestParallelSolveExactBothLayers(t *testing.T) {
	for _, layer := range []charmgo.LayerKind{charmgo.LayerUGNI, charmgo.LayerMPI} {
		for _, tc := range []struct{ n, threshold int }{
			{8, 3}, {10, 4}, {11, 2},
		} {
			m := newMachine(2, 4, layer)
			res := ssse.Run(m, ssse.Config{N: tc.n, Threshold: tc.threshold, Seed: 1})
			if res.Solutions != ssse.Solutions[tc.n] {
				t.Fatalf("layer %s, %d-queens/t%d: %d solutions, want %d",
					layer, tc.n, tc.threshold, res.Solutions, ssse.Solutions[tc.n])
			}
			if res.Elapsed <= 0 {
				t.Fatalf("no elapsed time recorded")
			}
			if res.Tasks == 0 {
				t.Fatal("no parallel tasks executed")
			}
			checkCreditsDrained(t, m)
		}
	}
}

func TestTaskCountMatchesPartials(t *testing.T) {
	// Tasks at the leaf level = partial placements at the threshold;
	// total tasks = sum over levels 0..threshold of partials.
	m := newMachine(1, 4, charmgo.LayerUGNI)
	res := ssse.Run(m, ssse.Config{N: 9, Threshold: 3, Seed: 2})
	var want uint64
	for d := 0; d <= 3; d++ {
		want += ssse.CountPartials(9, d)
	}
	if res.Tasks != want {
		t.Fatalf("tasks = %d, want %d", res.Tasks, want)
	}
}

func TestCountPartials(t *testing.T) {
	if got := ssse.CountPartials(8, 0); got != 1 {
		t.Fatalf("partials depth 0 = %d", got)
	}
	if got := ssse.CountPartials(8, 1); got != 8 {
		t.Fatalf("partials depth 1 = %d", got)
	}
	if got := ssse.CountPartials(8, 8); got != ssse.Solutions[8] {
		t.Fatalf("partials at full depth = %d, want %d solutions", got, ssse.Solutions[8])
	}
}

// partialsOracle counts partial placements by plain recursion over every
// row, the reference for CountPartials' popcount and mirror shortcuts.
func partialsOracle(cols, d1, d2 uint64, row, n, depth int) uint64 {
	if row == depth {
		return 1
	}
	full := uint64(1)<<uint(n) - 1
	var total uint64
	for avail := ^(cols | d1 | d2) & full; avail != 0; avail &= avail - 1 {
		bit := avail & -avail
		total += partialsOracle(cols|bit, ((d1|bit)<<1)&full, (d2|bit)>>1, row+1, n, depth)
	}
	return total
}

func TestCountPartialsMatchesRecursion(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for depth := 0; depth <= n; depth++ {
			if got, want := ssse.CountPartials(n, depth), partialsOracle(0, 0, 0, 0, n, depth); got != want {
				t.Fatalf("CountPartials(%d, %d) = %d, want %d", n, depth, got, want)
			}
		}
	}
}

func TestSyntheticModePreservesTotalScale(t *testing.T) {
	// Synthetic totals should land within a factor of ~2 of the configured
	// ratio x solutions (the skew is mean-preserving).
	m := newMachine(2, 4, charmgo.LayerUGNI)
	res := ssse.Run(m, ssse.Config{N: 12, Threshold: 4, Synthetic: true, Seed: 3})
	want := 80 * float64(ssse.Solutions[12])
	got := float64(res.Nodes)
	if got < want/2 || got > want*2 {
		t.Fatalf("synthetic nodes = %.0f, want within 2x of %.0f", got, want)
	}
	if res.Solutions != 0 {
		t.Fatal("synthetic mode reported exact solutions")
	}
}

func TestSyntheticRatioCalibration(t *testing.T) {
	// The default SyntheticRatio (80 nodes/solution, extrapolated to large
	// boards) must be consistent with the real solver's measured trend
	// (~60 at N=12, ~63 at N=13, rising with N).
	for _, n := range []int{12, 13} {
		sol, nodes := ssse.Count(n)
		ratio := float64(nodes) / float64(sol)
		if ratio < 45 || ratio > 90 {
			t.Fatalf("%d-queens nodes/solution = %.2f, outside the calibrated 45-90 band", n, ratio)
		}
	}
}

func TestMoreCoresFaster(t *testing.T) {
	small := newMachine(1, 4, charmgo.LayerUGNI)
	rSmall := ssse.Run(small, ssse.Config{N: 11, Threshold: 4, Seed: 4})
	big := newMachine(4, 8, charmgo.LayerUGNI)
	rBig := ssse.Run(big, ssse.Config{N: 11, Threshold: 4, Seed: 4})
	if rBig.Elapsed >= rSmall.Elapsed {
		t.Fatalf("32 cores (%v) not faster than 4 cores (%v)", rBig.Elapsed, rSmall.Elapsed)
	}
}

func TestUGNIFasterThanMPIOnNQueens(t *testing.T) {
	// The Section V-C headline: fine-grain task parallelism favours the
	// uGNI layer because per-message overhead is lower.
	cfg := ssse.Config{N: 11, Threshold: 5, Seed: 5}
	u := ssse.Run(newMachine(4, 8, charmgo.LayerUGNI), cfg)
	p := ssse.Run(newMachine(4, 8, charmgo.LayerMPI), cfg)
	if u.Elapsed >= p.Elapsed {
		t.Fatalf("uGNI %v not faster than MPI %v on fine-grain N-Queens", u.Elapsed, p.Elapsed)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := ssse.Config{N: 10, Threshold: 4, Seed: 7}
	a := ssse.Run(newMachine(2, 4, charmgo.LayerUGNI), cfg)
	b := ssse.Run(newMachine(2, 4, charmgo.LayerUGNI), cfg)
	if a.Elapsed != b.Elapsed || a.Tasks != b.Tasks || a.Solutions != b.Solutions {
		t.Fatalf("identical runs diverged: %+v vs %+v", a, b)
	}
}

func TestBadThresholdPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("threshold > N did not panic")
		}
	}()
	ssse.Run(newMachine(1, 1, charmgo.LayerUGNI), ssse.Config{N: 5, Threshold: 9})
}

func TestBadConfigPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ssse.Config
	}{
		{"zero board", ssse.Config{N: 0, Threshold: 1}},
		{"negative board", ssse.Config{N: -3, Threshold: 1}},
		{"board wider than the state masks", ssse.Config{N: ssse.MaxN + 1, Threshold: 4}},
		{"synthetic without a solution count", ssse.Config{N: 20, Threshold: 4, Synthetic: true}},
		{"large board turns synthetic without a solution count", ssse.Config{N: ssse.MaxN, Threshold: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "ssse: ") {
					t.Fatalf("%+v: want a config panic from ssse, got %q", tc.cfg, msg)
				}
			}()
			ssse.Run(newMachine(1, 1, charmgo.LayerUGNI), tc.cfg)
		})
	}
}

func TestChunkingReducesMessagesPreservesResult(t *testing.T) {
	cfg1 := ssse.Config{N: 10, Threshold: 4, Seed: 9, ChunkSize: 1}
	cfg8 := ssse.Config{N: 10, Threshold: 4, Seed: 9, ChunkSize: 8}
	a := ssse.Run(newMachine(2, 4, charmgo.LayerUGNI), cfg1)
	b := ssse.Run(newMachine(2, 4, charmgo.LayerUGNI), cfg8)
	if b.Solutions != a.Solutions || a.Solutions != ssse.Solutions[10] {
		t.Fatalf("chunked run wrong: %d vs %d solutions", b.Solutions, a.Solutions)
	}
	if b.Tasks >= a.Tasks {
		t.Fatalf("chunking did not reduce task messages: %d vs %d", b.Tasks, a.Tasks)
	}
	if b.Nodes != a.Nodes {
		t.Fatalf("node counts differ under chunking: %d vs %d", b.Nodes, a.Nodes)
	}
}

func TestPaperScaleMessageCounts(t *testing.T) {
	// With ChunkSize ~100 the 17-queens threshold-6 run should generate
	// message counts of the paper's order (~15K); we verify the arithmetic
	// on the partial counts without running the full simulation.
	p6 := ssse.CountPartials(17, 6)
	if p6 < 1_000_000 || p6 > 2_000_000 {
		t.Fatalf("partials(17,6) = %d, expected ~1.45M", p6)
	}
	if msgs := p6 / 100; msgs < 10_000 || msgs > 20_000 {
		t.Fatalf("chunked message estimate %d, want ~15K", msgs)
	}
}

// BenchmarkNQueensChunked times one small synthetic-cost run with bundled
// tasks; allocs/op shows whether task messages stay off the heap.
func BenchmarkNQueensChunked(b *testing.B) {
	cfg := ssse.Config{N: 12, Threshold: 5, Synthetic: true, Seed: 1, ChunkSize: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := newMachine(2, 4, charmgo.LayerUGNI)
		b.StartTimer()
		ssse.Run(m, cfg)
		b.StopTimer()
		net := m.Net()
		m.Close()
		net.Close()
		b.StartTimer()
	}
}
