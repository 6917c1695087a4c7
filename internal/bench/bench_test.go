package bench

import (
	"testing"

	"charmgo"
	"charmgo/internal/gemini"
	"charmgo/internal/sim"
)

func TestPureUGNIOneWayMonotone(t *testing.T) {
	prev := sim.Time(0)
	for _, size := range []int{8, 256, 4096, 64 << 10, 1 << 20} {
		l := PureUGNIOneWay(size)
		if l <= 0 {
			t.Fatalf("size %d: latency %v", size, l)
		}
		if l < prev {
			t.Fatalf("latency decreased at size %d: %v < %v", size, l, prev)
		}
		prev = l
	}
}

func TestLatencyOrderingSmallMessages(t *testing.T) {
	// Figure 1 ordering at small sizes: uGNI < MPI < charm/mpi.
	size := 64
	u := PureUGNIOneWay(size)
	m := PureMPIOneWay(size, true, false)
	cm := CharmPingPong{Layer: charmgo.LayerMPI, Size: size}.OneWay()
	if !(u < m && m < cm) {
		t.Fatalf("ordering broken: uGNI=%v MPI=%v charm/mpi=%v", u, m, cm)
	}
}

func TestCharmUGNIBeatsCharmMPIHeadline(t *testing.T) {
	// Figure 9a headline: up to ~50% better latency.
	for _, size := range []int{8, 1024, 16 << 10, 256 << 10} {
		u := CharmPingPong{Layer: charmgo.LayerUGNI, Size: size}.OneWay()
		m := CharmPingPong{Layer: charmgo.LayerMPI, Size: size}.OneWay()
		if u >= m {
			t.Fatalf("size %d: charm/ugni %v not better than charm/mpi %v", size, u, m)
		}
	}
}

func TestMPISameBufferBeatsDifferentForLarge(t *testing.T) {
	same := PureMPIOneWay(256<<10, true, false)
	diff := PureMPIOneWay(256<<10, false, false)
	if same >= diff {
		t.Fatalf("same-buffer %v not faster than different-buffer %v", same, diff)
	}
}

func TestBandwidthConvergesAtLargeSizes(t *testing.T) {
	// Figure 9b: the gap closes as sizes grow; at 4MB both near wire speed.
	u := Bandwidth(charmgo.LayerUGNI, 4<<20)
	m := Bandwidth(charmgo.LayerMPI, 4<<20)
	wire := gemini.DefaultParams().BTEBW * 1000 // MB/s
	if u < wire*0.5 || m < wire*0.3 {
		t.Fatalf("4MB bandwidth too low: ugni=%.0f mpi=%.0f MB/s (wire %.0f)", u, m, wire)
	}
	ratio := u / m
	if ratio > 2.0 {
		t.Fatalf("4MB bandwidth gap %.2fx, paper shows convergence", ratio)
	}
	// And uGNI leads at mid sizes.
	if Bandwidth(charmgo.LayerUGNI, 64<<10) <= Bandwidth(charmgo.LayerMPI, 64<<10) {
		t.Fatal("charm/ugni does not lead at 64KB")
	}
}

func TestKNeighborUGNIAdvantage(t *testing.T) {
	// Figure 10: roughly 2x at 1MB thanks to overlap (blocking MPI_Recv
	// stalls the MPI progress engine).
	u := KNeighbor(charmgo.LayerUGNI, 3, 1, 1<<20)
	m := KNeighbor(charmgo.LayerMPI, 3, 1, 1<<20)
	if u >= m {
		t.Fatalf("kNeighbor 1MB: ugni %v not faster than mpi %v", u, m)
	}
	ratio := float64(m) / float64(u)
	if ratio < 1.3 {
		t.Fatalf("kNeighbor 1MB advantage only %.2fx, paper shows ~2x", ratio)
	}
}

func TestOneToAllSmallMessageGap(t *testing.T) {
	// Figure 9c: "for small messages, uGNI-based CHARM++ outperforms
	// MPI-based CHARM++ by a large margin".
	u := OneToAll(charmgo.LayerUGNI, 8, 64)
	m := OneToAll(charmgo.LayerMPI, 8, 64)
	if u >= m {
		t.Fatalf("one-to-all 64B: ugni %v not faster than mpi %v", u, m)
	}
}

func TestFig4Shapes(t *testing.T) {
	// BTE Get worst at small; FMA large worst at big (paper Figure 4).
	smallFMA := FigureFourPoint(8, gemini.UnitFMA, false)
	smallBTEGet := FigureFourPoint(8, gemini.UnitBTE, true)
	if smallFMA >= smallBTEGet {
		t.Fatal("8B: FMA Put should beat BTE Get")
	}
	bigFMA := FigureFourPoint(4<<20, gemini.UnitFMA, false)
	bigBTE := FigureFourPoint(4<<20, gemini.UnitBTE, false)
	if bigBTE >= bigFMA {
		t.Fatal("4MB: BTE should beat FMA")
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is not short")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(Options{Quick: true, Seed: 1})
			if len(tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			for _, tab := range tables {
				out := tab.String()
				if len(out) == 0 || len(tab.Rows) == 0 {
					t.Fatalf("empty table %q", tab.Title)
				}
			}
		})
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("fig9a"); !ok {
		t.Fatal("fig9a not found")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("bogus experiment found")
	}
}

func TestSizesPow2(t *testing.T) {
	got := sizesPow2(32, 256)
	want := []int{32, 64, 128, 256}
	if len(got) != len(want) {
		t.Fatalf("sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", got, want)
		}
	}
	// Quick mode halves interior points but keeps endpoints.
	o := Options{Quick: true}
	qs := o.sizes(8, 4<<20)
	if qs[0] != 8 || qs[len(qs)-1] != 4<<20 {
		t.Fatalf("quick sizes lost endpoints: %v", qs)
	}
	full := o.sizes(32, 256)
	if len(full) != 4 {
		t.Fatalf("short ranges should not be thinned: %v", full)
	}
}
