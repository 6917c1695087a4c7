package topology

import "testing"

// nonCubicTori exercises shapes where X, Y, Z all differ, so any confusion
// between dimension strides in the precomputed table shows up immediately.
var nonCubicTori = []Torus{
	{X: 4, Y: 3, Z: 2},
	{X: 5, Y: 3, Z: 2},
	{X: 7, Y: 2, Z: 1},
	{X: 3, Y: 3, Z: 3},
}

func TestTableCoordsMatchesTorus(t *testing.T) {
	for _, tor := range nonCubicTori {
		tb := NewTable(tor)
		for n := 0; n < tor.Nodes(); n++ {
			wx, wy, wz := tor.Coords(n)
			gx, gy, gz := tb.Coords(n)
			if gx != wx || gy != wy || gz != wz {
				t.Fatalf("%v: Table.Coords(%d) = (%d,%d,%d), Torus.Coords = (%d,%d,%d)",
					tor, n, gx, gy, gz, wx, wy, wz)
			}
			if got := tor.Node(gx, gy, gz); got != n {
				t.Fatalf("%v: Node(Coords(%d)) = %d", tor, n, got)
			}
		}
	}
}

func TestTableHopsMatchesTorus(t *testing.T) {
	for _, tor := range nonCubicTori {
		tb := NewTable(tor)
		for a := 0; a < tor.Nodes(); a++ {
			for b := 0; b < tor.Nodes(); b++ {
				if got, want := tb.Hops(a, b), tor.Hops(a, b); got != want {
					t.Fatalf("%v: Table.Hops(%d,%d) = %d, Torus.Hops = %d", tor, a, b, got, want)
				}
			}
		}
	}
}

func TestTableLinkIDsMatchAppendPath(t *testing.T) {
	for _, tor := range nonCubicTori {
		tb := NewTable(tor)
		var links []Link
		var ids []LinkID
		for a := 0; a < tor.Nodes(); a++ {
			for b := 0; b < tor.Nodes(); b++ {
				links = tor.AppendPath(links[:0], a, b)
				ids = tb.AppendLinkIDs(ids[:0], a, b)
				if len(ids) != len(links) {
					t.Fatalf("%v: path %d->%d: %d link IDs vs %d links", tor, a, b, len(ids), len(links))
				}
				for i, l := range links {
					if int(ids[i]) != tor.LinkIndex(l) {
						t.Fatalf("%v: path %d->%d hop %d: LinkID %d, LinkIndex %d",
							tor, a, b, i, ids[i], tor.LinkIndex(l))
					}
				}
				if len(ids) != tb.Hops(a, b) {
					t.Fatalf("%v: path %d->%d has %d hops, Hops = %d", tor, a, b, len(ids), tb.Hops(a, b))
				}
			}
		}
	}
}

// FuzzTopologyTable checks Table against the Torus it precomputes on
// random shapes: Coords, Hops, and AppendLinkIDs against AppendPath plus
// LinkIndex (NeighborLink too, on one-hop pairs). The first three bytes
// pick the dimensions (1..6 each, so one byte reaches every node); each
// following pair of bytes picks a (src, dst) node pair. `go test` replays the corpus under
// testdata/fuzz/FuzzTopologyTable; `make fuzz-smoke` fuzzes it.
func FuzzTopologyTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		tor := Torus{X: 1 + int(data[0]%6), Y: 1 + int(data[1]%6), Z: 1 + int(data[2]%6)}
		tb := NewTable(tor)
		n := tor.Nodes()
		var links []Link
		var ids []LinkID
		for data = data[3:]; len(data) >= 2; data = data[2:] {
			a, b := int(data[0])%n, int(data[1])%n
			wx, wy, wz := tor.Coords(a)
			if gx, gy, gz := tb.Coords(a); gx != wx || gy != wy || gz != wz {
				t.Fatalf("%v: Table.Coords(%d) = (%d,%d,%d), Torus.Coords = (%d,%d,%d)",
					tor, a, gx, gy, gz, wx, wy, wz)
			}
			hops := tor.Hops(a, b)
			if got := tb.Hops(a, b); got != hops {
				t.Fatalf("%v: Table.Hops(%d,%d) = %d, Torus.Hops = %d", tor, a, b, got, hops)
			}
			links = tor.AppendPath(links[:0], a, b)
			ids = tb.AppendLinkIDs(ids[:0], a, b)
			if len(ids) != len(links) || len(ids) != hops {
				t.Fatalf("%v: path %d->%d: %d link IDs, %d links, %d hops", tor, a, b, len(ids), len(links), hops)
			}
			for i, l := range links {
				if int(ids[i]) != tor.LinkIndex(l) {
					t.Fatalf("%v: path %d->%d hop %d: LinkID %d, LinkIndex %d", tor, a, b, i, ids[i], tor.LinkIndex(l))
				}
			}
			if hops == 1 && tb.NeighborLink(a, b) != ids[0] {
				t.Fatalf("%v: NeighborLink(%d,%d) = %d, route link %d", tor, a, b, tb.NeighborLink(a, b), ids[0])
			}
		}
	})
}
