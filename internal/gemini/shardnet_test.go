package gemini

import (
	"testing"

	"charmgo/internal/sim"
	"charmgo/internal/topology"
)

// This file holds the network-level halves of the shard-partition
// contract (DESIGN.md §2.4): the route cache's lazy multi-hop fills are
// race-free from every shard under the parallel workers, per-link
// occupancy timelines under parallel windows are identical to the flat engine's
// for link-disciplined traffic (50 random seeds, faulted runs included),
// and arbitrary cross-traffic still conserves per-link occupancy totals
// and replays deterministically.

// netMode names one (engine, run protocol) combination under test.
type netMode int

const (
	netFlat     netMode = iota // plain sim.Engine
	netLockstep                // sharded kernel, lockstep merge
	netParallel                // sharded kernel, worker-per-shard windows
)

var netModeName = [...]string{"flat", "lockstep", "parallel"}

// xferOp is one transfer (or, in the flap list, one link outage) for the
// property workloads.
type xferOp struct {
	at       sim.Time
	src, dst int
	size     int
	u        Unit
}

// xferRec receives one transfer's arrival; records are indexed like their
// ops, so every completion writes its own slot regardless of whether it
// runs inline on the emitting shard or at the window barrier.
type xferRec struct {
	at sim.Time
}

func recordArrival(arg any, arrive sim.Time) { arg.(*xferRec).at = arrive }

// launchOp books one transfer from its source node's shard.
type launchOp struct {
	net *Network
	op  *xferOp
	rec *xferRec
}

func fireLaunch(arg any) {
	// ready is the op's own event time (the global Eng.Now() is stale
	// inside a parallel window; real workloads read their Shard handle).
	l := arg.(*launchOp)
	l.net.TransferThen(l.op.src, l.op.dst, l.op.size, l.op.u, l.op.at, recordArrival, l.rec)
}

func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// runLinkWorkload executes ops (plus pre-run link flaps, injected like
// fault.Apply before the engine starts) under the given mode and returns
// every link's occupancy fingerprint plus every transfer's arrival time.
func runLinkWorkload(nodes, shards int, mode netMode, ops []xferOp, flaps []xferOp) ([]LinkOccupancy, []xferRec) {
	var eng sim.Kernel
	var se *sim.ShardedEngine
	if mode == netFlat {
		eng = sim.NewEngine()
	} else {
		topo := topology.Shape(nodes)
		part := topology.PartitionTorus(topo, nodes, shards)
		se = sim.NewParallelEngine(part.Shards, part.NodeShard(),
			DefaultParams().ShardLookahead(part.MinCrossHops()))
		eng = se
	}
	net := NewNetwork(eng, nodes, DefaultParams())
	defer net.Close()
	for _, f := range flaps {
		net.FlapLink(f.src, f.at, sim.Time(f.size))
	}
	recs := make([]xferRec, len(ops))
	launches := make([]launchOp, len(ops))
	for i := range ops {
		launches[i] = launchOp{net: net, op: &ops[i], rec: &recs[i]}
		eng.AtNodeArg(ops[i].src, ops[i].at, fireLaunch, &launches[i])
	}
	if mode == netParallel {
		se.RunParallel()
	} else {
		eng.Run()
	}
	return net.LinkOccupancies(nil), recs
}

// drawHaloWorkload derives a deterministic random nearest-neighbor mix
// from seed: every node sends to all six torus neighbors over several
// rounds with jittered launch times, random sizes, and a random
// FMA-or-SMSG unit; odd seeds add pre-run link outages. The traffic is
// link-disciplined — each directional link carries only its source
// router's sends to that neighbor — which is the régime the shard
// partition preserves flat-identically (see TestLinkOccupancyParity).
func drawHaloWorkload(seed uint64, nodes int, topo topology.Torus) (ops []xferOp, flaps []xferOp) {
	r := seed*0x9e3779b97f4a7c15 + 1
	next := func(n int) int {
		r = xorshift64(r)
		return int(r % uint64(n))
	}
	const rounds = 3
	for n := 0; n < nodes; n++ {
		x, y, z := topo.Coords(n)
		nbrs := [6]int{
			topo.Node(x+1, y, z), topo.Node(x-1, y, z),
			topo.Node(x, y+1, z), topo.Node(x, y-1, z),
			topo.Node(x, y, z+1), topo.Node(x, y, z-1),
		}
		for round := 0; round < rounds; round++ {
			for _, dst := range nbrs {
				u := UnitFMA
				if next(2) == 1 {
					u = UnitSMSG
				}
				ops = append(ops, xferOp{
					at:   sim.Time(round*20_000 + next(8_000)),
					src:  n,
					dst:  dst,
					size: 1 << (6 + next(7)), // 64B .. 4KB
					u:    u,
				})
			}
		}
	}
	if seed%2 == 1 {
		for i := 0; i < 4; i++ {
			flaps = append(flaps, xferOp{
				src:  next(6 * nodes), // link index
				at:   sim.Time(next(50_000)),
				size: 2_000 + next(20_000), // outage duration
			})
		}
	}
	return ops, flaps
}

// drawCrossTraffic derives an adversarial random mix from seed: ~200
// transfers between arbitrary node pairs (multi-hop routes, sizes spanning
// the FMA/BTE crossover, all four units), plus link outages on odd seeds.
func drawCrossTraffic(seed uint64, nodes int) (ops []xferOp, flaps []xferOp) {
	r := seed*0x9e3779b97f4a7c15 + 1
	next := func(n int) int {
		r = xorshift64(r)
		return int(r % uint64(n))
	}
	for i := 0; i < 200; i++ {
		src := next(nodes)
		dst := next(nodes)
		if dst == src {
			dst = (src + 1) % nodes
		}
		ops = append(ops, xferOp{
			at:   sim.Time(next(40_000)),
			src:  src,
			dst:  dst,
			size: 1 << (6 + next(10)), // 64B .. 32KB
			u:    Unit(next(4)),
		})
	}
	if seed%2 == 1 {
		for i := 0; i < 4; i++ {
			flaps = append(flaps, xferOp{
				src:  next(6 * nodes),
				at:   sim.Time(next(30_000)),
				size: 2_000 + next(20_000),
			})
		}
	}
	return ops, flaps
}

// TestLinkOccupancyParity is the per-link timeline property test: for 50
// random seeds (half of them faulted with link outages), a randomized
// link-disciplined halo workload produces bit-identical per-link
// occupancy timelines — busy total, last-free time, booking count — and
// bit-identical per-transfer arrivals under the lockstep and parallel
// kernels at shards 2 and 4, compared with the flat engine.
// Link-disciplined traffic is the régime the partition preserves exactly:
// each directional link's bookings all come from one source router, in
// that router's event order, whether they book inline or at the barrier.
func TestLinkOccupancyParity(t *testing.T) {
	const nodes = 64
	topo := topology.Shape(nodes)
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		ops, flaps := drawHaloWorkload(seed, nodes, topo)
		baseOcc, baseRecs := runLinkWorkload(nodes, 1, netFlat, ops, flaps)
		for _, shards := range []int{2, 4} {
			for _, mode := range []netMode{netLockstep, netParallel} {
				occ, recs := runLinkWorkload(nodes, shards, mode, ops, flaps)
				for i := range baseOcc {
					if occ[i] != baseOcc[i] {
						t.Fatalf("seed %d shards=%d %s: link %d occupancy %+v, flat %+v",
							seed, shards, netModeName[mode], i, occ[i], baseOcc[i])
					}
				}
				for i := range baseRecs {
					if recs[i] != baseRecs[i] {
						t.Fatalf("seed %d shards=%d %s: transfer %d arrived %v, flat %v (op %+v)",
							seed, shards, netModeName[mode], i, recs[i].at, baseRecs[i].at, ops[i])
					}
				}
			}
		}
	}
}

// TestLinkTrafficConservation covers the traffic the partition does NOT
// promise to replay placement-identically: arbitrary cross-shard
// multi-hop contention, where simultaneous contenders on a shared link
// may swap slots between the inline and barrier-deferred booking paths.
// Three guarantees must still hold for every seed: lockstep mode remains
// fully flat-identical (occupancies and arrivals), parallel windows
// conserve every link's occupancy totals (busy time and booking count —
// the same messages crossed the same wires), and parallel windows replay
// bit-identically run over run.
func TestLinkTrafficConservation(t *testing.T) {
	const nodes = 64
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		ops, flaps := drawCrossTraffic(seed, nodes)
		baseOcc, baseRecs := runLinkWorkload(nodes, 1, netFlat, ops, flaps)
		for _, shards := range []int{2, 4} {
			for _, mode := range []netMode{netLockstep, netParallel} {
				occ, recs := runLinkWorkload(nodes, shards, mode, ops, flaps)
				if mode == netLockstep {
					for i := range baseOcc {
						if occ[i] != baseOcc[i] {
							t.Fatalf("seed %d shards=%d lockstep: link %d occupancy %+v, flat %+v",
								seed, shards, i, occ[i], baseOcc[i])
						}
					}
					for i := range baseRecs {
						if recs[i] != baseRecs[i] {
							t.Fatalf("seed %d shards=%d lockstep: transfer %d arrived %v, flat %v",
								seed, shards, i, recs[i].at, baseRecs[i].at)
						}
					}
					continue
				}
				for i := range baseOcc {
					if occ[i].Busy != baseOcc[i].Busy || occ[i].Acquires != baseOcc[i].Acquires {
						t.Fatalf("seed %d shards=%d %s: link %d occupancy not conserved: %+v, flat %+v",
							seed, shards, netModeName[mode], i, occ[i], baseOcc[i])
					}
				}
				occ2, recs2 := runLinkWorkload(nodes, shards, mode, ops, flaps)
				for i := range recs {
					if recs[i] != recs2[i] {
						t.Fatalf("seed %d shards=%d %s: nondeterministic arrival for transfer %d: %v vs %v",
							seed, shards, netModeName[mode], i, recs[i].at, recs2[i].at)
					}
				}
				for i := range occ {
					if occ[i] != occ2[i] {
						t.Fatalf("seed %d shards=%d %s: nondeterministic occupancy for link %d",
							seed, shards, netModeName[mode], i)
					}
				}
			}
		}
	}
}

// TestRouteFillRace hammers the multi-hop route cache's lazy first-touch
// fills from every shard at once: every node books distance-2 transfers in
// every torus dimension at the same instant under the parallel workers, so
// each shard performs inline fills of its own rows while cross-shard pairs
// fill at the barrier. Run under -race (the shard matrix) this proves the
// single-writer-per-row claim that replaced the route cache's
// //simlint:shared annotation; the conservation and double-run checks
// prove the fills are also deterministic.
func TestRouteFillRace(t *testing.T) {
	const nodes = 216 // 6³: distance-2 pairs in every dimension, no wrap aliasing
	topo := topology.Shape(nodes)
	var ops []xferOp
	for n := 0; n < nodes; n++ {
		x, y, z := topo.Coords(n)
		for _, dst := range [3]int{topo.Node(x+2, y, z), topo.Node(x, y+2, z), topo.Node(x, y, z+2)} {
			ops = append(ops, xferOp{at: 0, src: n, dst: dst, size: 1024, u: UnitFMA})
		}
	}
	baseOcc, _ := runLinkWorkload(nodes, 1, netFlat, ops, nil)
	for _, shards := range []int{2, 4} {
		occ, recs := runLinkWorkload(nodes, shards, netParallel, ops, nil)
		for i := range baseOcc {
			if occ[i].Busy != baseOcc[i].Busy || occ[i].Acquires != baseOcc[i].Acquires {
				t.Fatalf("shards=%d: link %d occupancy not conserved: %+v, flat %+v",
					shards, i, occ[i], baseOcc[i])
			}
		}
		occ2, recs2 := runLinkWorkload(nodes, shards, netParallel, ops, nil)
		for i := range recs {
			if recs[i] != recs2[i] {
				t.Fatalf("shards=%d: nondeterministic arrival for transfer %d: %v vs %v (op %+v)",
					shards, i, recs[i].at, recs2[i].at, ops[i])
			}
		}
		for i := range occ {
			if occ[i] != occ2[i] {
				t.Fatalf("shards=%d: nondeterministic occupancy for link %d", shards, i)
			}
		}
	}
}
