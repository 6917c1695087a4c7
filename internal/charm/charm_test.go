package charm_test

import (
	"testing"

	"charmgo"
	"charmgo/internal/charm"
	"charmgo/internal/converse"
	"charmgo/internal/sim"
)

func newRT(nodes, cores int, layer charmgo.LayerKind) *charm.Runtime {
	m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: nodes, CoresPerNode: cores, Layer: layer})
	return charm.NewRuntime(m)
}

type counter struct{ hits int }

func TestEntryInvocationRunsOnHomePE(t *testing.T) {
	rt := newRT(2, 4, charmgo.LayerUGNI)
	arr := rt.NewArray(8, func(idx int) any { return &counter{} }, nil)
	var peSeen []int
	hit := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		elem.(*counter).hits++
		peSeen = append(peSeen, ctx.PE())
		if arg != "ping" {
			t.Errorf("arg = %v", arg)
		}
	})
	rt.Start(func(ctx *converse.Ctx) {
		for i := 0; i < 8; i++ {
			arr.Send(ctx, i, hit, "ping", 128)
		}
	})
	for i := 0; i < 8; i++ {
		if arr.Elem(i).(*counter).hits != 1 {
			t.Fatalf("element %d hit %d times", i, arr.Elem(i).(*counter).hits)
		}
	}
	for i, pe := range peSeen {
		_ = i
		if pe < 0 || pe >= rt.M.NumPEs() {
			t.Fatalf("entry ran on bad PE %d", pe)
		}
	}
}

func TestBlockAndRoundRobinMaps(t *testing.T) {
	if charm.BlockMap(0, 8, 4) != 0 || charm.BlockMap(7, 8, 4) != 3 {
		t.Fatal("BlockMap wrong")
	}
	if charm.RoundRobinMap(5, 8, 4) != 1 {
		t.Fatal("RoundRobinMap wrong")
	}
	// BlockMap must never exceed the PE range even with awkward ratios.
	for n := 1; n < 30; n++ {
		for idx := 0; idx < n; idx++ {
			pe := charm.BlockMap(idx, n, 7)
			if pe < 0 || pe >= 7 {
				t.Fatalf("BlockMap(%d, %d, 7) = %d", idx, n, pe)
			}
		}
	}
}

func TestBroadcastEntry(t *testing.T) {
	rt := newRT(1, 4, charmgo.LayerUGNI)
	arr := rt.NewArray(10, func(idx int) any { return &counter{} }, charm.RoundRobinMap)
	hit := arr.Entry(func(ctx *converse.Ctx, elem, arg any) { elem.(*counter).hits++ })
	rt.Start(func(ctx *converse.Ctx) {
		arr.BroadcastEntry(ctx, hit, nil, 64)
	})
	for i := 0; i < 10; i++ {
		if arr.Elem(i).(*counter).hits != 1 {
			t.Fatalf("element %d hit %d times after broadcast", i, arr.Elem(i).(*counter).hits)
		}
	}
}

func TestReductionSum(t *testing.T) {
	for _, layer := range []charmgo.LayerKind{charmgo.LayerUGNI, charmgo.LayerMPI} {
		rt := newRT(2, 3, layer)
		arr := rt.NewArray(20, func(idx int) any { return idx }, charm.RoundRobinMap)
		var result float64
		done := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
			result = arg.(float64)
		})
		var contribute int
		contribute = arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
			arr.Contribute(ctx, 1, float64(elem.(int)), charm.OpSum,
				charm.Callback{Array: arr, Idx: 0, Entry: done})
		})
		rt.Start(func(ctx *converse.Ctx) {
			arr.BroadcastEntry(ctx, contribute, nil, 64)
		})
		want := float64(19 * 20 / 2)
		if result != want {
			t.Fatalf("layer %s: reduction sum = %v, want %v", layer, result, want)
		}
	}
}

func TestReductionMaxMin(t *testing.T) {
	rt := newRT(1, 4, charmgo.LayerUGNI)
	arr := rt.NewArray(9, func(idx int) any { return idx }, charm.RoundRobinMap)
	var maxV, minV float64
	gotMax := arr.Entry(func(ctx *converse.Ctx, elem, arg any) { maxV = arg.(float64) })
	gotMin := arr.Entry(func(ctx *converse.Ctx, elem, arg any) { minV = arg.(float64) })
	var contribute int
	contribute = arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		v := float64(elem.(int))
		arr.Contribute(ctx, 10, v, charm.OpMax, charm.Callback{Array: arr, Idx: 0, Entry: gotMax})
		arr.Contribute(ctx, 20, v, charm.OpMin, charm.Callback{Array: arr, Idx: 0, Entry: gotMin})
	})
	rt.Start(func(ctx *converse.Ctx) { arr.BroadcastEntry(ctx, contribute, nil, 64) })
	if maxV != 8 || minV != 0 {
		t.Fatalf("max=%v min=%v, want 8, 0", maxV, minV)
	}
}

func TestSequentialReductionRounds(t *testing.T) {
	rt := newRT(1, 2, charmgo.LayerUGNI)
	arr := rt.NewArray(6, func(idx int) any { return idx }, charm.RoundRobinMap)
	var results []float64
	var contribute int
	done := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		results = append(results, arg.(float64))
		if len(results) < 3 {
			arr.BroadcastEntry(ctx, contribute, len(results), 64)
		}
	})
	contribute = arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		round := 0
		if arg != nil {
			round = arg.(int)
		}
		arr.Contribute(ctx, round, 1, charm.OpSum, charm.Callback{Array: arr, Idx: 0, Entry: done})
	})
	rt.Start(func(ctx *converse.Ctx) { arr.BroadcastEntry(ctx, contribute, nil, 64) })
	if len(results) != 3 {
		t.Fatalf("%d rounds completed, want 3", len(results))
	}
	for _, r := range results {
		if r != 6 {
			t.Fatalf("round result %v, want 6", r)
		}
	}
}

func TestLoadMeasurement(t *testing.T) {
	rt := newRT(1, 2, charmgo.LayerUGNI)
	arr := rt.NewArray(2, func(idx int) any { return idx }, charm.RoundRobinMap)
	work := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		ctx.Compute(sim.Time(elem.(int)+1) * sim.Millisecond)
	})
	rt.Start(func(ctx *converse.Ctx) {
		arr.Send(ctx, 0, work, nil, 64)
		arr.Send(ctx, 1, work, nil, 64)
	})
	if arr.Load(0) != sim.Millisecond || arr.Load(1) != 2*sim.Millisecond {
		t.Fatalf("loads = %v, %v", arr.Load(0), arr.Load(1))
	}
}

func TestGreedyRebalanceReducesImbalance(t *testing.T) {
	rt := newRT(1, 4, charmgo.LayerUGNI)
	// All 8 elements start on PE 0 with very unequal loads.
	arr := rt.NewArray(8, func(idx int) any { return idx }, func(idx, n, pes int) int { return 0 })
	work := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		ctx.Compute(sim.Time(elem.(int)+1) * sim.Millisecond)
	})
	var migrated int
	lb := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		before := arr.MaxPELoad()
		migrated = arr.GreedyRebalance(ctx, 4096)
		_ = before
	})
	rt.Start(func(ctx *converse.Ctx) {
		for i := 0; i < 8; i++ {
			arr.Send(ctx, i, work, nil, 64)
		}
		arr.Send(ctx, 0, lb, nil, 64)
	})
	if migrated == 0 {
		t.Fatal("greedy LB migrated nothing despite total imbalance")
	}
	// Count placement spread after LB.
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		seen[arr.PEOf(i)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("elements spread over %d PEs after LB, want 4", len(seen))
	}
}

func TestMigrationForwardsInFlightMessages(t *testing.T) {
	rt := newRT(1, 2, charmgo.LayerUGNI)
	arr := rt.NewArray(1, func(idx int) any { return &counter{} }, nil)
	hit := arr.Entry(func(ctx *converse.Ctx, elem, arg any) { elem.(*counter).hits++ })
	move := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		arr.Migrate(ctx, 0, 1, 1024)
	})
	rt.Start(func(ctx *converse.Ctx) {
		arr.Send(ctx, 0, move, nil, 64)
		arr.Send(ctx, 0, hit, nil, 64) // may land after migration
		arr.Send(ctx, 0, hit, nil, 64)
	})
	if got := arr.Elem(0).(*counter).hits; got != 2 {
		t.Fatalf("element received %d hits, want 2 (forwarding lost messages?)", got)
	}
	if arr.PEOf(0) != 1 {
		t.Fatalf("element on PE %d after migrate, want 1", arr.PEOf(0))
	}
}

func TestArrayPanicsOnBadSize(t *testing.T) {
	rt := newRT(1, 1, charmgo.LayerUGNI)
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray(0) did not panic")
		}
	}()
	rt.NewArray(0, func(int) any { return nil }, nil)
}

func TestArraySendPrioOrdersExecution(t *testing.T) {
	rt := newRT(1, 2, charmgo.LayerUGNI)
	arr := rt.NewArray(2, func(idx int) any { return idx }, charm.RoundRobinMap)
	var order []string
	tag := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		order = append(order, arg.(string))
	})
	busy := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		ctx.Compute(50 * sim.Microsecond)
	})
	rt.Start(func(ctx *converse.Ctx) {
		arr.Send(ctx, 1, busy, nil, 8) // occupy PE 1 so the queue builds
		arr.SendPrio(ctx, 1, tag, "later", 8, 5)
		arr.SendPrio(ctx, 1, tag, "first", 8, -5)
	})
	if len(order) != 2 || order[0] != "first" || order[1] != "later" {
		t.Fatalf("priority order = %v", order)
	}
}

func TestSectionMulticastReachesExactlyMembers(t *testing.T) {
	rt := newRT(2, 4, charmgo.LayerUGNI)
	arr := rt.NewArray(12, func(idx int) any { return &counter{} }, charm.RoundRobinMap)
	hit := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		elem.(*counter).hits++
		if arg != "mc" {
			t.Errorf("arg = %v", arg)
		}
	})
	members := []int{1, 3, 5, 7, 9, 11, 3} // duplicate on purpose
	sec := arr.NewSection(members)
	if sec.Members() != 6 {
		t.Fatalf("Members = %d, want 6 (dedup)", sec.Members())
	}
	rt.Start(func(ctx *converse.Ctx) {
		sec.Multicast(ctx, hit, "mc", 512)
	})
	for i := 0; i < 12; i++ {
		want := 0
		if i%2 == 1 {
			want = 1
		}
		if got := arr.Elem(i).(*counter).hits; got != want {
			t.Fatalf("element %d hit %d times, want %d", i, got, want)
		}
	}
}

func TestSectionUsesFewerMessagesThanBroadcastEntry(t *testing.T) {
	// k elements on p PEs: multicast sends O(p) messages, per-element
	// sends O(k).
	count := func(useSection bool) uint64 {
		rt := newRT(1, 4, charmgo.LayerUGNI)
		arr := rt.NewArray(32, func(idx int) any { return idx }, charm.RoundRobinMap)
		hit := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {})
		var sec *charm.Section
		if useSection {
			all := make([]int, 32)
			for i := range all {
				all[i] = i
			}
			sec = arr.NewSection(all)
		}
		rt.Start(func(ctx *converse.Ctx) {
			if useSection {
				sec.Multicast(ctx, hit, nil, 256)
			} else {
				arr.BroadcastEntry(ctx, hit, nil, 256)
			}
		})
		return rt.M.TotalProcessed()
	}
	persection, perelem := count(true), count(false)
	if persection >= perelem {
		t.Fatalf("section processed %d messages, per-element %d — no saving", persection, perelem)
	}
}

func TestSectionSinglePE(t *testing.T) {
	rt := newRT(1, 1, charmgo.LayerUGNI)
	arr := rt.NewArray(5, func(idx int) any { return &counter{} }, nil)
	hit := arr.Entry(func(ctx *converse.Ctx, elem, arg any) { elem.(*counter).hits++ })
	sec := arr.NewSection([]int{0, 2, 4})
	if sec.PEs() != 1 {
		t.Fatalf("PEs = %d", sec.PEs())
	}
	rt.Start(func(ctx *converse.Ctx) { sec.Multicast(ctx, hit, nil, 64) })
	if arr.Elem(0).(*counter).hits != 1 || arr.Elem(2).(*counter).hits != 1 || arr.Elem(4).(*counter).hits != 1 {
		t.Fatal("section members missed")
	}
	if arr.Elem(1).(*counter).hits != 0 {
		t.Fatal("non-member hit")
	}
}

func TestSectionPanicsOnEmptyOrBadIndex(t *testing.T) {
	rt := newRT(1, 1, charmgo.LayerUGNI)
	arr := rt.NewArray(3, func(idx int) any { return idx }, nil)
	for name, elems := range map[string][]int{"empty": {}, "oob": {5}} {
		elems := elems
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			arr.NewSection(elems)
		})
	}
}

// ckptCounter is a checkpointable element.
type ckptCounter struct{ v int }

func TestCheckpointRestartMatchesUninterruptedRun(t *testing.T) {
	// Drive an array through 10 increment rounds. Run A checkpoints after
	// round 5; run B restores from the snapshot and runs rounds 6-10. The
	// final element states must match an uninterrupted 10-round run.
	const n, rounds, half = 12, 10, 5

	build := func() (*charm.Runtime, *charm.Array, int) {
		rt := newRT(2, 3, charmgo.LayerUGNI)
		arr := rt.NewArray(n, func(idx int) any { return &ckptCounter{} }, charm.RoundRobinMap)
		inc := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
			elem.(*ckptCounter).v += arg.(int)
		})
		return rt, arr, inc
	}
	sendRounds := func(ctx *converse.Ctx, arr *charm.Array, inc, from, to int) {
		for r := from; r < to; r++ {
			for i := 0; i < n; i++ {
				arr.Send(ctx, i, inc, r+1, 64)
			}
		}
	}

	// Uninterrupted reference.
	rtRef, arrRef, incRef := build()
	rtRef.Start(func(ctx *converse.Ctx) { sendRounds(ctx, arrRef, incRef, 0, rounds) })

	// Run A: first half, then checkpoint in a quiescent trailing phase.
	rtA, arrA, incA := build()
	var cp *charm.Checkpoint
	ck := arrA.Entry(func(ctx *converse.Ctx, elem, arg any) {
		cp = rtA.TakeCheckpoint(ctx, func(e any) any {
			c := *e.(*ckptCounter) // by-value copy
			return &c
		}, 1024)
	})
	rtA.Start(func(ctx *converse.Ctx) {
		sendRounds(ctx, arrA, incA, 0, half)
	})
	// Quiescent now: take the checkpoint in a trailing phase.
	rtA.Resume(func(ctx *converse.Ctx) {
		arrA.Send(ctx, 0, ck, nil, 64)
	})
	if cp == nil {
		t.Fatal("checkpoint never taken")
	}

	// Run B: fresh runtime, restore, run the second half.
	rtB, arrB, incB := build()
	if err := rtB.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	rtB.Start(func(ctx *converse.Ctx) { sendRounds(ctx, arrB, incB, half, rounds) })

	for i := 0; i < n; i++ {
		want := arrRef.Elem(i).(*ckptCounter).v
		got := arrB.Elem(i).(*ckptCounter).v
		if got != want {
			t.Fatalf("element %d = %d after restart, want %d", i, got, want)
		}
	}
}

func TestCheckpointIsByValue(t *testing.T) {
	rt := newRT(1, 2, charmgo.LayerUGNI)
	arr := rt.NewArray(2, func(idx int) any { return &ckptCounter{v: idx} }, nil)
	var cp *charm.Checkpoint
	ck := arr.Entry(func(ctx *converse.Ctx, elem, arg any) {
		cp = rt.TakeCheckpoint(ctx, func(e any) any {
			c := *e.(*ckptCounter)
			return &c
		}, 128)
	})
	bump := arr.Entry(func(ctx *converse.Ctx, elem, arg any) { elem.(*ckptCounter).v += 100 })
	rt.Start(func(ctx *converse.Ctx) {
		arr.Send(ctx, 0, ck, nil, 64)
		arr.Send(ctx, 0, bump, nil, 64) // mutate after snapshot
		arr.Send(ctx, 1, bump, nil, 64)
	})
	rt2 := newRT(1, 2, charmgo.LayerUGNI)
	arr2 := rt2.NewArray(2, func(idx int) any { return &ckptCounter{} }, nil)
	if err := rt2.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if arr2.Elem(0).(*ckptCounter).v != 0 || arr2.Elem(1).(*ckptCounter).v != 1 {
		t.Fatalf("snapshot corrupted by post-checkpoint mutation: %v %v",
			arr2.Elem(0), arr2.Elem(1))
	}
}

func TestRestoreOnSmallerMachineFoldsPlacement(t *testing.T) {
	rtBig := newRT(2, 4, charmgo.LayerUGNI)
	arrBig := rtBig.NewArray(8, func(idx int) any { return &ckptCounter{v: idx} }, charm.RoundRobinMap)
	var cp *charm.Checkpoint
	ck := arrBig.Entry(func(ctx *converse.Ctx, elem, arg any) {
		cp = rtBig.TakeCheckpoint(ctx, func(e any) any { c := *e.(*ckptCounter); return &c }, 64)
	})
	rtBig.Start(func(ctx *converse.Ctx) { arrBig.Send(ctx, 0, ck, nil, 64) })

	rtSmall := newRT(1, 2, charmgo.LayerUGNI)
	arrSmall := rtSmall.NewArray(8, func(idx int) any { return &ckptCounter{} }, charm.RoundRobinMap)
	if err := rtSmall.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if pe := arrSmall.PEOf(i); pe < 0 || pe >= rtSmall.M.NumPEs() {
			t.Fatalf("element %d restored onto PE %d of a 2-PE machine", i, pe)
		}
		if arrSmall.Elem(i).(*ckptCounter).v != i {
			t.Fatalf("element %d state lost in restart", i)
		}
	}
}

func TestRestoreRejectsMismatchedArrays(t *testing.T) {
	rtA := newRT(1, 1, charmgo.LayerUGNI)
	arrA := rtA.NewArray(4, func(idx int) any { return &ckptCounter{} }, nil)
	var cp *charm.Checkpoint
	ck := arrA.Entry(func(ctx *converse.Ctx, elem, arg any) {
		cp = rtA.TakeCheckpoint(ctx, func(e any) any { c := *e.(*ckptCounter); return &c }, 64)
	})
	rtA.Start(func(ctx *converse.Ctx) { arrA.Send(ctx, 0, ck, nil, 64) })

	rtB := newRT(1, 1, charmgo.LayerUGNI)
	rtB.NewArray(5, func(idx int) any { return &ckptCounter{} }, nil) // wrong size
	if err := rtB.RestoreCheckpoint(cp); err == nil {
		t.Fatal("restore with mismatched array size succeeded")
	}
	rtC := newRT(1, 1, charmgo.LayerUGNI)
	if err := rtC.RestoreCheckpoint(cp); err == nil {
		t.Fatal("restore with missing arrays succeeded")
	}
}

// TestEntrySendAllocFree pins the entry-method send path allocation-free
// in steady state: an Array send to an element on the other node, and
// that element's reply, carry their element and entry in the envelope's
// entry header, so a round trip through the scheduler, the machine layer
// and both handlers allocates nothing.
func TestEntrySendAllocFree(t *testing.T) {
	for _, layer := range []charmgo.LayerKind{charmgo.LayerUGNI, charmgo.LayerMPI} {
		rt := newRT(2, 1, layer)
		arr := rt.NewArray(2, func(idx int) any { return &counter{} }, nil)
		if arr.PEOf(0) == arr.PEOf(1) {
			t.Fatal("both elements on one PE: the round trip would not cross the network")
		}
		arg := &counter{}
		var pong int
		ping := arr.Entry(func(ctx *converse.Ctx, elem, a any) {
			elem.(*counter).hits++
			arr.Send(ctx, 0, pong, a, 64)
		})
		pong = arr.Entry(func(ctx *converse.Ctx, elem, a any) {
			elem.(*counter).hits++
			a.(*counter).hits++
		})
		start := func(ctx *converse.Ctx) { arr.SendPrio(ctx, 1, ping, arg, 64, 1) }
		rt.Start(start)
		for i := 0; i < 4; i++ { // grow the queues to their steady-state capacity
			rt.Resume(start)
		}
		allocs := testing.AllocsPerRun(100, func() { rt.Resume(start) })
		if allocs != 0 {
			t.Errorf("%v: %.1f allocations per entry round trip, want 0", layer, allocs)
		}
		if want := 1 + 4 + 101; arg.hits != want {
			t.Fatalf("%v: %d round trips completed, want %d", layer, arg.hits, want)
		}
	}
}
