package sim

import (
	"slices"
	"testing"
)

// stormState drives a randomized self-perpetuating event storm over a set
// of simulated nodes: each firing records its identity, mutates shared
// state, schedules follow-ups on random nodes (including ties at the same
// instant), and occasionally cancels a pending event.
type stormState struct {
	k      Kernel
	rng    *RNG
	nodes  int
	budget int
}

func (s *stormState) fire(any) {
	if s.budget <= 0 {
		return
	}
	var batch [3]*Event
	n := s.rng.Intn(3)
	for i := 0; i < n; i++ {
		s.budget--
		node := s.rng.Intn(s.nodes)
		// Mix zero delays (ties) with spread-out ones.
		delay := Time(s.rng.Intn(5)) * 7
		batch[i] = s.k.AtNodeArg(node, s.k.Now()+delay, s.fire, s.rng.Uint64())
	}
	// Cancel only events scheduled in this callback: they are guaranteed
	// still pending (handles past firing are invalid — records recycle).
	if n > 0 && s.rng.Intn(4) == 0 {
		batch[s.rng.Intn(n)].Cancel()
	}
}

func runStorm(k Kernel, nodes int, seed uint64) {
	s := &stormState{k: k, rng: NewRNG(seed), nodes: nodes, budget: 4000}
	for n := 0; n < nodes; n++ {
		s.k.AtNodeArg(n, Time(n%13), s.fire, uint64(n))
	}
	k.Run()
}

func stripedShards(nodes, shards int) []int32 {
	m := make([]int32, nodes)
	for n := range m {
		m[n] = int32(n * shards / nodes)
	}
	return m
}

// TestShardedProbeMatchesFlat: a probe on a lockstep sharded kernel sees
// the flat engine's (time, global pending) stream on a storm with ties,
// cross-shard schedules and cancellations. Ties may fire in a different
// order across shards, but every draw the storm makes depends only on how
// many events fired before it, so the observed stream may not change.
func TestShardedProbeMatchesFlat(t *testing.T) {
	type obs struct {
		now  Time
		pend int
	}
	collect := func(k Kernel) []obs {
		var got []obs
		k.SetProbe(probeFunc(func(now Time, pending int) {
			got = append(got, obs{now, pending})
		}))
		runStorm(k, 16, 99)
		return got
	}
	want := collect(NewEngine())
	got := collect(NewParallelEngine(3, stripedShards(16, 3), 1))
	if len(want) != len(got) {
		t.Fatalf("probe streams: %d vs %d observations", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("observation %d: flat %+v sharded %+v", i, want[i], got[i])
		}
	}
	if want[0].pend == 0 {
		t.Fatal("probe saw no pending events; storm too small to be meaningful")
	}
}

// TestShardedEngineBasics covers the kernel surface a lockstep sharded
// run shares with the flat engine: global pending counts (the probe
// observes them too), RunUntil deadlines, clocks, and fired totals.
func TestShardedEngineBasics(t *testing.T) {
	se := NewParallelEngine(2, []int32{0, 0, 1, 1}, 3)
	var order []int
	for i, node := range []int{3, 0, 2, 1} {
		se.AtNode(node, 10, func() { order = append(order, i) })
	}
	se.Schedule(5, func() { order = append(order, 99) })
	if se.Pending() != 5 {
		t.Fatalf("pending %d, want 5", se.Pending())
	}
	var pending []int
	se.SetProbe(probeFunc(func(_ Time, p int) { pending = append(pending, p) }))
	if n := se.RunUntil(7); n != 1 {
		t.Fatalf("RunUntil(7) fired %d, want 1", n)
	}
	if se.Now() != 7 {
		t.Fatalf("Now after RunUntil(7) = %v", se.Now())
	}
	if n := se.Run(); n != 4 {
		t.Fatalf("Run fired %d, want 4", n)
	}
	if se.Now() != 10 || se.Fired() != 5 || se.Pending() != 0 {
		t.Fatalf("after Run now=%v fired=%d pending=%d, want 10/5/0",
			se.Now(), se.Fired(), se.Pending())
	}
	if len(order) != 5 || order[0] != 99 {
		t.Fatalf("firing order %v, want the t=5 event first and all five fired", order)
	}
	if want := []int{4, 3, 2, 1, 0}; !slices.Equal(pending, want) {
		t.Fatalf("probe saw pending %v, want the global counts %v", pending, want)
	}
}

type probeFunc func(now Time, pending int)

func (f probeFunc) EventFired(now Time, pending int) { f(now, pending) }
func (f probeFunc) Booking(Booked, Time, Time, Time) {}
func (f probeFunc) FaultNoted(FaultKind, Time)       {}

// haloCell is a node of the parallel-window test workload: a fixed-cadence
// halo exchange on a ring where state flows through values, never times.
type haloCell struct {
	sh    *Shard
	cells []*haloCell
	node  int
	steps int
	value uint64
	recv  uint64
	inbox [2]uint64 // reused per-edge transfer records (left, right)
	la    Time
}

const haloStep = Time(1000)

func (c *haloCell) step(any) {
	c.value = c.value*6364136223846793005 + c.recv + 1442695040888963407
	c.recv = 0
	now := c.sh.Now()
	n := len(c.cells)
	left, right := c.cells[(c.node+n-1)%n], c.cells[(c.node+1)%n]
	left.inbox[1] = c.value
	right.inbox[0] = c.value
	c.sh.Send(left.node, now+c.la, left.arriveRight, nil)
	c.sh.Send(right.node, now+c.la, right.arriveLeft, nil)
	if c.steps--; c.steps > 0 {
		c.sh.AtArg(now+haloStep, c.step, nil)
	}
}

func (c *haloCell) arriveLeft(any)  { c.recv += c.inbox[0] }
func (c *haloCell) arriveRight(any) { c.recv += c.inbox[1] }

func runHalo(shards int, parallel bool) uint64 {
	const nodes, steps = 32, 20
	la := Time(405)
	se := NewParallelEngine(shards, stripedShards(nodes, shards), la)
	cells := make([]*haloCell, nodes)
	for n := range cells {
		cells[n] = &haloCell{
			sh: se.ShardHandle(se.ShardOf(n)), node: n,
			steps: steps, value: uint64(n)*0x9e3779b9 + 1, la: la,
		}
	}
	for _, c := range cells {
		c.cells = cells
		c.sh.AtArg(0, c.step, nil)
	}
	if parallel {
		se.RunParallel()
	} else {
		se.Run()
	}
	var sum uint64
	for _, c := range cells {
		sum += c.value * 31
	}
	return sum
}

// TestParallelWindowsShardInvariant: the conservative-window executor
// produces the same result at shards 1, 2, 4 — and the same result the
// lockstep executor produces on the identical workload.
func TestParallelWindowsShardInvariant(t *testing.T) {
	want := runHalo(1, false)
	for _, shards := range []int{1, 2, 4} {
		if got := runHalo(shards, false); got != want {
			t.Fatalf("lockstep shards=%d: %#x, want %#x", shards, got, want)
		}
		if got := runHalo(shards, true); got != want {
			t.Fatalf("parallel shards=%d: %#x, want %#x", shards, got, want)
		}
	}
}

// TestCrossShardLookaheadViolationPanics: a send that would land inside
// the current window must panic rather than silently break determinism.
func TestCrossShardLookaheadViolationPanics(t *testing.T) {
	se := NewParallelEngine(2, []int32{0, 1}, 500)
	sh := se.ShardHandle(0)
	se.running, se.windowEnd = true, 500 // what a worker would observe mid-window
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	sh.Send(1, 10, func(any) {}, nil)
}
