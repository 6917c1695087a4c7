package sim

import "fmt"

// ShardedEngine partitions one simulation's event population across N
// shards, each a pooled-event Engine with its own sequence counter owning a
// group of simulated nodes. Under RunParallel shards advance inside
// conservative windows bounded by the kernel lookahead L (for the gemini
// model, InjectionLatency + minCrossShardHops × HopLatency). Each window,
// the coordinator computes the horizon H = min-next-event + L, lets every
// shard fire its local events with t < H, and merges cross-shard sends at
// the barrier. An event executing
// at τ ≥ min-next-event may schedule remotely only at τ' ≥ τ + L ≥ H, so
// no remote event can land inside the window that produced it — the
// Chandy/Misra conservative argument. Cross-shard sends buffer in
// single-writer outboxes and merge in (timestamp, source shard, emission
// index) order, so results are independent of goroutine scheduling and of
// the shard count for shard-confined workloads. Run executes the same
// population in lockstep, the oracle the windows are checked against. The
// machine stack never runs here: it is built on the flat Engine only.
type ShardedEngine struct {
	shards    []*Engine
	nodeShard []int32
	now       Time
	cur       int // shard receiving node-less schedules (last to fire)
	probe     Probe

	// Window state.
	lookahead Time
	handles   []*Shard
	started   bool
	running   bool // workers active inside a window (misuse guard)
	windowEnd Time

	// Window-protocol state. parallel latches once RunParallel starts;
	// windowFloor is the current window's minimum event time, the
	// conservative lower bound on any booking made inside it; barriers
	// are the hooks run after every window's outbox merge (the network
	// model drains its reservation outboxes here).
	parallel    bool
	windowFloor Time
	barriers    []func()
}

// NewParallelEngine returns a sharded kernel over the given node→shard
// map with the given conservative lookahead. Shards keep independent
// sequence counters (workers must not contend on one), so ties at equal
// timestamps resolve by (sequence, shard) under lockstep execution and by
// the merge rule under parallel windows. Cross-shard scheduling goes
// through Shard.Send and must respect the lookahead.
func NewParallelEngine(shards int, nodeShard []int32, lookahead Time) *ShardedEngine {
	if shards < 1 {
		panic(fmt.Sprintf("sim: NewParallelEngine(%d shards)", shards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: NewParallelEngine lookahead %v", lookahead))
	}
	for n, s := range nodeShard {
		if int(s) < 0 || int(s) >= shards {
			panic(fmt.Sprintf("sim: node %d mapped to shard %d of %d", n, s, shards))
		}
	}
	se := &ShardedEngine{
		shards:    make([]*Engine, shards),
		nodeShard: nodeShard,
		lookahead: lookahead,
		handles:   make([]*Shard, shards),
	}
	for i := range se.shards {
		se.shards[i] = &Engine{}
		se.handles[i] = &Shard{
			se:  se,
			id:  i,
			eng: se.shards[i],
			out: make([][]crossEvent, shards),
		}
	}
	return se
}

// NumShards reports the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Lookahead reports the conservative cross-shard bound.
func (se *ShardedEngine) Lookahead() Time { return se.lookahead }

// ShardOf reports the shard owning a node.
func (se *ShardedEngine) ShardOf(node int) int { return int(se.nodeShard[node]) }

// ShardHandle returns the handle workloads use to schedule on a shard.
func (se *ShardedEngine) ShardHandle(i int) *Shard { return se.handles[i] }

// OnBarrier registers fn to run at every window barrier, after the
// cross-shard outboxes have merged and before the next horizon is
// chosen. Hooks run in registration order on the coordinating goroutine;
// they are the defer-to-barrier half of the shard-ownership discipline
// (the network model applies its cross-shard link reservations here).
// Lockstep runs never execute barriers.
func (se *ShardedEngine) OnBarrier(fn func()) {
	se.barriers = append(se.barriers, fn)
}

func (se *ShardedEngine) runBarriers() {
	for _, fn := range se.barriers {
		fn()
	}
}

// Deferring reports whether a conservative window is executing right
// now — the condition under which cross-shard effects must buffer
// (outboxes, reservation lists) and drain at the barrier instead of
// landing directly.
func (se *ShardedEngine) Deferring() bool { return se.running }

// WindowFloor reports the conservative lower bound on the start time of
// any booking made by in-flight events: the current window's minimum
// event time once RunParallel has started, the global clock in lockstep.
// GapResources owned by a sharded network use it as their pruning clock —
// pruning against the *window floor* instead of the fired-event clock is
// what keeps barrier-applied reservations (whose start may precede the
// horizon) inside the prune-safe region.
func (se *ShardedEngine) WindowFloor() Time {
	if !se.parallel {
		return se.now
	}
	return se.windowFloor
}

// Now reports the current virtual time (the global clock: the timestamp
// of the most recently fired event, or the deadline RunUntil advanced
// to).
func (se *ShardedEngine) Now() Time { return se.now }

// Fired reports how many events have executed across all shards.
func (se *ShardedEngine) Fired() uint64 {
	var n uint64
	for _, sh := range se.shards {
		n += sh.fired
	}
	return n
}

// Pending reports the number of scheduled, uncancelled events across all
// shards.
func (se *ShardedEngine) Pending() int {
	n := 0
	for _, sh := range se.shards {
		n += sh.live
	}
	return n
}

// Schedule runs fn after delay units of virtual time on the current shard.
//
//simlint:hotpath
func (se *ShardedEngine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return se.At(se.Now()+delay, fn)
}

// ScheduleArg is the closure-free Schedule form.
//
//simlint:hotpath
func (se *ShardedEngine) ScheduleArg(delay Time, fn func(any), arg any) *Event {
	if delay < 0 {
		delay = 0
	}
	return se.AtArg(se.Now()+delay, fn, arg)
}

// At runs fn at absolute time t on the current shard (the shard whose
// event is executing, so self-rescheduling stays local).
//
//simlint:hotpath
func (se *ShardedEngine) At(t Time, fn func()) *Event {
	return se.route(se.cur).At(se.check(t), fn)
}

// AtArg is the closure-free At form.
//
//simlint:hotpath
func (se *ShardedEngine) AtArg(t Time, fn func(any), arg any) *Event {
	return se.route(se.cur).AtArg(se.check(t), fn, arg)
}

// AtNode books fn at t into the queue of the shard owning node.
//
//simlint:hotpath
func (se *ShardedEngine) AtNode(node int, t Time, fn func()) *Event {
	shard := int(se.nodeShard[node])
	return se.route(shard).At(se.check(t), fn)
}

// AtNodeArg is the closure-free AtNode form.
//
//simlint:hotpath
func (se *ShardedEngine) AtNodeArg(node int, t Time, fn func(any), arg any) *Event {
	shard := int(se.nodeShard[node])
	return se.route(shard).AtArg(se.check(t), fn, arg)
}

// check enforces the flat engine's causality panic against the *global*
// clock (shard-local clocks lag it between their turns).
func (se *ShardedEngine) check(t Time) Time {
	if t < se.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, se.now))
	}
	return t
}

func (se *ShardedEngine) route(shard int) *Engine {
	if se.running {
		panic("sim: ShardedEngine scheduling during a parallel window; use Shard handles")
	}
	return se.shards[shard]
}

// pickMin peeks at every shard's queue for the globally minimal (time,
// sequence, shard) key; the shard index breaks ties between the
// independent per-shard counters.
func (se *ShardedEngine) pickMin() (shard int, at Time, ok bool) {
	shard = -1
	var bs uint64
	for i, sh := range se.shards {
		a, s, live := sh.peek()
		if !live {
			continue
		}
		if shard < 0 || a < at || (a == at && s < bs) {
			shard, at, bs = i, a, s
		}
	}
	return shard, at, shard >= 0
}

// Step fires the single globally next event. It reports false when no
// events remain on any shard.
func (se *ShardedEngine) Step() bool {
	shard, at, ok := se.pickMin()
	if !ok {
		return false
	}
	se.cur = shard
	se.now = at
	return se.shards[shard].Step()
}

// Run fires events in lockstep until none remain and returns the number
// fired: the globally minimal (time, sequence, shard) event one at a time
// on the caller's goroutine, the oracle RunParallel is checked against on
// shard-confined workloads.
func (se *ShardedEngine) Run() uint64 {
	var n uint64
	for se.Step() {
		n++
	}
	return n
}

// RunUntil fires events with timestamps <= deadline, then advances the
// global and per-shard clocks to the deadline.
func (se *ShardedEngine) RunUntil(deadline Time) uint64 {
	var n uint64
	for {
		shard, at, ok := se.pickMin()
		if !ok || at > deadline {
			break
		}
		se.cur = shard
		se.now = at
		se.shards[shard].Step()
		n++
	}
	for _, sh := range se.shards {
		if sh.now < deadline {
			sh.now = deadline
		}
	}
	if se.now < deadline {
		se.now = deadline
	}
	return n
}

// RunFor is RunUntil(Now()+d).
func (se *ShardedEngine) RunFor(d Time) uint64 { return se.RunUntil(se.now + d) }

// SetProbe installs p behind a wrapper that reports the *global* pending
// count, the quantity a flat engine's probe observes.
func (se *ShardedEngine) SetProbe(p Probe) {
	se.probe = p
	var w Probe
	if p != nil {
		w = &shardProbe{se}
	}
	for _, sh := range se.shards {
		sh.SetProbe(w)
	}
}

// Probe reports the installed probe, if any.
func (se *ShardedEngine) Probe() Probe { return se.probe }

// shardProbe adapts shard-local probe calls to the global view: the
// pending count a flat engine would have reported is the sum over shards.
type shardProbe struct{ se *ShardedEngine }

func (w *shardProbe) EventFired(now Time, _ int) {
	w.se.probe.EventFired(now, w.se.Pending())
}
func (w *shardProbe) Booking(r Booked, at, start, end Time) {
	w.se.probe.Booking(r, at, start, end)
}
func (w *shardProbe) FaultNoted(kind FaultKind, now Time) {
	w.se.probe.FaultNoted(kind, now)
}

// crossEvent is one buffered cross-shard send awaiting merge.
type crossEvent struct {
	at  Time
	fn  func(any)
	arg any
}

// Shard is a worker's handle onto one shard of a parallel-window kernel:
// local scheduling books straight into the shard's queue; cross-shard
// sends buffer in single-writer outboxes merged at the window barrier.
type Shard struct {
	se   *ShardedEngine //simlint:shared -- coordinator backref: Send reads immutable routing tables through it; worker ownership stops here
	id   int
	eng  *Engine
	out  [][]crossEvent //simlint:outbox -- per destination shard: Send is the single appender, mergeOutboxes drains at the window barrier
	work chan Time
	done chan uint64
}

// ID reports the shard index.
func (s *Shard) ID() int { return s.id }

// Now reports the shard-local clock.
func (s *Shard) Now() Time { return s.eng.Now() }

// At books a shard-local event. Safe inside a window: only this shard's
// worker touches this queue.
//
//simlint:hotpath
func (s *Shard) At(t Time, fn func()) *Event { return s.eng.At(t, fn) }

// AtArg is the closure-free local form.
//
//simlint:hotpath
func (s *Shard) AtArg(t Time, fn func(any), arg any) *Event { return s.eng.AtArg(t, fn, arg) }

// Send schedules fn(arg) at absolute time t on the shard owning node.
// Same-shard sends book directly. Cross-shard sends buffer in this
// shard's outbox for the destination and merge at the next barrier, so t
// must respect the kernel lookahead: inside a window it must be at or
// beyond the window horizon, which any delay >= the configured lookahead
// guarantees. Violations panic — a too-small delay would let results
// depend on the shard count.
//
//simlint:hotpath
//simlint:outbox-transfer -- the audited cross-shard hand-off verb: same-shard books directly, cross-shard buffers past the horizon (the panic above enforces the lookahead)
func (s *Shard) Send(node int, t Time, fn func(any), arg any) {
	dst := int(s.se.nodeShard[node])
	if dst == s.id {
		s.eng.AtArg(t, fn, arg)
		return
	}
	if !s.se.Deferring() {
		// No window active (lockstep execution, setup, or a barrier
		// callback): the caller's goroutine is the only one running, so
		// book straight into the owner's queue.
		s.se.shards[dst].AtArg(t, fn, arg)
		return
	}
	if t < s.se.windowEnd {
		panic(fmt.Sprintf("sim: cross-shard send at %v inside window ending %v (lookahead %v violated)",
			t, s.se.windowEnd, s.se.lookahead))
	}
	s.out[dst] = append(s.out[dst], crossEvent{at: t, fn: fn, arg: arg})
}

// RunParallel drives conservative windows until no shard holds events,
// returning the number fired. The caller's goroutine coordinates; one
// worker per shard executes. A probe would be shared by every worker and
// race, so none may be installed.
//
//simlint:shard-worker -- coordinator half of the window protocol: hands horizons to workers and barriers on their replies
func (se *ShardedEngine) RunParallel() uint64 {
	if se.probe != nil {
		panic("sim: RunParallel with a probe installed; workers would share it")
	}
	se.parallel = true
	se.startWorkers()
	defer se.stopWorkers()
	var fired uint64
	for {
		_, m, ok := se.pickMin()
		if !ok {
			break
		}
		horizon := m + se.lookahead
		se.windowEnd = horizon
		// The floor must be in place before workers release: resources
		// clocked by WindowFloor prune against it from worker bookings,
		// and the channel send below publishes the write.
		se.windowFloor = m
		se.running = true
		for _, sh := range se.handles {
			sh.work <- horizon
		}
		for _, sh := range se.handles {
			fired += <-sh.done
		}
		se.running = false
		if se.now < horizon-1 {
			se.now = horizon - 1
		}
		se.mergeOutboxes()
		se.runBarriers()
	}
	// Settle the final clock on the last event actually fired, as Run()
	// does — the window loop overshoots it by up to lookahead-1.
	var end Time
	for _, sh := range se.shards {
		if sh.fired > 0 && sh.lastAt > end {
			end = sh.lastAt
		}
	}
	if fired > 0 {
		se.now = end
	}
	return fired
}

// mergeOutboxes drains every (source, destination) outbox at a barrier.
// The deterministic merge rule: destinations take sources in ascending
// shard ID, events in emission order. The queue already orders by (time,
// sequence) and sequence order is insertion order, so ties at equal
// timestamps resolve by (source shard, emission index) — independent of
// how the workers were scheduled onto OS threads.
//
//simlint:outbox-transfer -- barrier-side drain: runs on the coordinator between windows, after every worker has replied on done
func (se *ShardedEngine) mergeOutboxes() {
	for dst, dh := range se.handles {
		for _, src := range se.handles {
			box := src.out[dst]
			for i := range box {
				dh.eng.AtArg(box[i].at, box[i].fn, box[i].arg)
				box[i] = crossEvent{}
			}
			src.out[dst] = box[:0]
		}
	}
}

//simlint:shard-worker -- window coordination channels: created here, used only by the shape-verified worker loop below
func (se *ShardedEngine) startWorkers() {
	if se.started {
		return
	}
	se.started = true
	for _, h := range se.handles {
		sh := h
		sh.work = make(chan Time)
		sh.done = make(chan uint64)
		// Locals, not fields: workers must never re-read handle fields the
		// coordinator later clears.
		work, done := sh.work, sh.done
		//simlint:shard-worker -- conservative-window worker: blocks on work, runs its shard strictly below the horizon, reports on done
		go func() {
			for {
				horizon, ok := <-work
				if !ok {
					return
				}
				n := sh.eng.RunUntil(horizon - 1)
				done <- n
			}
		}()
	}
}

//simlint:shard-worker -- closing the work channels is the workers' only termination signal
func (se *ShardedEngine) stopWorkers() {
	if !se.started {
		return
	}
	se.started = false
	for _, sh := range se.handles {
		close(sh.work)
		sh.work = nil
		sh.done = nil
	}
}
