package mem

import "sync"

// SlabCache recycles the per-PE construction slabs a simulated machine is
// built from (CQ arrays, per-PE pools, scheduler arrays, link resources).
// Experiment suites construct and drop one full machine per data point, so
// without recycling these slabs dominate allocated bytes — and therefore GC
// pacing — even after the per-message hot path is allocation-free (DESIGN.md
// §2.2). A cache instance is package-global at each construction site:
// Get hands out a zeroed slice of the requested length (reusing any retained
// slab with sufficient capacity), Put returns a slab whose owner is being
// torn down via the Close chain.
//
// Unlike FreeList, which is touched only inside a machine's serialized
// execution region, a SlabCache is shared across machines and may be hit
// from concurrent constructions (e.g. parallel tests), so it carries a
// mutex; construction is off every message's critical path, so the lock is
// free in practice.
//
// Slabs are zeroed on Get, not on Put, so reuse is behaviorally identical
// to a fresh make — a stale field can never leak into the next machine and
// double-run determinism is preserved by construction. GetDirty is the one
// exception, for element types whose initializer resets every field but a
// buffer worth keeping (sim.GapResource's interval array): it hands the
// slab out as its last owner left it, and the caller initializes every
// element before use.
//
// Ownership vocabulary (checked by the simlint closechain analyzer;
// DESIGN.md §6 "Ownership rules"): Get acquires a slab for the machine
// under construction, which stores it in a field; Put releases it when
// that machine is torn down. Because slabs live as long as their owner,
// the release site is the owner's Close (or a function reachable from
// it) — closechain verifies that every field assigned from a SlabCache
// acquire is Put on the owner's Close chain. Wrappers that acquire or
// release slabs for another package carry //simlint:acquire and
// //simlint:release doc directives (e.g. ugni.GetCQSlab/PutCQSlab).
type SlabCache[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// slabCacheMax bounds retained slabs per cache; beyond it Put drops the
// slab for the GC. Experiment suites alternate among a handful of machine
// shapes, so a small bound captures all reuse.
const slabCacheMax = 16

// Get acquires a zeroed slice of length n, reusing a retained slab when
// one with sufficient capacity exists. The slab belongs to the caller (in
// practice: the machine storing it in a field) until released with Put.
func (c *SlabCache[T]) Get(n int) []T {
	s := c.GetDirty(n)
	clear(s)
	return s
}

// GetDirty is Get without the zeroing: a reused slab's elements hold
// whatever its last owner left in them, so buffers they own survive into
// the next machine. The caller must initialize every element of the
// returned slice before use, with an initializer that leaves no state of
// the last owner observable (sim.InitGapResource keeps only the capacity
// of the interval array, whose layout does not affect any booking).
func (c *SlabCache[T]) GetDirty(n int) []T {
	if n == 0 {
		return nil
	}
	c.mu.Lock()
	for i := len(c.free) - 1; i >= 0; i-- {
		if s := c.free[i]; cap(s) >= n {
			last := len(c.free) - 1
			c.free[i] = c.free[last]
			c.free[last] = nil
			c.free = c.free[:last]
			c.mu.Unlock()
			return s[:n]
		}
	}
	c.mu.Unlock()
	return make([]T, n)
}

// Put releases s for a later Get, normally from the owning machine's
// Close. The caller must not touch s afterwards.
func (c *SlabCache[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	c.mu.Lock()
	if len(c.free) < slabCacheMax {
		c.free = append(c.free, s[:0])
	}
	c.mu.Unlock()
}
