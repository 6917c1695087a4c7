// ownership covers the release and use shapes demo.go does not: release
// through an annotated //simlint:release wrapper, a SlabCache slab used
// after its Put, a stale record read across a loop back edge, and a
// released record handed on by closure capture, address-of, channel send
// or composite literal.
package demo

import "charmgo/internal/mem"

var slabs mem.SlabCache[rec]

type holder struct{ r *rec }

func later(func()) {}

func keep(**rec) {}

// retire is an annotated release wrapper.
//
//simlint:release
func retire(r *rec) { pool.Put(r) }

// readAfterWrapper reads through the pointer the wrapper released.
func readAfterWrapper() int {
	r := pool.Get()
	retire(r)
	return r.id // want `use of pooled value r after it was released`
}

// putAfterWrapper releases the record a second time.
func putAfterWrapper() {
	r := pool.Get()
	retire(r)
	pool.Put(r) // want `pooled value r released twice`
}

// slabAfterPut writes into a slab already returned to its cache.
func slabAfterPut(n int) {
	s := slabs.Get(n)
	slabs.Put(s)
	s[0].id = 1 // want `use of pooled value s after it was released`
}

// staleAcrossBackEdge reads the previous iteration's record, which the
// bottom of the loop already returned to the pool.
func staleAcrossBackEdge(n int) (sum int) {
	var r *rec
	for i := 0; i < n; i++ {
		if i > 0 {
			sum += r.id // want `use of pooled value r after it was released`
		}
		r = pool.Get()
		r.id = i
		pool.Put(r)
	}
	return sum
}

// captureAfterPut closes over a released record.
func captureAfterPut() {
	r := pool.Get()
	pool.Put(r)
	later(func() { r.id = 0 }) // want `use of pooled value r after it was released`
}

// addrAfterPut hands out the address of a released record.
func addrAfterPut() {
	r := pool.Get()
	pool.Put(r)
	keep(&r) // want `use of pooled value r after it was released`
}

// sendAfterPut sends a released record.
func sendAfterPut(ch chan<- *rec) {
	r := pool.Get()
	pool.Put(r)
	ch <- r // want `use of pooled value r after it was released`
}

// compositeAfterPut stores a released record in a literal.
func compositeAfterPut() holder {
	r := pool.Get()
	pool.Put(r)
	return holder{r: r} // want `use of pooled value r after it was released`
}

// readAfterPutOnOnePath reads a record that one incoming path released:
// a use refused on some path is reported, even if another path still
// owns the record.
func readAfterPutOnOnePath(done bool) int {
	r := pool.Get()
	if done {
		pool.Put(r)
	}
	return r.id // want `use of pooled value r after it was released`
}

// putAgainOnOnePath releases a record that one incoming path already
// released.
func putAgainOnOnePath(done bool) {
	r := pool.Get()
	if done {
		pool.Put(r)
	}
	pool.Put(r) // want `pooled value r released twice`
}
