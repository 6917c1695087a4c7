// ownership covers the acquire and transfer shapes demo.go does not:
// acquires by pooled type assertion, by a type-switch case binding and
// by a mem.SlabCache Get; transfers by closure capture, address-of,
// channel send and composite literal; and release through an annotated
// //simlint:release wrapper.
package demo

import "charmgo/internal/mem"

var slabs mem.SlabCache[rec]

// holder keeps a record in a struct; building one takes ownership.
type holder struct{ r *rec }

func later(func()) {}

func keep(**rec) {}

// retire is an annotated release wrapper.
//
//simlint:release
func retire(r *rec) { pool.Put(r) }

// assertLeak acquires by asserting to the pooled pointer type, then drops
// the record on the error path.
func assertLeak(x any, fail bool) {
	r := x.(*rec) // want `pooled value r may leak`
	if fail {
		return
	}
	pool.Put(r)
}

// caseLeak acquires through the per-case binding of a type switch.
func caseLeak(x any, fail bool) {
	switch r := x.(type) {
	case *rec: // want `pooled value r may leak`
		if fail {
			return
		}
		pool.Put(r)
	}
}

// caseReleaseClean releases the pooled case binding; the int case binds
// a non-pooled value.
func caseReleaseClean(x any) int {
	switch r := x.(type) {
	case *rec:
		pool.Put(r)
	case int:
		return r
	}
	return 0
}

// captureClean is clean: the closure takes over the release.
func captureClean() {
	r := pool.Get()
	later(func() { pool.Put(r) })
}

// addrClean is clean: taking the address hands the record on.
func addrClean() {
	r := pool.Get()
	keep(&r)
}

// sendClean is clean: the receiver owns what it is sent.
func sendClean(ch chan<- *rec) {
	r := pool.Get()
	ch <- r
}

// compositeClean is clean: the keyed literal owns the record.
func compositeClean() holder {
	r := pool.Get()
	h := holder{r: r}
	return h
}

// sliceLitClean is clean: the positional literal owns the record.
func sliceLitClean() []*rec {
	r := pool.Get()
	rs := []*rec{r}
	return rs
}

// wrapperReleaseClean is clean: the annotated wrapper releases.
func wrapperReleaseClean() {
	r := pool.Get()
	retire(r)
}

// wrapperReleaseLeak skips the wrapper on the error path.
func wrapperReleaseLeak(fail bool) {
	r := pool.Get() // want `pooled value r may leak`
	if fail {
		return
	}
	retire(r)
}

// slabLeak drops a SlabCache slab on the error path.
func slabLeak(n int, fail bool) {
	s := slabs.Get(n) // want `pooled value s may leak`
	if fail {
		return
	}
	slabs.Put(s)
}
