package mem

import "testing"

type descA struct{ a, b int64 }

type descB struct {
	p *descA
	n int32
}

// TestLiveDescriptorsTracksEveryList checks that Get and Put on two list
// types move the process-wide count and each list's own count by exactly
// the number of records acquired and released.
func TestLiveDescriptorsTracksEveryList(t *testing.T) {
	var la FreeList[descA]
	var lb FreeList[descB]
	base := LiveDescriptors()
	check := func(stage string, wantA, wantB int64) {
		t.Helper()
		if got := la.Outstanding(); got != wantA {
			t.Fatalf("%s: list A outstanding %d, want %d", stage, got, wantA)
		}
		if got := lb.Outstanding(); got != wantB {
			t.Fatalf("%s: list B outstanding %d, want %d", stage, got, wantB)
		}
		if got := LiveDescriptors() - base; got != wantA+wantB {
			t.Fatalf("%s: live descriptors moved %d, want %d", stage, got, wantA+wantB)
		}
	}
	as := make([]*descA, 5)
	for i := range as {
		as[i] = la.Get()
	}
	bs := make([]*descB, 3)
	for i := range bs {
		bs[i] = lb.Get()
	}
	check("after gets", 5, 3)
	for _, a := range as[:2] {
		la.Put(a)
	}
	lb.Put(bs[0])
	check("after some puts", 3, 2)
	// Recycled records count again when re-acquired.
	as[0], as[1] = la.Get(), la.Get()
	check("after recycling", 5, 2)
	for _, a := range as {
		la.Put(a)
	}
	for _, b := range bs[1:] {
		lb.Put(b)
	}
	check("drained", 0, 0)
}

// BenchmarkFreeListGetPut acquires 64 records and releases each one per
// iteration: the steady-state cost of one Get and one Put.
func BenchmarkFreeListGetPut(b *testing.B) {
	var l FreeList[descA]
	var held [64]*descA
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range held {
			held[j] = l.Get()
		}
		for j := range held {
			l.Put(held[j])
		}
	}
}
