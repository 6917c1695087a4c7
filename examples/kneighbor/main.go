// kNeighbor example: the paper's Figure 10 contention benchmark — every
// core exchanges messages with its k nearest ring neighbours each
// iteration. The uGNI layer overlaps the BTE transfers; the MPI layer's
// blocking receive serializes them, which is why its curve sits ~2x higher
// for large messages.
//
// Run: go run ./examples/kneighbor
package main

import (
	"fmt"

	"charmgo"
	"charmgo/internal/bench"
	"charmgo/internal/stats"
)

func main() {
	const cores, k = 3, 1
	fmt.Printf("kNeighbor: %d cores on %d nodes, k=%d\n\n", cores, cores, k)

	t := stats.NewTable("per-iteration time (us)", "size", "charm/ugni", "charm/mpi", "ratio")
	for size := 32; size <= 1<<20; size *= 8 {
		u := bench.KNeighbor(charmgo.LayerUGNI, cores, k, size)
		m := bench.KNeighbor(charmgo.LayerMPI, cores, k, size)
		t.Add(stats.SizeLabel(size), u.Micros(), m.Micros(),
			fmt.Sprintf("%.2fx", float64(m)/float64(u)))
	}
	fmt.Println(t.String())
}
