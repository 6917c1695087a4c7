package ssse

import (
	"testing"
	"unsafe"

	"charmgo"
)

// chunkedQueens is a 13-Queens run that bundles tasks into chunks of 16.
var chunkedQueens = Config{N: 13, Threshold: 4, Seed: 11, ChunkSize: 16}

func runOn(t *testing.T, s *solver, layer charmgo.LayerKind, cfg Config) Result {
	t.Helper()
	m := charmgo.NewMachine(charmgo.MachineConfig{Nodes: 2, CoresPerNode: 4, Layer: layer})
	res := s.run(m, cfg)
	if res.Solutions != Solutions[cfg.N] {
		t.Fatalf("layer %s: %d solutions, want %d", layer, res.Solutions, Solutions[cfg.N])
	}
	return res
}

func TestChunkPoolDrains(t *testing.T) {
	for _, layer := range []charmgo.LayerKind{charmgo.LayerUGNI, charmgo.LayerMPI} {
		s := new(solver)
		runOn(t, s, layer, chunkedQueens)
		if n := s.chunks.Outstanding(); n != 0 {
			t.Fatalf("layer %s: %d chunks outstanding after the run drained", layer, n)
		}
		if len(s.spare) == 0 {
			t.Fatalf("layer %s: no chunk backing came back to the pool", layer)
		}
	}
}

func TestStateIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(state{}); n != 16 {
		t.Fatalf("state is %d bytes, want 16", n)
	}
}

func TestSecondRunReusesBackings(t *testing.T) {
	// Every backing the pool ever built is spare once a run drains, so
	// len(spare) after the first run is that run's peak of live chunks
	// that carry states, and its growth over the second run counts the
	// second run's misses.
	s := new(solver)
	runOn(t, s, charmgo.LayerUGNI, chunkedQueens)
	peak := len(s.spare)
	if peak == 0 {
		t.Fatal("first run built no chunk backings")
	}
	again := chunkedQueens
	again.Seed++
	runOn(t, s, charmgo.LayerUGNI, again)
	if misses := len(s.spare) - peak; misses > peak {
		t.Fatalf("second run missed the pool %d times, more than the first run's peak of %d live chunks", misses, peak)
	}
	for _, b := range s.spare {
		if cap(b) != chunkedQueens.ChunkSize {
			t.Fatalf("spare backing has capacity %d, want ChunkSize %d", cap(b), chunkedQueens.ChunkSize)
		}
	}
}
