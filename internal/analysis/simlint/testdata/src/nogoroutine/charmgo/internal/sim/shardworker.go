// Package sim is a nogoroutine fixture: internal/sim has no goroutine
// exception. A worker loop written in the shape the removed window-worker
// protocol sanctioned, and annotated as it once was, is rejected like any
// other goroutine and channel use.
package sim

type shard struct {
	work chan int64
	done chan uint64
}

func (s *shard) run(horizon int64) uint64 { return uint64(horizon) }

// startWorker is the old annotated worker: the annotation no longer
// exempts anything.
//
//simlint:shard-worker -- fixture: no longer an exemption
func startWorker(s *shard) {
	s.work = make(chan int64)  // want `channel creation in simulation code`
	s.done = make(chan uint64) // want `channel creation in simulation code`
	work, done := s.work, s.done
	//simlint:shard-worker -- fixture: no longer an exemption
	go func() { // want `goroutine in simulation code`
		for {
			horizon, ok := <-work // want `channel receive in simulation code`
			if !ok {
				return
			}
			done <- s.run(horizon) // want `channel send in simulation code`
		}
	}()
}

// coordinate is the old annotated coordinator half.
//
//simlint:shard-worker -- fixture: no longer an exemption
func coordinate(s *shard) uint64 {
	s.work <- 100   // want `channel send in simulation code`
	return <-s.done // want `channel receive in simulation code`
}

// stop is the old annotated termination signal.
//
//simlint:shard-worker -- fixture: no longer an exemption
func stop(s *shard) {
	close(s.work) // want `closing a channel in simulation code`
}
