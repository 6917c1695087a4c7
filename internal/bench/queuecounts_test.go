package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"charmgo"
	"charmgo/internal/md"
	"charmgo/internal/sim"
	"charmgo/internal/ssse"
)

var updateQueueCounts = flag.Bool("update", false, "rewrite testdata/queuecounts.golden")

const queueCountsGolden = "testdata/queuecounts.golden"

// queueCountConfigs are the fixed runs whose kernel work is pinned: the
// quick Fig 9a and Fig 13 experiments, and the small queens and namd ops
// of the benchmark (two nodes, one machine per layer).
var queueCountConfigs = []struct {
	name string
	run  func(kl *kernelLog)
}{
	{"fig9a-quick", func(kl *kernelLog) { Fig9a(Options{Quick: true, Seed: 1, kernels: kl}) }},
	{"fig13-quick", func(kl *kernelLog) { Fig13(Options{Quick: true, Seed: 1, kernels: kl}) }},
	{"queens-small", func(kl *kernelLog) {
		for _, c := range []struct {
			layer charmgo.LayerKind
			thr   int
		}{{charmgo.LayerUGNI, 5}, {charmgo.LayerMPI, 4}} {
			m := kl.machine(charmgo.MachineConfig{Nodes: 2, Layer: c.layer})
			ssse.Run(m, ssse.Config{N: 13, Threshold: c.thr, Seed: 1, ChunkSize: queensChunk(13, c.thr)})
			closeMachine(m)
		}
	}},
	{"namd-small", func(kl *kernelLog) {
		for _, layer := range []charmgo.LayerKind{charmgo.LayerMPI, charmgo.LayerUGNI} {
			m := kl.machine(charmgo.MachineConfig{Nodes: 2, Layer: layer})
			md.Run(m, md.Config{System: md.IAPP, Steps: 2, Warmup: 1, LB: true, Seed: 1})
			closeMachine(m)
		}
	}},
}

// TestQueueCountsGolden pins the deterministic work of the event kernels
// in fixed runs: events fired, peak pending, and the queue's pushes,
// refills, entries moved and retained capacity. The counts depend only on
// the simulation, so any difference is a change in algorithmic work; a
// change that means to move them re-records the file with
// `go test ./internal/bench -run TestQueueCountsGolden -update` and names
// the delta. Each kernel's retained capacity must also stay within twice
// its peak pending count plus 64 chunks.
func TestQueueCountsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Event-kernel work per config, summed over the kernels it builds\n")
	b.WriteString("# (peak_pending is the largest of any one kernel).\n")
	fmt.Fprintf(&b, "%-12s %7s %9s %12s %9s %9s %9s %8s\n",
		"# config", "kernels", "fired", "peak_pending", "pushes", "refills", "moved", "capacity")
	for _, c := range queueCountConfigs {
		kl := &kernelLog{}
		c.run(kl)
		var fired uint64
		var peak int
		var q sim.QueueStats
		for i, eng := range kl.engines {
			ks, qs := kl.stats[i], eng.QueueStats()
			if bound := 2*ks.PeakPending + 64*sim.QueueChunkLen; qs.Capacity > bound {
				t.Errorf("%s kernel %d: retained capacity %d entries, over 2 x peak pending %d + 64 chunks = %d",
					c.name, i, qs.Capacity, ks.PeakPending, bound)
			}
			fired += eng.Fired()
			peak = max(peak, ks.PeakPending)
			q.Pushes += qs.Pushes
			q.Refills += qs.Refills
			q.Moved += qs.Moved
			q.Capacity += qs.Capacity
		}
		fmt.Fprintf(&b, "%-12s %7d %9d %12d %9d %9d %9d %8d\n",
			c.name, len(kl.engines), fired, peak, q.Pushes, q.Refills, q.Moved, q.Capacity)
	}
	got := b.String()
	if *updateQueueCounts {
		if err := os.WriteFile(queueCountsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(queueCountsGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("event-kernel work counts differ from %s (re-record with -update if the change is meant):\ngot:\n%swant:\n%s",
			queueCountsGolden, got, want)
	}
}
