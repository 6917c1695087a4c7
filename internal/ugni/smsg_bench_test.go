package ugni

import (
	"fmt"
	"testing"

	"charmgo/internal/gemini"
	"charmgo/internal/sim"
)

// smsgPairCounts are the established-pair populations the SMSG
// microbenchmark runs at on a 160-node network (3840 PEs). 4,096 pairs
// fit in cache; 220,000 is the namd uGNI machine's population (about 57
// peers per PE), where finding a pair's endpoint misses cache.
var smsgPairCounts = []int{4096, 220000}

// smsgTraffic sends steady-state SMSG messages over a fixed set of already
// established PE pairs on a 160-node network. Every PE's receive CQ is
// hooked, so each delivery returns its credit: immediately on the one
// pair in four that is intra-node, through a creditFlight back to the
// sender's node on the others. One op is one message's whole uGNI path:
// the send, its transfer, the CQ delivery and the credit return.
type smsgTraffic struct {
	g     *GNI
	eng   *sim.Engine
	pairs [][2]int
	i     int
}

func newSmsgTraffic(npairs int) *smsgTraffic {
	eng := sim.NewEngine()
	net := gemini.NewNetwork(eng, 160, gemini.DefaultParams())
	s := &smsgTraffic{g: New(net), eng: eng}
	npes, cores := net.NumPEs(), net.P.CoresPerNode
	for pe := range npes {
		cq := s.g.CqCreateIdx("rx", pe, "")
		cq.OnEventIdx = func(int, Event) {}
		s.g.AttachSmsgCQ(pe, cq)
	}
	for i := range npairs {
		h := sim.Mix(uint64(i))
		src := int(h % uint64(npes))
		var dst int
		if i%4 == 0 {
			core := src % cores
			dst = src - core + (core+1+int(h>>32%uint64(cores-1)))%cores
		} else {
			dst = int(h >> 32 % uint64(npes))
			if net.SameNode(src, dst) {
				dst = (dst + cores) % npes
			}
		}
		s.pairs = append(s.pairs, [2]int{src, dst})
	}
	// Establish every pair (record, mailbox) and warm the pools.
	for range s.pairs {
		s.send()
	}
	return s
}

func (s *smsgTraffic) send() {
	p := s.pairs[s.i%len(s.pairs)]
	s.i++
	if _, rc, err := s.g.SmsgSendWTag(p[0], p[1], 0, 64, nil, s.eng.Now(), nil); rc != RCSuccess || err != nil {
		panic("ugni: steady-state SMSG send refused")
	}
	s.eng.Run()
}

// BenchmarkSmsgSendWTag measures one steady-state SMSG message over
// established pairs, credit return included (see smsgTraffic), at each
// pair population.
func BenchmarkSmsgSendWTag(b *testing.B) {
	for _, n := range smsgPairCounts {
		b.Run(fmt.Sprintf("pairs=%d", n), func(b *testing.B) {
			s := newSmsgTraffic(n)
			b.ReportAllocs()
			for b.Loop() {
				s.send()
			}
		})
	}
}

// TestSmsgSendAllocFree pins the benchmark's steady state at each pair
// population: a message on an established pair allocates nothing, and
// every credit it consumed is back once the engine drains.
func TestSmsgSendAllocFree(t *testing.T) {
	for _, n := range smsgPairCounts {
		t.Run(fmt.Sprintf("pairs=%d", n), func(t *testing.T) {
			s := newSmsgTraffic(n)
			if a := testing.AllocsPerRun(10000, s.send); a != 0 {
				t.Fatalf("steady-state SMSG send allocates %v per op, want 0", a)
			}
			intra := 0
			for _, p := range s.pairs {
				if s.g.Net.SameNode(p[0], p[1]) {
					intra++
				}
			}
			if intra == 0 || intra == len(s.pairs) {
				t.Fatalf("%d of %d pairs intra-node: want both credit-return paths", intra, len(s.pairs))
			}
			if s.g.CreditsInFlight() != 0 || s.g.CreditsConsumed() != s.g.CreditReturns() {
				t.Fatalf("credits after drain: consumed %d, returned %d, in flight %d",
					s.g.CreditsConsumed(), s.g.CreditReturns(), s.g.CreditsInFlight())
			}
		})
	}
}
