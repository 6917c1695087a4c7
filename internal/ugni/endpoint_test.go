package ugni

import (
	"testing"

	"charmgo/internal/gemini"
	"charmgo/internal/sim"
)

// FuzzSmsgEndpoints drives the per-PE endpoint tables with random streams
// of sends, credit squeezes and partial engine runs over one to three
// nodes, against a reference keyed by a map of ordered pairs. `go test`
// replays the corpus under testdata/fuzz/FuzzSmsgEndpoints; `make
// fuzz-smoke` fuzzes it.
func FuzzSmsgEndpoints(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runEndpointStream(t, data)
	})
}

// The fuzzed operations. Each takes three bytes: the kind (modulo
// numEndpointOps) and two arguments a and b.
const (
	epOpSend    = iota // a: src, b: dst
	epOpFanOut         // a: src; sends to b%32 consecutive peers after it
	epOpSqueeze        // a: src, b: dst; narrows to a&1 slots for 1..64 ns
	epOpRunFor         // b: how far the clock advances
	epOpDrain          // runs the engine dry
	numEndpointOps
)

// endpointRef is the reference model: the record each ordered pair got
// when it was first created, and the unordered pairs whose mailboxes a
// send has accounted.
type endpointRef struct {
	recs    map[[2]int]*smsgConn
	mailbox map[[2]int]bool
}

// runEndpointStream decodes data and checks, after every operation, that
// every pair still finds the record it was created with (table growth
// rebinds slots, never records), that MailboxBytes counts one mailbox
// pair per unordered pair ever sent on, and that the credit account
// balances. At the end the engine drains, every pair accepts one more
// send (a finished squeeze leaves no window closed, credits disabled or
// not), and after a second drain every credit consumed has come back.
// The first byte picks the node count (bits 0-1), disables credits (bit
// 2) or shrinks the window to two slots (bit 3).
func runEndpointStream(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	p := gemini.DefaultParams()
	nodes := 1 + int(data[0]&3)%3
	switch {
	case data[0]&4 != 0:
		p.SMSGCreditSlots = 0
	case data[0]&8 != 0:
		p.SMSGCreditSlots = 2
	}
	data = data[1:]
	if len(data) > 3*512 {
		data = data[:3*512]
	}
	eng := sim.NewEngine()
	g := New(gemini.NewNetwork(eng, nodes, p))
	npes := g.Net.NumPEs()
	for pe := range npes {
		cq := g.CqCreateIdx("rx", pe, "")
		cq.OnEventIdx = func(int, Event) {}
		g.AttachSmsgCQ(pe, cq)
	}
	ref := endpointRef{recs: make(map[[2]int]*smsgConn), mailbox: make(map[[2]int]bool)}
	send := func(src, dst int) {
		_, rc, err := g.SmsgSendWTag(src, dst, 0, 8, nil, eng.Now(), nil)
		if err != nil || (rc != RCSuccess && rc != RCNotDone) {
			t.Fatalf("send %d→%d: rc %v, err %v", src, dst, rc, err)
		}
		if g.eps[src].find(dst) == nil {
			t.Fatalf("send %d→%d left no endpoint", src, dst)
		}
		ref.mailbox[[2]int{min(src, dst), max(src, dst)}] = true
	}
	squeezed := make(map[[2]int]bool)
	for len(data) >= 3 {
		kind, a, b := data[0]%numEndpointOps, int(data[1]), int(data[2])
		data = data[3:]
		switch kind {
		case epOpSend:
			send(a%npes, b%npes)
		case epOpFanOut:
			src := a % npes
			for i := range b % 32 {
				send(src, (src+1+i)%npes)
			}
		case epOpSqueeze:
			src, dst := a%npes, b%npes
			from := eng.Now() + 1
			g.SqueezeCredits(src, dst, a&1, from, from+1+sim.Time(b%64))
			squeezed[[2]int{src, dst}] = true
		case epOpRunFor:
			eng.RunFor(sim.Time(b) << (b % 8))
		case epOpDrain:
			eng.Run()
		}
		ref.check(t, g)
	}
	eng.Run()
	for pair := range squeezed {
		if g.eps == nil || g.eps[pair[0]].find(pair[1]) == nil {
			t.Fatalf("squeeze of %d→%d created no endpoint", pair[0], pair[1])
		}
	}
	ref.check(t, g)
	for pair := range ref.recs {
		if _, rc, err := g.SmsgSendWTag(pair[0], pair[1], 0, 8, nil, eng.Now(), nil); err != nil || rc != RCSuccess {
			t.Fatalf("send %d→%d after drain: rc %v, err %v, want RC_SUCCESS", pair[0], pair[1], rc, err)
		}
	}
	eng.Run()
	if g.CreditsInFlight() != 0 || g.CreditsConsumed() != g.CreditReturns() {
		t.Fatalf("credits after drain: consumed %d, returned %d, in flight %d",
			g.CreditsConsumed(), g.CreditReturns(), g.CreditsInFlight())
	}
}

// check compares g's endpoint tables with the reference, adopting any
// record g created since the last check.
func (r *endpointRef) check(t *testing.T, g *GNI) {
	t.Helper()
	live := 0
	for src := range g.eps {
		tb := &g.eps[src]
		if len(tb.slots)&(len(tb.slots)-1) != 0 || 4*int(tb.n) > 3*len(tb.slots) {
			t.Fatalf("PE %d table: %d peers in %d slots", src, tb.n, len(tb.slots))
		}
		for _, c := range tb.slots {
			if c == nil {
				continue
			}
			live++
			key := [2]int{src, int(c.peer)}
			if prev, ok := r.recs[key]; ok && prev != c {
				t.Fatalf("%d→%d: record moved", src, c.peer)
			} else if !ok {
				r.recs[key] = c
			}
			if tb.find(int(c.peer)) != c {
				t.Fatalf("%d→%d: bound but not found", src, c.peer)
			}
		}
	}
	if live != len(r.recs) {
		t.Fatalf("tables bind %d pairs, reference holds %d", live, len(r.recs))
	}
	if got, want := g.MailboxBytes(), 2*int64(g.Net.P.SMSGMailboxBytes())*int64(len(r.mailbox)); got != want {
		t.Fatalf("MailboxBytes = %d, want %d (%d mailbox pairs)", got, want, len(r.mailbox))
	}
	if got := int64(g.CreditsConsumed()) - int64(g.CreditReturns()); got != g.CreditsInFlight() {
		t.Fatalf("credits: consumed %d - returned %d != in flight %d",
			g.CreditsConsumed(), g.CreditReturns(), g.CreditsInFlight())
	}
}
