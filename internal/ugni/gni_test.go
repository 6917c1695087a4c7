package ugni

import (
	"errors"
	"testing"

	"charmgo/internal/gemini"
	"charmgo/internal/sim"
)

func newGNI(nodes int) (*GNI, *sim.Engine) {
	eng := sim.NewEngine()
	net := gemini.NewNetwork(eng, nodes, gemini.DefaultParams())
	return New(net), eng
}

func TestSmsgDelivery(t *testing.T) {
	g, eng := newGNI(4)
	rx := g.CqCreate("rx")
	dst := 24 // first core of node 1
	g.AttachSmsgCQ(dst, rx)
	cpu, rc, err := g.SmsgSendWTag(0, dst, 7, 64, "hello", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc != RCSuccess {
		t.Fatalf("rc = %v, want RC_SUCCESS", rc)
	}
	if cpu <= 0 {
		t.Fatal("send returned no CPU cost")
	}
	eng.Run()
	ev, ok := rx.GetEvent()
	if !ok {
		t.Fatal("no SMSG event delivered")
	}
	if ev.Type != EvSmsg || ev.Src != 0 || ev.Dst != dst || ev.Tag != 7 || ev.Payload != "hello" {
		t.Fatalf("bad event: %+v", ev)
	}
	if ev.At <= 0 {
		t.Fatal("event has no latency")
	}
	if _, ok := rx.GetEvent(); ok {
		t.Fatal("spurious second event")
	}
}

// TestGetEventClearsDrainedSlots drains a polled CQ and requires every
// slot of its backing array to be zero afterwards: a stale copy of a
// popped Event would keep its Payload, Desc and credit reachable.
func TestGetEventClearsDrainedSlots(t *testing.T) {
	g, eng := newGNI(4)
	rx := g.CqCreate("rx")
	dst := 24
	g.AttachSmsgCQ(dst, rx)
	for i := range 3 {
		if _, rc, err := g.SmsgSendWTag(0, dst, 1, 64, &i, 0, nil); err != nil || rc != RCSuccess {
			t.Fatalf("send %d: rc %v, err %v", i, rc, err)
		}
	}
	eng.Run()
	for n := 0; ; n++ {
		if _, ok := rx.GetEvent(); !ok {
			if n != 3 {
				t.Fatalf("drained %d events, want 3", n)
			}
			break
		}
	}
	for i, ev := range rx.q[:cap(rx.q)] {
		if ev != (Event{}) {
			t.Fatalf("slot %d of the drained queue still holds %+v", i, ev)
		}
	}
}

func TestSmsgRejectsOversize(t *testing.T) {
	g, _ := newGNI(4)
	rx := g.CqCreate("rx")
	g.AttachSmsgCQ(24, rx)
	_, _, err := g.SmsgSendWTag(0, 24, 0, g.MaxSmsgSize()+1, nil, 0, nil)
	if !errors.Is(err, ErrSmsgTooBig) {
		t.Fatalf("err = %v, want ErrSmsgTooBig", err)
	}
}

func TestSmsgRequiresAttachedCQ(t *testing.T) {
	g, _ := newGNI(4)
	_, rc, err := g.SmsgSendWTag(0, 24, 0, 8, nil, 0, nil)
	if err == nil || rc != RCErrorResource {
		t.Fatalf("send to PE without rx CQ returned rc=%v err=%v, want RC_ERROR_RESOURCE", rc, err)
	}
	// A refused send must not bind an endpoint or account a mailbox.
	if b := g.MailboxBytes(); b != 0 {
		t.Fatalf("refused send accounted %d mailbox bytes, want 0", b)
	}
	if g.eps != nil && g.eps[0].find(24) != nil {
		t.Fatal("refused send bound an endpoint 0->24")
	}
}

func TestSmsgTxDoneEvent(t *testing.T) {
	g, eng := newGNI(4)
	rx, tx := g.CqCreate("rx"), g.CqCreate("tx")
	g.AttachSmsgCQ(24, rx)
	if _, _, err := g.SmsgSendWTag(0, 24, 1, 128, nil, 0, tx); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	ev, ok := tx.GetEvent()
	if !ok || ev.Type != EvTxDone {
		t.Fatalf("tx event = %+v ok=%v, want TX_DONE", ev, ok)
	}
	rev, _ := rx.GetEvent()
	if ev.At > rev.At {
		t.Fatalf("TX_DONE (%v) after delivery (%v)", ev.At, rev.At)
	}
}

func TestCQHookedModeConsumes(t *testing.T) {
	g, eng := newGNI(4)
	rx := g.CqCreate("rx")
	var got []Event
	rx.OnEvent = func(ev Event) { got = append(got, ev) }
	g.AttachSmsgCQ(24, rx)
	for i := 0; i < 3; i++ {
		if _, _, err := g.SmsgSendWTag(0, 24, uint8(i), 8, nil, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(got) != 3 {
		t.Fatalf("hook saw %d events, want 3", len(got))
	}
	if rx.Len() != 0 {
		t.Fatalf("hooked CQ queued %d events, want 0", rx.Len())
	}
	if rx.Delivered() != 3 {
		t.Fatalf("Delivered = %d, want 3", rx.Delivered())
	}
}

func TestCQFIFOOrder(t *testing.T) {
	g, eng := newGNI(4)
	rx := g.CqCreate("rx")
	g.AttachSmsgCQ(24, rx)
	for i := 0; i < 5; i++ {
		if _, _, err := g.SmsgSendWTag(0, 24, uint8(i), 256, nil, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i := 0; i < 5; i++ {
		ev, ok := rx.GetEvent()
		if !ok || ev.Tag != uint8(i) {
			t.Fatalf("event %d = %+v (ok=%v), want tag %d", i, ev, ok, i)
		}
	}
}

func TestPostFmaPutEvents(t *testing.T) {
	g, eng := newGNI(4)
	lcq, rcq := g.CqCreate("local"), g.CqCreate("remote")
	d := &PostDesc{
		Kind: PostPut, Initiator: 0, Remote: 24, Size: 4096,
		Payload: "data", Tag: 3, LocalCQ: lcq, RemoteCQ: rcq,
	}
	cpu := g.PostFma(d, 0)
	if cpu <= 0 {
		t.Fatal("post returned no CPU cost")
	}
	eng.Run()
	lev, ok := lcq.GetEvent()
	if !ok || lev.Type != EvRdmaLocal || lev.Desc != d {
		t.Fatalf("local event = %+v ok=%v", lev, ok)
	}
	rev, ok := rcq.GetEvent()
	if !ok || rev.Type != EvRdmaRemote || rev.Payload != "data" {
		t.Fatalf("remote event = %+v ok=%v", rev, ok)
	}
	if lev.At > rev.At {
		t.Fatalf("PUT local completion (%v) after remote arrival (%v)", lev.At, rev.At)
	}
}

func TestPostRdmaGetLocalCompletionIsArrival(t *testing.T) {
	g, eng := newGNI(4)
	lcq := g.CqCreate("local")
	d := &PostDesc{Kind: PostGet, Initiator: 0, Remote: 24, Size: 64 << 10, LocalCQ: lcq}
	g.PostRdma(d, 0)
	eng.Run()
	lev, ok := lcq.GetEvent()
	if !ok || lev.Type != EvRdmaLocal {
		t.Fatal("no local GET completion")
	}
	// A GET's local completion includes round-trip + serialization; compare
	// with a PUT of the same size.
	g2, eng2 := newGNI(4)
	l2 := g2.CqCreate("l2")
	g2.PostRdma(&PostDesc{Kind: PostPut, Initiator: 0, Remote: 24, Size: 64 << 10, LocalCQ: l2}, 0)
	eng2.Run()
	pev, _ := l2.GetEvent()
	if lev.At <= pev.At {
		t.Fatalf("GET local completion (%v) should exceed PUT source-done (%v)", lev.At, pev.At)
	}
}

func TestMemRegisterTracksBytes(t *testing.T) {
	g, _ := newGNI(2)
	h, cost := g.MemRegister(0, 1<<20)
	if cost <= 0 {
		t.Fatal("register cost zero")
	}
	if g.RegisteredBytes() != 1<<20 || g.Registrations() != 1 {
		t.Fatal("registration counters wrong")
	}
	if dcost := g.MemDeregister(h); dcost <= 0 {
		t.Fatal("deregister cost zero")
	}
	if g.RegisteredBytes() != 0 {
		t.Fatalf("RegisteredBytes = %d after deregister", g.RegisteredBytes())
	}
}

// TestMailboxMemoryGrowsPerConnection pins the mailbox accounting: the
// first send in either direction of a PE pair allocates both endpoints'
// rings, and nothing else does — not a resend, not a reply, and not a
// SqueezeCredits that created the pair's record before any send.
func TestMailboxMemoryGrowsPerConnection(t *testing.T) {
	type step struct {
		squeeze  bool // SqueezeCredits on src→dst instead of a send
		src, dst int
		grow     int64 // mailbox pairs the step must add
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"fan-out then resend", []step{
			{src: 0, dst: 24, grow: 1}, {src: 0, dst: 25, grow: 1},
			{src: 0, dst: 26, grow: 1}, {src: 0, dst: 27, grow: 1},
			{src: 0, dst: 24}, {src: 0, dst: 25}, {src: 0, dst: 26}, {src: 0, dst: 27},
		}},
		{"reply on an existing pair", []step{
			{src: 0, dst: 24, grow: 1}, {src: 24, dst: 0}, {src: 24, dst: 0}, {src: 0, dst: 24},
		}},
		{"intra-node reply", []step{
			{src: 0, dst: 1, grow: 1}, {src: 1, dst: 0},
		}},
		{"squeeze then forward send", []step{
			{squeeze: true, src: 0, dst: 24}, {src: 0, dst: 24, grow: 1}, {src: 24, dst: 0},
		}},
		{"squeeze then reverse send", []step{
			{squeeze: true, src: 0, dst: 24}, {src: 24, dst: 0, grow: 1}, {src: 0, dst: 24},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, eng := newGNI(4)
			rx := g.CqCreate("rx")
			for _, pe := range []int{0, 1, 24, 25, 26, 27} {
				g.AttachSmsgCQ(pe, rx)
			}
			pair := 2 * int64(g.Net.P.SMSGMailboxBytes())
			if pair <= 0 {
				t.Fatal("no mailbox memory per connection")
			}
			for i, s := range tc.steps {
				before := g.MailboxBytes()
				if s.squeeze {
					from := eng.Now() + 1
					g.SqueezeCredits(s.src, s.dst, 0, from, from+1)
					eng.Run()
					if len(g.eps) <= s.src || g.eps[s.src].find(s.dst) == nil {
						t.Fatalf("step %d: squeeze created no record for %d→%d", i, s.src, s.dst)
					}
				} else if _, rc, err := g.SmsgSendWTag(s.src, s.dst, 0, 8, nil, eng.Now(), nil); err != nil || rc != RCSuccess {
					t.Fatalf("step %d: send %d→%d: rc %v, err %v", i, s.src, s.dst, rc, err)
				}
				eng.Run()
				if got := g.MailboxBytes() - before; got != s.grow*pair {
					t.Fatalf("step %d (%d→%d): MailboxBytes grew by %d, want %d", i, s.src, s.dst, got, s.grow*pair)
				}
			}
		})
	}
	// The mailbox ring is the credit window: slots × slot size per
	// endpoint, two endpoints per connection.
	g, _ := newGNI(4)
	if int64(g.Net.P.SMSGMailboxBytes()) != int64(g.Net.P.SMSGCreditSlots*g.Net.P.SMSGSlotBytes) {
		t.Fatal("SMSGMailboxBytes() disagrees with slots x slot size")
	}
}

// TestSmsgEndpointFanOut sends from one PE to 40 peers on three nodes,
// past its endpoint table's first growths, twice over: each peer keeps
// one record through every growth, the resends connect nothing new, and
// once the engine drains every credit consumed has come back.
func TestSmsgEndpointFanOut(t *testing.T) {
	g, eng := newGNI(4)
	rx := g.CqCreate("rx")
	rx.OnEvent = func(Event) {}
	const src, fan = 0, 40
	peers := make([]int, fan)
	for i := range peers {
		peers[i] = 1 + 2*i // odd ranks 1..79: node 0 and all three others
		g.AttachSmsgCQ(peers[i], rx)
	}
	recs := make(map[int]*smsgConn)
	for round := 0; round < 2; round++ {
		for _, dst := range peers {
			if _, rc, err := g.SmsgSendWTag(src, dst, 0, 8, nil, eng.Now(), nil); err != nil || rc != RCSuccess {
				t.Fatalf("round %d: send %d→%d: rc %v, err %v", round, src, dst, rc, err)
			}
			c := g.eps[src].find(dst)
			if c == nil {
				t.Fatalf("round %d: no endpoint for %d→%d after a send", round, src, dst)
			}
			if prev, ok := recs[dst]; ok && prev != c {
				t.Fatalf("round %d: %d→%d record moved", round, src, dst)
			}
			recs[dst] = c
		}
		for dst, c := range recs {
			if g.eps[src].find(dst) != c {
				t.Fatalf("round %d: %d→%d record lost after growth", round, src, dst)
			}
		}
	}
	if got := int(g.eps[src].n); got != fan {
		t.Fatalf("endpoint table holds %d peers, want %d", got, fan)
	}
	if got, want := g.MailboxBytes(), fan*2*int64(g.Net.P.SMSGMailboxBytes()); got != want {
		t.Fatalf("MailboxBytes = %d, want %d (one pair per peer)", got, want)
	}
	eng.Run()
	if g.CreditsConsumed() != 2*fan || g.CreditsConsumed() != g.CreditReturns() || g.CreditsInFlight() != 0 {
		t.Fatalf("credits after drain: consumed %d, returned %d, in flight %d",
			g.CreditsConsumed(), g.CreditReturns(), g.CreditsInFlight())
	}
}

func TestIntraNodeSmsgWorks(t *testing.T) {
	g, eng := newGNI(2)
	rx := g.CqCreate("rx")
	g.AttachSmsgCQ(1, rx)
	if _, _, err := g.SmsgSendWTag(0, 1, 0, 64, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if _, ok := rx.GetEvent(); !ok {
		t.Fatal("intra-node SMSG not delivered")
	}
}

func TestEventAndKindStrings(t *testing.T) {
	if EvSmsg.String() != "SMSG" || EvRdmaRemote.String() != "RDMA_REMOTE" {
		t.Fatal("EventType strings wrong")
	}
	if EventType(42).String() != "event?" {
		t.Fatal("unknown EventType string")
	}
	if PostPut.String() != "PUT" || PostGet.String() != "GET" {
		t.Fatal("PostKind strings wrong")
	}
}

func TestPingPongLatencyCalibration(t *testing.T) {
	// Pure-uGNI 8B one-way latency (send CPU + wire + poll) should be near
	// the paper's 1.2us (Figure 9a).
	g, eng := newGNI(16)
	rx0, rx1 := g.CqCreate("rx0"), g.CqCreate("rx1")
	g.AttachSmsgCQ(0, rx0)
	g.AttachSmsgCQ(24, rx1)

	const iters = 100
	var done sim.Time
	count := 0
	rx1.OnEvent = func(ev Event) {
		at := ev.At + g.PollCost() + g.Net.P.HostSendCPU
		if _, _, err := g.SmsgSendWTag(24, 0, 0, 8, nil, at, nil); err != nil {
			t.Error(err)
		}
	}
	rx0.OnEvent = func(ev Event) {
		count++
		if count == iters {
			done = ev.At
			return
		}
		at := ev.At + g.PollCost() + g.Net.P.HostSendCPU
		if _, _, err := g.SmsgSendWTag(0, 24, 0, 8, nil, at, nil); err != nil {
			t.Error(err)
		}
	}
	if _, _, err := g.SmsgSendWTag(0, 24, 0, 8, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	oneWay := done / (2 * iters)
	if oneWay < 800*sim.Nanosecond || oneWay > 1800*sim.Nanosecond {
		t.Fatalf("pure uGNI 8B one-way = %v, want ~1.2us (0.8-1.8)", oneWay)
	}
}

func TestAMOFetchAddIsAtomicAndOrdered(t *testing.T) {
	g, eng := newGNI(4)
	cq := g.CqCreate("amo")
	var olds []int64
	cq.OnEvent = func(ev Event) {
		if ev.Type != EvAmoDone {
			t.Errorf("event type %v", ev.Type)
		}
		olds = append(olds, ev.AmoOld)
	}
	// Ten increments from different PEs on one register of node 3.
	target := 3 * 24
	for i := 0; i < 10; i++ {
		g.PostAMO(&AMODesc{
			Kind: AMOFetchAdd, Initiator: i, Remote: target, Addr: 7,
			Delta: 1, LocalCQ: cq,
		}, 0)
	}
	eng.Run()
	if got := g.AMORead(3, 7); got != 10 {
		t.Fatalf("register = %d, want 10", got)
	}
	// Every pre-value 0..9 observed exactly once (atomicity).
	seen := make(map[int64]bool)
	for _, v := range olds {
		if seen[v] {
			t.Fatalf("duplicate fetched value %d: %v", v, olds)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("fetched %d distinct values, want 10", len(seen))
	}
}

func TestAMOCompareSwap(t *testing.T) {
	g, eng := newGNI(2)
	cq := g.CqCreate("amo")
	var olds []int64
	cq.OnEvent = func(ev Event) { olds = append(olds, ev.AmoOld) }
	// First CAS(0 -> 5) succeeds; second CAS(0 -> 9) fails; register = 5.
	g.PostAMO(&AMODesc{Kind: AMOCompareSwap, Initiator: 0, Remote: 24, Addr: 1,
		Compare: 0, Delta: 5, LocalCQ: cq}, 0)
	g.PostAMO(&AMODesc{Kind: AMOCompareSwap, Initiator: 0, Remote: 24, Addr: 1,
		Compare: 0, Delta: 9, LocalCQ: cq}, 10*sim.Microsecond)
	eng.Run()
	if got := g.AMORead(1, 1); got != 5 {
		t.Fatalf("register = %d, want 5", got)
	}
	if len(olds) != 2 || olds[0] != 0 || olds[1] != 5 {
		t.Fatalf("fetched values %v, want [0 5]", olds)
	}
}

func TestAMORequiresLocalCQ(t *testing.T) {
	g, _ := newGNI(2)
	defer func() {
		if recover() == nil {
			t.Fatal("PostAMO without CQ did not panic")
		}
	}()
	g.PostAMO(&AMODesc{Kind: AMOFetchAdd, Initiator: 0, Remote: 1, Addr: 0, Delta: 1}, 0)
}

func TestAMORoundTripLatency(t *testing.T) {
	g, eng := newGNI(4)
	cq := g.CqCreate("amo")
	var at sim.Time
	cq.OnEvent = func(ev Event) { at = ev.At }
	g.PostAMO(&AMODesc{Kind: AMOFetchAdd, Initiator: 0, Remote: 24, Addr: 0, Delta: 1, LocalCQ: cq}, 0)
	eng.Run()
	// An AMO is a round trip: roughly 2x a small one-way.
	if at < sim.Microsecond || at > 4*sim.Microsecond {
		t.Fatalf("AMO completion at %v, want ~2us round trip", at)
	}
}

func TestMsgqDeliversWithHigherLatencyLowerMemory(t *testing.T) {
	// Paper II-B: MSGQ trades performance for per-node (not per-PE-pair)
	// queue memory.
	g, eng := newGNI(4)
	rx := g.CqCreate("rx")
	var smsgAt, msgqAt sim.Time
	seen := 0
	rx.OnEvent = func(ev Event) {
		seen++
		if seen == 1 {
			smsgAt = ev.At
		} else {
			msgqAt = ev.At
		}
	}
	g.AttachSmsgCQ(24, rx)
	if _, _, err := g.SmsgSendWTag(0, 24, 0, 256, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if _, _, err := g.MsgqSend(0, 24, 0, 256, nil, eng.Now()); err != nil {
		t.Fatal(err)
	}
	base := eng.Now()
	eng.Run()
	if msgqAt-base <= smsgAt {
		t.Fatalf("MSGQ latency %v not above SMSG %v", msgqAt-base, smsgAt)
	}

	// Memory: many PE pairs between two nodes -> one MSGQ connection.
	for pe := 24; pe < 34; pe++ {
		g.AttachSmsgCQ(pe, g.CqCreate("x"))
		if _, _, err := g.MsgqSend(pe-24, pe, 0, 8, nil, eng.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if g.MsgqBytes() != 2*int64(g.Net.P.MSGQBytesPerNode) {
		t.Fatalf("MsgqBytes = %d, want one node-pair worth (%d)",
			g.MsgqBytes(), 2*g.Net.P.MSGQBytesPerNode)
	}
}

func TestMsgqRejectsOversize(t *testing.T) {
	g, _ := newGNI(2)
	g.AttachSmsgCQ(24, g.CqCreate("rx"))
	if _, _, err := g.MsgqSend(0, 24, 0, g.MaxSmsgSize()+1, nil, 0); !errors.Is(err, ErrSmsgTooBig) {
		t.Fatalf("err = %v", err)
	}
}
