package ugni

import (
	"testing"

	"charmgo/internal/gemini"
	"charmgo/internal/sim"
)

// newGNIParams is newGNI with a Params override, for tests that shrink the
// CQ depth or the credit window.
func newGNIParams(nodes int, p gemini.Params) (*GNI, *sim.Engine) {
	eng := sim.NewEngine()
	net := gemini.NewNetwork(eng, nodes, p)
	return New(net), eng
}

// TestSmsgCreditWindowNotDone pins the finite mailbox window: the
// SMSGCreditSlots-th+1 concurrent send on one connection is refused with
// RC_NOT_DONE, and a receive-side dequeue reopens the window once the
// credit's control packet flies back to the sender's NIC (internode
// credits land one ControlLatency after the dequeue; see smsgConsumed).
func TestSmsgCreditWindowNotDone(t *testing.T) {
	g, eng := newGNI(4)
	rx := g.CqCreate("rx")
	dst := 24
	g.AttachSmsgCQ(dst, rx)
	slots := g.Net.P.SMSGCreditSlots
	for i := 0; i < slots; i++ {
		_, rc, err := g.SmsgSendWTag(0, dst, uint8(i), 64, nil, 0, nil)
		if err != nil || rc != RCSuccess {
			t.Fatalf("send %d: rc=%v err=%v", i, rc, err)
		}
	}
	if _, rc, err := g.SmsgSendWTag(0, dst, 99, 64, nil, 0, nil); err != nil || rc != RCNotDone {
		t.Fatalf("overflow send: rc=%v err=%v, want RC_NOT_DONE", rc, err)
	}
	if g.SmsgNotDone() != 1 {
		t.Fatalf("SmsgNotDone = %d, want 1", g.SmsgNotDone())
	}
	if got := g.CreditsInFlight(); got != int64(slots) {
		t.Fatalf("CreditsInFlight = %d, want %d", got, slots)
	}
	eng.Run()
	// Polled mode: GetEvent is the receive-side dequeue that launches the
	// credit's control packet back to the sender.
	if _, ok := rx.GetEvent(); !ok {
		t.Fatal("no event delivered")
	}
	if _, rc, err := g.SmsgSendWTag(0, dst, 100, 64, nil, eng.Now(), nil); err != nil || rc != RCNotDone {
		t.Fatalf("instant post-dequeue send: rc=%v err=%v, want RC_NOT_DONE (credit still in flight)", rc, err)
	}
	eng.Run() // fly the credit return home
	if _, rc, err := g.SmsgSendWTag(0, dst, 100, 64, nil, eng.Now(), nil); err != nil || rc != RCSuccess {
		t.Fatalf("post-flight send: rc=%v err=%v, want RC_SUCCESS", rc, err)
	}
	for {
		if _, ok := rx.GetEvent(); !ok {
			break
		}
	}
	eng.Run()
	for {
		if _, ok := rx.GetEvent(); !ok {
			break
		}
	}
	eng.Run() // fly the last dequeue's credit return
	if got := g.CreditsInFlight(); got != 0 {
		t.Fatalf("CreditsInFlight after drain = %d, want 0", got)
	}
}

// TestSmsgCreditReturnNotification pins the recovery signal: a sender that
// saw RC_NOT_DONE gets exactly one EvCreditReturn on its own receive CQ
// when the window reopens, and the notification itself consumes no credit.
func TestSmsgCreditReturnNotification(t *testing.T) {
	g, eng := newGNI(4)
	src, dst := 0, 24
	srcCQ, dstCQ := g.CqCreate("src-rx"), g.CqCreate("dst-rx")
	delivered := 0
	dstCQ.OnEvent = func(ev Event) { delivered++ }
	g.AttachSmsgCQ(src, srcCQ)
	g.AttachSmsgCQ(dst, dstCQ)
	slots := g.Net.P.SMSGCreditSlots
	for i := 0; i < slots; i++ {
		if _, rc, _ := g.SmsgSendWTag(src, dst, 0, 64, nil, 0, nil); rc != RCSuccess {
			t.Fatalf("send %d: rc=%v", i, rc)
		}
	}
	if _, rc, _ := g.SmsgSendWTag(src, dst, 0, 64, nil, 0, nil); rc != RCNotDone {
		t.Fatalf("overflow rc=%v, want RC_NOT_DONE", rc)
	}
	eng.Run()
	if delivered != slots {
		t.Fatalf("delivered %d, want %d", delivered, slots)
	}
	ev, ok := srcCQ.GetEvent()
	if !ok || ev.Type != EvCreditReturn {
		t.Fatalf("sender event = %+v ok=%v, want CREDIT_RETURN", ev, ok)
	}
	if ev.Src != src || ev.Dst != dst {
		t.Fatalf("notification names connection %d->%d, want %d->%d", ev.Src, ev.Dst, src, dst)
	}
	if _, ok := srcCQ.GetEvent(); ok {
		t.Fatal("more than one CREDIT_RETURN per starvation episode")
	}
	if got := g.CreditsInFlight(); got != 0 {
		t.Fatalf("CreditsInFlight = %d, want 0 (notification must not consume a credit)", got)
	}
}

// TestSqueezeCredits pins the injector hook: inside the squeeze window the
// connection refuses sends, after it the configured window is back.
func TestSqueezeCredits(t *testing.T) {
	g, eng := newGNI(4)
	src, dst := 0, 24
	dstCQ := g.CqCreate("dst-rx")
	dstCQ.OnEvent = func(Event) {}
	g.AttachSmsgCQ(dst, dstCQ)
	const from, until = 1000, 2000
	g.SqueezeCredits(src, dst, 0, from, until)
	var inWindow, after RC
	eng.At(from+1, func() {
		_, inWindow, _ = g.SmsgSendWTag(src, dst, 0, 64, nil, from+1, nil)
	})
	eng.At(until+1, func() {
		_, after, _ = g.SmsgSendWTag(src, dst, 0, 64, nil, until+1, nil)
	})
	eng.Run()
	if inWindow != RCNotDone {
		t.Fatalf("rc inside squeeze = %v, want RC_NOT_DONE", inWindow)
	}
	if after != RCSuccess {
		t.Fatalf("rc after squeeze = %v, want RC_SUCCESS", after)
	}
}

// TestSqueezeCreditsUnboundedWindow pins the restore edge when credits
// are disabled by configuration (SMSGCreditSlots = 0): the squeeze ends
// by reopening the pair's unbounded window, not by writing the raw slot
// count, which would leave the pair refused forever.
func TestSqueezeCreditsUnboundedWindow(t *testing.T) {
	p := gemini.DefaultParams()
	p.SMSGCreditSlots = 0
	g, eng := newGNIParams(4, p)
	src, dst := 0, 24
	dstCQ := g.CqCreate("dst-rx")
	dstCQ.OnEvent = func(Event) {}
	g.AttachSmsgCQ(dst, dstCQ)
	const from, until = 1000, 2000
	g.SqueezeCredits(src, dst, 0, from, until)
	var inWindow, after RC
	eng.At(from+1, func() {
		_, inWindow, _ = g.SmsgSendWTag(src, dst, 0, 64, nil, from+1, nil)
	})
	eng.At(until+1, func() {
		_, after, _ = g.SmsgSendWTag(src, dst, 0, 64, nil, until+1, nil)
	})
	eng.Run()
	if inWindow != RCNotDone {
		t.Fatalf("rc inside squeeze = %v, want RC_NOT_DONE", inWindow)
	}
	if after != RCSuccess {
		t.Fatalf("rc after squeeze with credits disabled = %v, want RC_SUCCESS", after)
	}
}

// TestCqBackPressureOverrunRecover pins the finite-CQ path: deliveries
// inside a suspension window defer; past the depth the queue overruns; at
// resume OnError fires, recovery clears the flag, and every deferred event
// flushes in FIFO order at the resume instant — stalled, never lost.
func TestCqBackPressureOverrunRecover(t *testing.T) {
	p := gemini.DefaultParams()
	p.CQDepth = 2
	g, eng := newGNIParams(4, p)
	src, dst := 0, 24
	dstCQ := g.CqCreate("dst-rx")
	var got []Event
	dstCQ.OnEvent = func(ev Event) { got = append(got, ev) }
	errIdx := -1
	dstCQ.OnError = func(idx int) {
		errIdx = idx
		dstCQ.ErrorRecover()
	}
	g.AttachSmsgCQ(dst, dstCQ)
	const until = sim.Time(1_000_000)
	g.SuspendSmsgCQ(dst, 0, until)
	for i := 0; i < 4; i++ {
		if _, rc, _ := g.SmsgSendWTag(src, dst, uint8(i), 64, nil, 0, nil); rc != RCSuccess {
			t.Fatalf("send %d: rc=%v", i, rc)
		}
	}
	eng.Run()
	if errIdx != 0 {
		t.Fatalf("OnError idx = %d, want 0 (fired once at resume)", errIdx)
	}
	if dstCQ.Overruns() != 1 || g.CqOverruns() != 1 {
		t.Fatalf("overruns = %d/%d, want 1/1", dstCQ.Overruns(), g.CqOverruns())
	}
	if dstCQ.Overrun() {
		t.Fatal("overrun flag still set after ErrorRecover")
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d events, want all 4 retained", len(got))
	}
	for i, ev := range got {
		if ev.Tag != uint8(i) {
			t.Fatalf("event %d has tag %d: FIFO order broken across suspension", i, ev.Tag)
		}
		if ev.At < until {
			t.Fatalf("event %d visible at %d, before resume at %d", i, ev.At, until)
		}
	}
	if got := g.CreditsInFlight(); got != 0 {
		t.Fatalf("CreditsInFlight = %d, want 0 after flush", got)
	}
}

// TestArmTxError pins the transaction-error path: an armed post completes
// with EvError carrying the descriptor (no data moved), and the re-post
// succeeds.
func TestArmTxError(t *testing.T) {
	g, eng := newGNI(4)
	local := g.CqCreate("local")
	g.ArmTxError(0, 1, 0)
	d := g.NewPostDesc()
	d.Kind = PostPut
	d.Initiator, d.Remote = 0, 24
	d.Size = 4096
	d.LocalCQ = local
	eng.At(10, func() { g.PostFma(d, 10) })
	eng.Run()
	ev, ok := local.GetEvent()
	if !ok || ev.Type != EvError {
		t.Fatalf("event = %+v ok=%v, want ERROR", ev, ok)
	}
	if ev.Desc != d || d.Attempts != 1 {
		t.Fatalf("error event desc=%p attempts=%d, want the posted desc with 1 attempt", ev.Desc, d.Attempts)
	}
	if g.TxErrors() != 1 {
		t.Fatalf("TxErrors = %d, want 1", g.TxErrors())
	}
	// Bounded retry: the arm is spent, so the re-post moves data.
	g.PostFma(d, ev.At)
	eng.Run()
	ev, ok = local.GetEvent()
	if !ok || ev.Type != EvRdmaLocal {
		t.Fatalf("retry event = %+v ok=%v, want RDMA_LOCAL", ev, ok)
	}
	g.ReleasePostDesc(d)
}
