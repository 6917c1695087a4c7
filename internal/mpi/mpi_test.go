package mpi

import (
	"testing"

	"charmgo/internal/gemini"
	"charmgo/internal/sim"
	"charmgo/internal/ugni"
)

// testHost is a minimal mpi.Host for library tests.
type testHost struct {
	eng  *sim.Engine
	cpus []*sim.PEResource
}

func (h *testHost) Eng() *sim.Engine             { return h.eng }
func (h *testHost) CPU(rank int) *sim.PEResource { return h.cpus[rank] }

func newComm(t *testing.T, nodes int) (*Comm, *testHost) {
	t.Helper()
	eng := sim.NewEngine()
	net := gemini.NewNetwork(eng, nodes, gemini.DefaultParams())
	g := ugni.New(net)
	h := &testHost{eng: eng}
	for i := 0; i < net.NumPEs(); i++ {
		h.cpus = append(h.cpus, sim.NewPEResource(sim.Indexed("cpu", i, "")))
	}
	return New(g, h, DefaultConfig()), h
}

// checkCreditsDrained witnesses SMSG credit conservation on the
// communicator's GNI after a drained run: nothing is left in flight and
// every credit the eager path consumed came back.
func checkCreditsDrained(t *testing.T, c *Comm) {
	t.Helper()
	consumed, returned, inflight := c.gni.CreditsConsumed(), c.gni.CreditReturns(), c.gni.CreditsInFlight()
	if inflight != 0 || consumed == 0 || consumed != returned {
		t.Fatalf("credits after drain: consumed %d, returned %d, in flight %d", consumed, returned, inflight)
	}
}

func TestEagerSmallDelivery(t *testing.T) {
	c, h := newComm(t, 4)
	dst := 24
	var got *Envelope
	c.OnArrival(dst, func(env *Envelope) { got = env })
	cpu := c.Isend(0, dst, 256, "payload", 0, 0)
	if cpu <= 0 {
		t.Fatal("Isend returned no CPU cost")
	}
	h.eng.Run()
	if got == nil {
		t.Fatal("message never arrived")
	}
	if got.Rendezvous {
		t.Fatal("256B message used rendezvous")
	}
	if got.Payload != "payload" || got.Src != 0 || got.Size != 256 {
		t.Fatalf("bad envelope: %+v", got)
	}
	done := c.Recv(got, 0, got.ArrivedAt)
	if done <= got.ArrivedAt {
		t.Fatal("Recv completed instantaneously")
	}
}

func TestEagerLargeUsesPut(t *testing.T) {
	// Between SMSG max and the eager threshold the message still arrives
	// eagerly (no RTS) via the FMA landing zone.
	c, h := newComm(t, 4)
	dst := 24
	var got *Envelope
	c.OnArrival(dst, func(env *Envelope) { got = env })
	c.Isend(0, dst, 4096, nil, 0, 0)
	h.eng.Run()
	if got == nil || got.Rendezvous {
		t.Fatalf("4KB message: env=%+v, want eager arrival", got)
	}
}

func TestRendezvousAboveThreshold(t *testing.T) {
	c, h := newComm(t, 4)
	dst := 24
	var got *Envelope
	c.OnArrival(dst, func(env *Envelope) { got = env })
	c.Isend(0, dst, 64<<10, nil, BufID(1), 0)
	h.eng.Run()
	if got == nil || !got.Rendezvous {
		t.Fatalf("64KB message: env=%+v, want rendezvous RTS", got)
	}
	// The RTS arrives long before the data could: only control bytes moved.
	if got.ArrivedAt > 10*sim.Microsecond {
		t.Fatalf("RTS took %v, too slow for a control message", got.ArrivedAt)
	}
}

func TestRendezvousRecvBlocksCPU(t *testing.T) {
	c, h := newComm(t, 4)
	dst := 24
	var env *Envelope
	c.OnArrival(dst, func(e *Envelope) { env = e })
	// Registering the 1MB send buffer alone takes ~67us before the RTS
	// goes out; run well past that but not long enough for any data path.
	c.Isend(0, dst, 1<<20, nil, BufID(1), 0)
	h.eng.RunUntil(200 * sim.Microsecond)
	if env == nil {
		t.Fatal("no RTS yet")
	}
	at := env.ArrivedAt
	done := c.Recv(env, BufID(2), at)
	transfer := sim.DurationOf(1<<20, gemini.DefaultParams().BTEBW)
	if done-at < transfer {
		t.Fatalf("blocking Recv of 1MB returned after %v, transfer alone is %v", done-at, transfer)
	}
	if h.cpus[dst].FreeAt() < done {
		t.Fatalf("receiver CPU free at %v, before Recv completion %v — Recv did not block", h.cpus[dst].FreeAt(), done)
	}
}

func TestUDregCacheHitSkipsRegistration(t *testing.T) {
	c, h := newComm(t, 4)
	dst := 24
	var envs []*Envelope
	c.OnArrival(dst, func(e *Envelope) { envs = append(envs, e) })
	sameBuf := BufID(7)
	cpu1 := c.Isend(0, dst, 64<<10, nil, sameBuf, 0)
	h.eng.Run()
	cpu2 := c.Isend(0, dst, 64<<10, nil, sameBuf, h.eng.Now())
	h.eng.Run()
	if cpu2 >= cpu1 {
		t.Fatalf("second send with same buffer (%v) not cheaper than first (%v)", cpu2, cpu1)
	}
	cpu3 := c.Isend(0, dst, 64<<10, nil, BufID(8), h.eng.Now())
	h.eng.Run()
	if cpu3 <= cpu2 {
		t.Fatalf("different-buffer send (%v) not costlier than cached (%v)", cpu3, cpu2)
	}
	if c.Stats()["udreg_hits"] != 1 {
		t.Fatalf("udreg_hits = %d, want 1", c.Stats()["udreg_hits"])
	}
}

func TestIntraNodeDelivery(t *testing.T) {
	c, h := newComm(t, 2)
	var got *Envelope
	c.OnArrival(1, func(e *Envelope) { got = e })
	c.Isend(0, 1, 1024, "x", 0, 0)
	h.eng.Run()
	if got == nil || !got.intra {
		t.Fatalf("intra-node envelope: %+v", got)
	}
	if got.ArrivedAt > 5*sim.Microsecond {
		t.Fatalf("intra-node 1KB took %v", got.ArrivedAt)
	}
	done := c.Recv(got, 0, got.ArrivedAt)
	if done <= got.ArrivedAt {
		t.Fatal("intra Recv free")
	}
}

func TestIntraNodeXpmemCheaperThanDoubleCopyWouldBe(t *testing.T) {
	// For a large message, the total intra-node cost (send+recv CPU) must
	// reflect a single data copy, not two.
	c, h := newComm(t, 2)
	var got *Envelope
	c.OnArrival(1, func(e *Envelope) { got = e })
	size := 512 << 10
	sendCPU := c.Isend(0, 1, size, nil, 0, 0)
	h.eng.Run()
	done := c.Recv(got, 0, got.ArrivedAt)
	recvCPU := done - got.ArrivedAt
	oneCopy := c.gni.Net.P.Mem.Memcpy(size)
	if total := sendCPU + recvCPU; total > oneCopy+oneCopy/2 {
		t.Fatalf("large intra-node total CPU %v suggests double copy (one copy = %v)", total, oneCopy)
	}
}

func TestIprobeSeesQueuedMessage(t *testing.T) {
	c, h := newComm(t, 4)
	if _, ok := c.Iprobe(24); ok {
		t.Fatal("Iprobe found a message on an empty queue")
	}
	c.Isend(0, 24, 64, nil, 0, 0)
	h.eng.Run()
	env, ok := c.Iprobe(24)
	if !ok || env.Size != 64 {
		t.Fatalf("Iprobe = %+v, %v", env, ok)
	}
	// Still queued until Recv.
	if _, ok := c.Iprobe(24); !ok {
		t.Fatal("Iprobe dequeued the message")
	}
	c.Recv(env, 0, env.ArrivedAt)
	if _, ok := c.Iprobe(24); ok {
		t.Fatal("message still probe-visible after Recv")
	}
}

func TestRecvUnknownEnvelopePanics(t *testing.T) {
	c, _ := newComm(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Recv of unqueued envelope did not panic")
		}
	}()
	c.Recv(&Envelope{Src: 0, Dst: 1}, 0, 0)
}

func TestOrderingPreservedPerPair(t *testing.T) {
	// MPI guarantees in-order delivery; eager messages on one pair must be
	// probe-visible in send order.
	c, h := newComm(t, 4)
	var order []int
	c.OnArrival(24, func(e *Envelope) { order = append(order, e.Payload.(int)) })
	at := sim.Time(0)
	for i := 0; i < 5; i++ {
		cpu := c.Isend(0, 24, 512, i, 0, at)
		at += cpu
	}
	h.eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("arrival order %v, want sequential", order)
		}
	}
	checkCreditsDrained(t, c)
}

func TestPureMPIPingPongCalibration(t *testing.T) {
	// 8B one-way latency over MPI should land near the paper's ~2us
	// (Figure 1: MPI sits between uGNI's 1.2us and charm/mpi's ~3.5us).
	c, h := newComm(t, 16)
	const iters = 50
	count := 0
	var done sim.Time
	c.OnArrival(24, func(env *Envelope) {
		end := c.Recv(env, 0, env.ArrivedAt+c.ProbeCost())
		c.Isend(24, 0, 8, nil, 0, end)
	})
	c.OnArrival(0, func(env *Envelope) {
		end := c.Recv(env, 0, env.ArrivedAt+c.ProbeCost())
		count++
		if count == iters {
			done = end
			return
		}
		c.Isend(0, 24, 8, nil, 0, end)
	})
	c.Isend(0, 24, 8, nil, 0, 0)
	h.eng.Run()
	checkCreditsDrained(t, c)
	oneWay := done / (2 * iters)
	if oneWay < 1300*sim.Nanosecond || oneWay > 3000*sim.Nanosecond {
		t.Fatalf("pure MPI 8B one-way = %v, want ~2us (1.3-3.0)", oneWay)
	}
	// And it must be worse than pure uGNI's ~1.2us by a visible margin.
	if oneWay < 1400*sim.Nanosecond {
		t.Fatalf("MPI one-way %v suspiciously close to raw uGNI", oneWay)
	}
}
