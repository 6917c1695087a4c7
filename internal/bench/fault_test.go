package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"charmgo"
	"charmgo/internal/fault"
	"charmgo/internal/gemini"
	"charmgo/internal/machine/ugnimachine"
	"charmgo/internal/mem"
	"charmgo/internal/sim"
	"charmgo/internal/stats"
)

// This file is the fault-model test matrix (ISSUE 5): scenario runs that
// drive the machine layer through every recovery path, a seeded property
// test over random fault schedules, and the determinism check that a
// faulted run replays bit-identically.

// faultWorkload drives a fixed all-pairs message exchange on a 2-node,
// 2-cores-per-node machine (4 PEs): rounds of small SMSG messages with a
// periodic large rendezvous message, paced with per-round compute so the
// traffic spans the fault windows. It returns the canonical rendering
// (final time + sorted layer counters + probe fault counts) and asserts
// the delivery invariant: every message exactly once.
type faultResult struct {
	render string
	layer  map[string]int64
	faults [sim.NumFaultKinds]uint64
}

const (
	faultPEs      = 4
	faultRounds   = 25
	faultSmallSz  = 256
	faultLargeSz  = 64 << 10
	faultPace     = 20 * sim.Microsecond
	faultHorizon  = sim.Time(faultRounds) * faultPace // fault windows land in here
	faultMsgCount = faultRounds * faultPEs * (faultPEs - 1)
)

// runFaultWorkload executes the workload under sched and returns the result plus every invariant violation (empty
// slice = invariants hold).
func runFaultWorkload(params *gemini.Params, ugniCfg *ugnimachine.Config, sched fault.Schedule) (faultResult, []string) {
	var violations []string
	ks := charmgo.NewKernelStats()
	m := charmgo.NewMachine(charmgo.MachineConfig{
		Nodes: 2, CoresPerNode: faultPEs / 2, Layer: charmgo.LayerUGNI,
		Params: params, UGNI: ugniCfg, Probe: ks, Faults: &sched,
	})

	// got[id] counts deliveries of message id; lastSeq[src<<8|dst] tracks
	// per-connection FIFO (checked only when the config forbids degrade,
	// which can legally reorder a small past queued peers).
	got := make(map[int]int)
	lastSeq := make(map[int]int)
	fifo := ugniCfg != nil && ugniCfg.DegradeThreshold == 0

	var recvH, roundH int
	recvH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		id := msg.Data.(int)
		got[id]++
		if fifo {
			conn := (msg.SrcPE << 8) | ctx.PE()
			seq := id
			if last, ok := lastSeq[conn]; ok && seq <= last {
				violations = append(violations,
					fmt.Sprintf("FIFO violation on %d->%d: id %d after %d", msg.SrcPE, ctx.PE(), seq, last))
			}
			lastSeq[conn] = seq
		}
	})
	seqs := make([]int, faultPEs)
	roundH = m.RegisterHandler(func(ctx *charmgo.Ctx, msg *charmgo.Message) {
		round := msg.Data.(int)
		pe := ctx.PE()
		for dst := 0; dst < faultPEs; dst++ {
			if dst == pe {
				continue
			}
			size := faultSmallSz
			if !fifo && round%5 == 4 {
				size = faultLargeSz // exercise the rendezvous + retry path
			}
			// id encodes (src, per-source sequence): unique per message and
			// monotone per connection.
			id := pe<<24 | seqs[pe]
			seqs[pe]++
			ctx.Send(dst, recvH, id, size)
		}
		if round+1 < faultRounds {
			ctx.Compute(faultPace)
			ctx.Send(pe, roundH, round+1, 16)
		}
	})
	for pe := 0; pe < faultPEs; pe++ {
		m.Inject(pe, roundH, 0, 16, 0)
	}
	end := m.Run()

	// Exactly-once: every id delivered, none twice. Pacing messages
	// (roundH self-sends) share ids with nothing.
	want := faultRounds * (faultPEs - 1)
	for pe := 0; pe < faultPEs; pe++ {
		if seqs[pe] != want {
			violations = append(violations, fmt.Sprintf("PE %d issued %d sends, want %d", pe, seqs[pe], want))
		}
	}
	if len(got) != faultMsgCount {
		violations = append(violations, fmt.Sprintf("delivered %d distinct messages, want %d", len(got), faultMsgCount))
	}
	dups := 0
	for _, n := range got {
		if n != 1 {
			dups++
		}
	}
	if dups > 0 {
		violations = append(violations, fmt.Sprintf("%d message ids delivered more than once", dups))
	}

	layer := m.Layer().Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "end=%v\n", end)
	for _, k := range stats.SortedKeys(layer) {
		fmt.Fprintf(&b, "layer %s = %d\n", k, layer[k])
	}
	for k := sim.FaultKind(0); k < sim.NumFaultKinds; k++ {
		if n := ks.Faults[k]; n > 0 {
			fmt.Fprintf(&b, "fault %s = %d\n", k, n)
		}
	}
	// Runtime witness of the conservation law the creditbalance analyzer
	// proves statically: every consumed mailbox credit is either returned
	// by a receive-side dequeue or still in flight when the machine drains.
	if ug, ok := m.Layer().(*ugnimachine.Layer); ok {
		g := ug.GNI()
		consumed, returned, inflight := g.CreditsConsumed(), g.CreditReturns(), g.CreditsInFlight()
		if consumed == 0 {
			violations = append(violations, "no SMSG credits consumed: conservation check is vacuous")
		}
		if inflight < 0 || consumed != returned+uint64(inflight) {
			violations = append(violations, fmt.Sprintf(
				"credit conservation broken: consumed %d != returned %d + in-flight %d",
				consumed, returned, inflight))
		}
	}
	closeMachine(m)
	return faultResult{render: b.String(), layer: layer, faults: ks.Faults}, violations
}

// TestFaultScenarioMatrix runs the fixed scenario matrix: each scenario
// must deliver every message exactly once, fire its recovery counters, and
// replay bit-identically.
func TestFaultScenarioMatrix(t *testing.T) {
	backPressureParams := gemini.DefaultParams()
	backPressureParams.CQDepth = 4

	squeeze := func(from, until sim.Time) []fault.Op {
		var ops []fault.Op
		for src := 0; src < faultPEs; src++ {
			for dst := 0; dst < faultPEs; dst++ {
				if src != dst {
					ops = append(ops, fault.Op{
						At: from, Kind: fault.CreditSqueeze, Src: src, Dst: dst,
						Dur: until - from, Arg: 0,
					})
				}
			}
		}
		return ops
	}
	txErrs := func(at sim.Time) []fault.Op {
		var ops []fault.Op
		for pe := 0; pe < faultPEs; pe++ {
			ops = append(ops, fault.Op{At: at, Kind: fault.TxError, Src: pe, Arg: 2})
		}
		return ops
	}

	scenarios := []struct {
		name   string
		params *gemini.Params
		sched  fault.Schedule
		expect func(t *testing.T, r faultResult)
	}{
		{
			name:  "no-faults",
			sched: fault.Schedule{},
			expect: func(t *testing.T, r faultResult) {
				for k := sim.FaultKind(0); k < sim.NumFaultKinds; k++ {
					if r.faults[k] != 0 {
						t.Errorf("clean run noted fault %v x%d", k, r.faults[k])
					}
				}
				for _, k := range []string{"smsg_not_done", "retransmits", "cq_overruns", "degraded_rdma"} {
					if r.layer[k] != 0 {
						t.Errorf("clean run has layer %s = %d", k, r.layer[k])
					}
				}
			},
		},
		{
			name:  "credit-squeeze",
			sched: fault.Schedule{Ops: squeeze(5*faultPace, 15*faultPace)},
			expect: func(t *testing.T, r faultResult) {
				if r.layer["smsg_not_done"] == 0 {
					t.Error("squeeze never produced RC_NOT_DONE")
				}
				if r.layer["credit_drained"] == 0 {
					t.Error("pending-send queue never drained on EvCreditReturn")
				}
				if r.faults[sim.FaultCreditSqueeze] == 0 {
					t.Error("probe never saw the squeeze")
				}
			},
		},
		{
			name:  "tx-errors",
			sched: fault.Schedule{Ops: txErrs(2 * faultPace)},
			expect: func(t *testing.T, r faultResult) {
				if r.layer["retransmits"] == 0 {
					t.Error("armed transaction errors never forced a retransmit")
				}
				if r.faults[sim.FaultTxError] == 0 || r.faults[sim.FaultRetransmit] == 0 {
					t.Errorf("probe fault counts tx=%d retransmit=%d, want both > 0",
						r.faults[sim.FaultTxError], r.faults[sim.FaultRetransmit])
				}
			},
		},
		{
			name:   "cq-back-pressure",
			params: &backPressureParams,
			sched: fault.Schedule{Ops: []fault.Op{
				{At: 3 * faultPace, Kind: fault.CqBackPressure, Src: 2, Dur: 10 * faultPace},
				{At: 4 * faultPace, Kind: fault.CqBackPressure, Src: 3, Dur: 10 * faultPace},
			}},
			expect: func(t *testing.T, r faultResult) {
				if r.layer["cq_overruns"] == 0 {
					t.Error("suspension never overran the depth-4 CQ")
				}
				if r.faults[sim.FaultCqOverrun] == 0 || r.faults[sim.FaultCqBackPressure] == 0 {
					t.Errorf("probe fault counts overrun=%d backpressure=%d, want both > 0",
						r.faults[sim.FaultCqOverrun], r.faults[sim.FaultCqBackPressure])
				}
			},
		},
		{
			name:   "combined",
			params: &backPressureParams,
			sched: fault.Schedule{Ops: append(append(
				squeeze(6*faultPace, 12*faultPace),
				txErrs(2*faultPace)...),
				fault.Op{At: faultPace, Kind: fault.LinkFlap, Arg: 3, Dur: 8 * faultPace},
				fault.Op{At: 14 * faultPace, Kind: fault.CqBackPressure, Src: 1, Dur: 6 * faultPace},
			)},
			expect: func(t *testing.T, r faultResult) {
				if r.layer["smsg_not_done"] == 0 || r.layer["retransmits"] == 0 {
					t.Errorf("combined run: smsg_not_done=%d retransmits=%d, want both > 0",
						r.layer["smsg_not_done"], r.layer["retransmits"])
				}
				if r.faults[sim.FaultLinkFlap] == 0 {
					t.Error("probe never saw the link flap")
				}
			},
		},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			live := mem.LiveDescriptors()
			first, viol := runFaultWorkload(sc.params, nil, sc.sched)
			for _, v := range viol {
				t.Error(v)
			}
			sc.expect(t, first)
			if n := first.layer["smsg_credits_in_flight"]; n != 0 {
				t.Errorf("smsg_credits_in_flight = %d after quiescence, want 0", n)
			}
			if got := mem.LiveDescriptors(); got != live {
				t.Errorf("scenario leaked %d pool descriptors", got-live)
			}
			// Determinism: the faulted run must replay bit-identically.
			second, _ := runFaultWorkload(sc.params, nil, sc.sched)
			if first.render != second.render {
				t.Errorf("faulted run is not deterministic:\n--- first\n%s--- second\n%s", first.render, second.render)
			}
		})
	}
}

// TestFaultPropertyRandomSchedules draws seeded random fault schedules and
// checks exactly-once + per-connection FIFO delivery under each. On
// failure it shrinks the schedule to a minimal reproduction and prints it.
func TestFaultPropertyRandomSchedules(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	cfg := fault.Random{
		PEs: faultPEs, Links: 8, Horizon: faultHorizon, Ops: 6,
		MaxWindow: faultHorizon / 3,
	}
	// Strict FIFO needs degrade disabled: a small message degraded to
	// rendezvous legally overtakes its queued predecessors.
	strict := ugnimachine.DefaultConfig()
	strict.DegradeThreshold = 0

	var stressed int // seeds whose schedule actually starved a sender
	fails := func(s fault.Schedule) (msgs []string) {
		defer func() {
			if p := recover(); p != nil {
				msgs = append(msgs, fmt.Sprintf("panic: %v", p))
			}
		}()
		r, viol := runFaultWorkload(nil, &strict, s)
		if r.layer["smsg_not_done"] > 0 || r.layer["retransmits"] > 0 || r.layer["cq_overruns"] > 0 {
			stressed++
		}
		return viol
	}

	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		s := fault.RandomSchedule(seed, cfg)
		viol := fails(s)
		if len(viol) == 0 {
			continue
		}
		min := fault.Shrink(s, func(trial fault.Schedule) bool { return len(fails(trial)) > 0 })
		sort.Strings(viol)
		t.Fatalf("seed %d violates delivery invariants:\n  %s\nminimal reproduction:\n%s",
			seed, strings.Join(viol, "\n  "), min)
	}
	// Vacuity guard: a property pass means nothing if no schedule ever
	// pushed the machine into a recovery path.
	if stressed == 0 {
		t.Fatal("no random schedule exercised any recovery path; the property test is vacuous")
	}
	t.Logf("%d/%d schedules drove the machine through a recovery path", stressed, seeds)
}
