package md_test

import (
	"testing"

	"charmgo"
	"charmgo/internal/machine/ugnimachine"
	"charmgo/internal/md"
	"charmgo/internal/sim"
)

func machine(nodes, cores int, layer charmgo.LayerKind) *charmgo.Machine {
	return charmgo.NewMachine(charmgo.MachineConfig{Nodes: nodes, CoresPerNode: cores, Layer: layer})
}

func TestStepLoopCompletes(t *testing.T) {
	for _, layer := range []charmgo.LayerKind{charmgo.LayerUGNI, charmgo.LayerMPI} {
		m := machine(2, 4, layer)
		res := md.Run(m, md.Config{System: md.IAPP, Steps: 3, Warmup: 1, Seed: 1})
		if len(res.StepTimes) != 3 {
			t.Fatalf("layer %s: %d measured steps, want 3", layer, len(res.StepTimes))
		}
		for i, dt := range res.StepTimes {
			if dt <= 0 {
				t.Fatalf("layer %s: step %d took %v", layer, i, dt)
			}
		}
		if res.Patches == 0 || res.Computes == 0 || res.Pencils == 0 {
			t.Fatalf("empty decomposition: %+v", res)
		}
	}
}

func TestDecompositionScalesWithAtoms(t *testing.T) {
	mA := machine(1, 2, charmgo.LayerUGNI)
	a := md.Run(mA, md.Config{System: md.IAPP, Steps: 1, Seed: 1})
	mB := machine(1, 2, charmgo.LayerUGNI)
	b := md.Run(mB, md.Config{System: md.ApoA1, Steps: 1, Seed: 1})
	if b.Patches <= a.Patches {
		t.Fatalf("ApoA1 patches (%d) not more than IAPP (%d)", b.Patches, a.Patches)
	}
	if b.Computes <= a.Computes {
		t.Fatalf("ApoA1 computes (%d) not more than IAPP (%d)", b.Computes, a.Computes)
	}
}

func TestStrongScaling(t *testing.T) {
	cfg := md.Config{System: md.DHFR, Steps: 2, Warmup: 1, Seed: 2}
	small := md.Run(machine(1, 4, charmgo.LayerUGNI), cfg)
	big := md.Run(machine(2, 16, charmgo.LayerUGNI), cfg)
	if big.MsPerStep >= small.MsPerStep {
		t.Fatalf("32 cores (%.3f ms) not faster than 4 cores (%.3f ms)",
			big.MsPerStep, small.MsPerStep)
	}
}

func TestUGNIFasterThanMPI(t *testing.T) {
	// Section V-D: ~10% improvement at scale; at modest scale the gap
	// should at least be visible and in the right direction.
	cfg := md.Config{System: md.IAPP, Steps: 3, Warmup: 1, Seed: 3}
	um := machine(4, 8, charmgo.LayerUGNI)
	u := md.Run(um, cfg)
	p := md.Run(machine(4, 8, charmgo.LayerMPI), cfg)
	if u.MsPerStep >= p.MsPerStep {
		t.Fatalf("uGNI %.3f ms/step not faster than MPI %.3f", u.MsPerStep, p.MsPerStep)
	}
	// Clean-run witness of SMSG credit conservation: after the drained run
	// nothing is in flight and every consumed credit came back.
	g := um.Layer().(*ugnimachine.Layer).GNI()
	consumed, returned, inflight := g.CreditsConsumed(), g.CreditReturns(), g.CreditsInFlight()
	if inflight != 0 || consumed == 0 || consumed != returned {
		t.Fatalf("credits after drain: consumed %d, returned %d, in flight %d", consumed, returned, inflight)
	}
}

func TestLoadBalancerMigratesAndHelps(t *testing.T) {
	base := md.Config{System: md.DHFR, Steps: 3, Warmup: 2, Seed: 4}
	noLB := md.Run(machine(2, 12, charmgo.LayerUGNI), base)
	withLB := base
	withLB.LB = true
	lb := md.Run(machine(2, 12, charmgo.LayerUGNI), withLB)
	if lb.Migrations == 0 {
		t.Fatal("LB migrated nothing")
	}
	// The greedy LB should not make things notably worse.
	if lb.MsPerStep > noLB.MsPerStep*1.15 {
		t.Fatalf("LB hurt: %.3f -> %.3f ms/step", noLB.MsPerStep, lb.MsPerStep)
	}
}

func TestSequentialCostCalibration(t *testing.T) {
	// Table II anchor: ApoA1 on 2 cores ~= 987 ms/step (within +-40%).
	m := machine(1, 2, charmgo.LayerUGNI)
	res := md.Run(m, md.Config{System: md.ApoA1, Steps: 2, Warmup: 1, Seed: 5})
	if res.MsPerStep < 987*0.6 || res.MsPerStep > 987*1.4 {
		t.Fatalf("ApoA1 on 2 cores = %.1f ms/step, want ~987 (+-40%%)", res.MsPerStep)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := md.Config{System: md.IAPP, Steps: 2, Warmup: 1, Seed: 6}
	a := md.Run(machine(2, 4, charmgo.LayerUGNI), cfg)
	b := md.Run(machine(2, 4, charmgo.LayerUGNI), cfg)
	if a.MsPerStep != b.MsPerStep {
		t.Fatalf("runs diverged: %.4f vs %.4f ms/step", a.MsPerStep, b.MsPerStep)
	}
}

func TestMessageSizesInNAMDRange(t *testing.T) {
	// The paper: "the message sizes in NAMD is typically ranged from 1K to
	// 16K bytes". Position multicasts for ~250-atom patches at 24 B/atom
	// land near 6KB.
	cfg := md.Config{System: md.ApoA1}
	_ = cfg
	atoms := 250
	posBytes := atoms * 24
	if posBytes < 1024 || posBytes > 16<<10 {
		t.Fatalf("position message = %d bytes, outside 1K-16K", posBytes)
	}
}

func TestStepTimesPositiveAndBounded(t *testing.T) {
	m := machine(2, 8, charmgo.LayerUGNI)
	res := md.Run(m, md.Config{System: md.IAPP, Steps: 4, Warmup: 1, Seed: 7})
	for _, dt := range res.StepTimes {
		if dt <= 0 || dt > 10*sim.Second {
			t.Fatalf("step time %v out of sane bounds", dt)
		}
	}
}
