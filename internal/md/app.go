package md

import (
	"math"

	"charmgo/internal/charm"
	"charmgo/internal/converse"
	"charmgo/internal/sim"
)

// Neighbour-class overlap fractions: the share of cross-patch atom pairs
// that fall within the cutoff, by how the patches touch.
const (
	gammaSelf   = 0.5 // pairs within one patch (half matrix)
	gammaFace   = 0.2
	gammaEdge   = 0.06
	gammaCorner = 0.02
)

// patch is the per-cell chare: it owns atoms, multicasts positions,
// accumulates forces and integrates.
type patch struct {
	idx       int
	needForce int // compute force messages + PME force messages per step
	gotForce  int
}

// compute is a pairwise force object between two patches (or one, for the
// self-interaction). It is the migratable unit the load balancer moves.
type compute struct {
	idx  int
	need int // position messages required per step (1 for self, else 2)
	got  int
}

// pencil is one PME pencil: gathers charges, FFTs, transposes, FFTs,
// returns long-range forces.
type pencil struct {
	idx       int
	needChg   int
	gotChg    int
	gotTrans  int
	needTrans int
}

// mainChare drives the step loop.
type mainChare struct {
	stepTimes []sim.Time
}

// pair describes one compute's endpoints and overlap factor.
type pair struct {
	a, b  int
	gamma float64
}

// app wires the decomposition together.
type app struct {
	cfg Config
	rt  *charm.Runtime

	grid      [3]int
	atomCount []int
	pairs     []pair
	compsOf   [][]int // patch -> compute indices
	pensOf    [][]int // patch -> pencil indices
	patchesOf [][]int // pencil -> patch indices
	pencilG   int     // pencil grid side (pencils = pencilG^2)

	patches  *charm.Array
	computes *charm.Array
	pencils  *charm.Array
	main     *charm.Array

	ePatchStart, ePatchForce    int
	eCompPos                    int
	ePencilCharge, ePencilTrans int
	eMainStep                   int

	step       int
	totalSteps int
	migrations int
}

// pencilFanout is how many pencils each patch scatters its charges to.
const pencilFanout = 4

// Run executes the mini-NAMD benchmark on the machine.
func Run(m *converse.Machine, cfg Config) Result {
	cfg = cfg.withDefaults()
	if cfg.PatchGrid == [3]int{} {
		cfg.PatchGrid = derivePatchGrid(cfg.System.Atoms, m.NumPEs())
	}
	a := &app{cfg: cfg, rt: charm.NewRuntime(m), grid: cfg.PatchGrid}
	a.totalSteps = cfg.Warmup + cfg.Steps
	a.buildDecomposition(m.NumPEs())
	a.buildArrays()

	a.rt.Start(func(ctx *converse.Ctx) {
		a.startStep(ctx)
	})
	return a.collect()
}

// collect assembles the Result after the run has drained.
func (a *app) collect() Result {
	mc := a.main.Elem(0).(*mainChare)
	res := Result{
		Patches:    a.patches.Len(),
		Computes:   a.computes.Len(),
		Pencils:    a.pencils.Len(),
		Migrations: a.migrations,
	}
	// stepTimes[k] is the completion time of step k; measured steps are
	// those after warmup.
	var prev sim.Time
	for k, tEnd := range mc.stepTimes {
		dt := tEnd - prev
		prev = tEnd
		if k >= a.cfg.Warmup {
			res.StepTimes = append(res.StepTimes, dt)
		}
	}
	var sum sim.Time
	for _, dt := range res.StepTimes {
		sum += dt
	}
	if len(res.StepTimes) > 0 {
		res.MsPerStep = (sum / sim.Time(len(res.StepTimes))).Millis()
	}
	return res
}

// buildDecomposition computes patches, atom counts, compute pairs, and PME
// assignment.
func (a *app) buildDecomposition(numPEs int) {
	g := a.grid
	nPatch := g[0] * g[1] * g[2]

	// Atom counts: mean with deterministic +-25% jitter, normalized.
	a.atomCount = make([]int, nPatch)
	mean := float64(a.cfg.System.Atoms) / float64(nPatch)
	total := 0
	for i := range a.atomCount {
		u := float64(sim.Mix(a.cfg.Seed^uint64(i)*0x9e3779b9)>>11) / (1 << 53)
		c := int(mean * (0.75 + 0.5*u))
		if c < 1 {
			c = 1
		}
		a.atomCount[i] = c
		total += c
	}
	a.atomCount[nPatch-1] += a.cfg.System.Atoms - total
	if a.atomCount[nPatch-1] < 1 {
		a.atomCount[nPatch-1] = 1
	}

	// Compute pairs: self + the 13 lexicographically-positive neighbour
	// offsets with periodic wraparound, deduplicated for small grids.
	idxOf := func(x, y, z int) int {
		x = ((x % g[0]) + g[0]) % g[0]
		y = ((y % g[1]) + g[1]) % g[1]
		z = ((z % g[2]) + g[2]) % g[2]
		return x + g[0]*(y+g[1]*z)
	}
	type offset struct {
		d     [3]int
		gamma float64
	}
	var offsets []offset
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				d := [3]int{dx, dy, dz}
				if d == [3]int{} {
					continue
				}
				// Keep only lexicographically positive offsets (half space).
				if !(dx > 0 || (dx == 0 && dy > 0) || (dx == 0 && dy == 0 && dz > 0)) {
					continue
				}
				nz := 0
				for _, v := range d {
					if v != 0 {
						nz++
					}
				}
				gam := gammaFace
				switch nz {
				case 2:
					gam = gammaEdge
				case 3:
					gam = gammaCorner
				}
				offsets = append(offsets, offset{d, gam})
			}
		}
	}

	seen := make(map[[2]int]bool)
	a.compsOf = make([][]int, nPatch)
	for z := 0; z < g[2]; z++ {
		for y := 0; y < g[1]; y++ {
			for x := 0; x < g[0]; x++ {
				p := idxOf(x, y, z)
				a.addPair(pair{p, p, gammaSelf}, seen)
				for _, off := range offsets {
					q := idxOf(x+off.d[0], y+off.d[1], z+off.d[2])
					if q == p {
						continue // wrapped onto itself in a tiny grid
					}
					a.addPair(pair{p, q, off.gamma}, seen)
				}
			}
		}
	}

	// PME pencils: a pencilG x pencilG grid.
	nPen := a.cfg.Pencils
	if nPen == 0 {
		nPen = derivePencils(nPatch, numPEs)
	}
	a.pencilG = int(math.Sqrt(float64(nPen)))
	if a.pencilG < 1 {
		a.pencilG = 1
	}
	nPen = a.pencilG * a.pencilG
	a.pensOf = make([][]int, nPatch)
	a.patchesOf = make([][]int, nPen)
	fan := pencilFanout
	if fan > nPen {
		fan = nPen
	}
	for p := 0; p < nPatch; p++ {
		for k := 0; k < fan; k++ {
			j := (p*fan + k) % nPen
			a.pensOf[p] = append(a.pensOf[p], j)
			a.patchesOf[j] = append(a.patchesOf[j], p)
		}
	}
}

// addPair registers a compute pair once.
func (a *app) addPair(pr pair, seen map[[2]int]bool) {
	key := [2]int{pr.a, pr.b}
	if pr.b < pr.a {
		key = [2]int{pr.b, pr.a}
	}
	if seen[key] {
		return
	}
	seen[key] = true
	ci := len(a.pairs)
	a.pairs = append(a.pairs, pr)
	a.compsOf[pr.a] = append(a.compsOf[pr.a], ci)
	if pr.b != pr.a {
		a.compsOf[pr.b] = append(a.compsOf[pr.b], ci)
	}
}

// buildArrays creates the chare arrays and entry methods.
func (a *app) buildArrays() {
	nPatch := len(a.atomCount)
	nPen := len(a.patchesOf)

	a.patches = a.rt.NewArray(nPatch, func(i int) any {
		return &patch{idx: i, needForce: len(a.compsOf[i]) + len(a.pensOf[i])}
	}, charm.BlockMap)
	a.computes = a.rt.NewArray(len(a.pairs), func(i int) any {
		need := 2
		if a.pairs[i].a == a.pairs[i].b {
			need = 1
		}
		return &compute{idx: i, need: need}
	}, charm.RoundRobinMap)
	// Pencils map to the high end of the PE range (NAMD-style dedicated
	// PME processors): on large machines they avoid the patch/compute PEs,
	// so FFT phases are not queued behind force computations.
	a.pencils = a.rt.NewArray(nPen, func(i int) any {
		return &pencil{idx: i, needChg: len(a.patchesOf[i]), needTrans: a.pencilG}
	}, func(idx, n, numPEs int) int { return numPEs - 1 - (idx % numPEs) })
	a.main = a.rt.NewArray(1, func(int) any { return &mainChare{} },
		func(int, int, int) int { return 0 })

	a.ePatchStart = a.patches.Entry(a.onPatchStart)
	a.ePatchForce = a.patches.Entry(a.onPatchForce)
	a.eCompPos = a.computes.Entry(a.onComputePositions)
	a.ePencilCharge = a.pencils.Entry(a.onPencilCharge)
	a.ePencilTrans = a.pencils.Entry(a.onPencilTranspose)
	a.eMainStep = a.main.Entry(a.onMainStep)
}

// startStep broadcasts the step trigger to every patch.
func (a *app) startStep(ctx *converse.Ctx) {
	a.patches.BroadcastEntry(ctx, a.ePatchStart, nil, 64)
}

// onPatchStart: multicast positions to computes, spread charges to pencils.
func (a *app) onPatchStart(ctx *converse.Ctx, elem, arg any) {
	p := elem.(*patch)
	atoms := a.atomCount[p.idx]
	posBytes := atoms * a.cfg.BytesPerAtomPos
	for _, ci := range a.compsOf[p.idx] {
		a.computes.Send(ctx, ci, a.eCompPos, nil, posBytes)
	}
	// Charge spreading (30% of PME work lives patch-side).
	ctx.Compute(sim.Time(atoms) * a.cfg.PMEPerAtom * 3 / 10)
	chgBytes := atoms*a.cfg.BytesPerAtomCharge/pencilFanout + 64
	for _, j := range a.pensOf[p.idx] {
		a.pencils.SendPrio(ctx, j, a.ePencilCharge, nil, chgBytes, a.pmePrio())
	}
}

// onComputePositions: once all inputs arrive, compute forces and return them.
func (a *app) onComputePositions(ctx *converse.Ctx, elem, arg any) {
	c := elem.(*compute)
	c.got++
	if c.got < c.need {
		return
	}
	c.got = 0
	pr := a.pairs[c.idx]
	ops := float64(a.atomCount[pr.a]) * float64(a.atomCount[pr.b]) * pr.gamma
	ctx.Compute(sim.Time(ops * float64(a.cfg.PerPairCost)))
	fBytes := a.atomCount[pr.a] * a.cfg.BytesPerAtomPos
	a.patches.Send(ctx, pr.a, a.ePatchForce, nil, fBytes)
	if pr.b != pr.a {
		a.patches.Send(ctx, pr.b, a.ePatchForce, nil, a.atomCount[pr.b]*a.cfg.BytesPerAtomPos)
	}
}

// pmePrio returns the scheduler priority for PME traffic: high (negative)
// unless the ablation disables it. NAMD prioritizes PME because its global
// dependency chain is longer than the local force computations'.
func (a *app) pmePrio() int {
	if a.cfg.NoPMEPriority {
		return 0
	}
	return -10
}

// pmePhaseCost is the per-pencil FFT cost of one phase (35% of PME work
// per phase lives pencil-side).
func (a *app) pmePhaseCost() sim.Time {
	total := sim.Time(a.cfg.System.Atoms) * a.cfg.PMEPerAtom * 35 / 100
	return total / sim.Time(a.pencils.Len())
}

// transposeBytes sizes one pencil-to-pencil transpose message: the whole
// grid divided by (pencils x per-pencil partners).
func (a *app) transposeBytes() int {
	n := a.pencils.Len()
	b := a.cfg.System.Atoms * a.cfg.GridBytesPerAtom / (n * a.pencilG)
	if b < 64 {
		b = 64
	}
	return b
}

// onPencilCharge: gather charges; when complete, FFT phase 1 and transpose
// within the pencil's column (the standard 2D-decomposed FFT exchange:
// pencil (r,c) sends one block to every (r', c)).
func (a *app) onPencilCharge(ctx *converse.Ctx, elem, arg any) {
	pn := elem.(*pencil)
	pn.gotChg++
	if pn.gotChg < pn.needChg {
		return
	}
	pn.gotChg = 0
	ctx.Compute(a.pmePhaseCost())
	tb := a.transposeBytes()
	g := a.pencilG
	col := pn.idx % g
	for r := 0; r < g; r++ {
		a.pencils.SendPrio(ctx, r*g+col, a.ePencilTrans, nil, tb, a.pmePrio())
	}
}

// onPencilTranspose: gather transposed data; when complete, FFT phase 2 and
// return long-range forces to the contributing patches.
func (a *app) onPencilTranspose(ctx *converse.Ctx, elem, arg any) {
	pn := elem.(*pencil)
	pn.gotTrans++
	if pn.gotTrans < pn.needTrans {
		return
	}
	pn.gotTrans = 0
	ctx.Compute(a.pmePhaseCost())
	for _, p := range a.patchesOf[pn.idx] {
		fb := a.atomCount[p]*a.cfg.BytesPerAtomCharge/pencilFanout + 64
		a.patches.SendPrio(ctx, p, a.ePatchForce, nil, fb, a.pmePrio())
	}
}

// onPatchForce: accumulate; when complete, integrate and contribute to the
// step reduction.
func (a *app) onPatchForce(ctx *converse.Ctx, elem, arg any) {
	p := elem.(*patch)
	p.gotForce++
	if p.gotForce < p.needForce {
		return
	}
	p.gotForce = 0
	ctx.Compute(sim.Time(a.atomCount[p.idx]) * a.cfg.IntegratePerAtom)
	a.patches.Contribute(ctx, a.step, float64(a.atomCount[p.idx]), charm.OpSum,
		charm.Callback{Array: a.main, Idx: 0, Entry: a.eMainStep})
}

// onMainStep: one step finished everywhere.
func (a *app) onMainStep(ctx *converse.Ctx, elem, arg any) {
	mc := elem.(*mainChare)
	mc.stepTimes = append(mc.stepTimes, ctx.Now())
	a.step++
	if a.cfg.LB && a.step == a.cfg.Warmup {
		// Migrate computes with their measured loads; state is a few KB.
		a.migrations += a.computes.GreedyRebalance(ctx, 4096)
	}
	if a.step < a.totalSteps {
		a.startStep(ctx)
	}
}

// Debug exposes the chare arrays of a run for diagnostics and tests.
type Debug struct {
	Patches, Computes, Pencils *charm.Array
}

// RunDebug is Run with array introspection.
func RunDebug(m *converse.Machine, cfg Config, dbg *Debug) Result {
	cfg = cfg.withDefaults()
	if cfg.PatchGrid == [3]int{} {
		cfg.PatchGrid = derivePatchGrid(cfg.System.Atoms, m.NumPEs())
	}
	a := &app{cfg: cfg, rt: charm.NewRuntime(m), grid: cfg.PatchGrid}
	a.totalSteps = cfg.Warmup + cfg.Steps
	a.buildDecomposition(m.NumPEs())
	a.buildArrays()
	if dbg != nil {
		dbg.Patches, dbg.Computes, dbg.Pencils = a.patches, a.computes, a.pencils
	}
	a.rt.Start(func(ctx *converse.Ctx) { a.startStep(ctx) })
	return a.collect()
}
