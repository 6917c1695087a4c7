// Package ssse is the state-space search engine behind the paper's
// N-Queens experiments (Section V-C, built on the ParSSSE framework): a
// task-based parallelization where each task explores one partial placement
// and spawns child tasks for valid extensions, randomly assigned to
// processors, until a user-defined threshold depth — below which the
// subtree is solved sequentially.
//
// Two execution modes exist:
//
//   - Real: the sequential subtrees are actually solved with a bitmask
//     backtracking solver; solution counts are exact (tests verify them
//     against the known N-Queens sequence).
//   - Synthetic: for large boards (the paper's 17-19 queens) the subtree
//     *cost* is drawn from a deterministic, hash-seeded distribution
//     calibrated against the real solver's statistics, so scaling
//     experiments finish in reasonable wall-clock time while preserving
//     the grain-size distribution that drives load imbalance. Solution
//     counts are not produced in this mode (DESIGN.md §5).
package ssse

import (
	"fmt"
	"math"
	"math/bits"

	"charmgo/internal/converse"
	"charmgo/internal/lrts"
	"charmgo/internal/mem"
	"charmgo/internal/sim"
)

// Solutions is the known N-Queens solution count sequence (OEIS A000170),
// used to validate the real solver and calibrate the synthetic mode.
var Solutions = map[int]uint64{
	1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92,
	9: 352, 10: 724, 11: 2680, 12: 14200, 13: 73712, 14: 365596,
	15: 2279184, 16: 14772512, 17: 95815104, 18: 666090624, 19: 4968057848,
}

// Config describes one N-Queens run.
type Config struct {
	// N is the board size, 1..MaxN.
	N int
	// Threshold is the parallel depth: the first Threshold queens are
	// placed by parallel tasks, the rest sequentially (paper Section V-C).
	Threshold int
	// PerNodeCost is the virtual CPU time per search-tree node.
	PerNodeCost sim.Time
	// Synthetic selects the calibrated-cost mode for the sequential
	// subtrees (default: automatic — real for N <= 16).
	Synthetic bool
	// SyntheticRatio estimates search-tree nodes per solution (calibrated
	// against the real solver: ~60 at N=12 rising to ~75 at N=15; default 80
	// extrapolates to the paper's N=17-19).
	SyntheticRatio float64
	// Seed drives random task placement.
	Seed uint64
	// TaskMsgSize is the wire size of a single-state task message
	// (paper: ~88 bytes); chunked tasks grow by StateBytes per extra state.
	TaskMsgSize int
	// ChunkSize is ParSSSE-style grain bundling: up to ChunkSize sibling
	// states travel in one task message (default 1). The paper's message
	// counts (15K messages for 17-queens at threshold 6, 123K at threshold
	// 7) imply such bundling — the raw partial-placement counts at those
	// depths are in the millions.
	ChunkSize int
}

// MaxN is the largest board a run accepts: a board state packs each
// occupancy mask into 32 bits.
const MaxN = 32

// StateBytes is the marshalled size of one additional board state in a
// chunked task message.
const StateBytes = 40

// DefaultPerNodeCost reproduces the paper's time scale: 17-queens at 3840
// cores in ~29 ms implies ~110 core-seconds of total work over the ~7.7e9
// node tree (80 nodes/solution x 95.8M solutions).
const DefaultPerNodeCost = 14 * sim.Nanosecond

func (c Config) withDefaults() Config {
	if c.N < 1 || c.N > MaxN {
		panic(fmt.Sprintf("ssse: %d-queens outside 1..%d", c.N, MaxN))
	}
	if c.N > 16 {
		c.Synthetic = true
	}
	if _, ok := Solutions[c.N]; c.Synthetic && !ok {
		panic(fmt.Sprintf("ssse: synthetic mode needs the %d-queens solution count to calibrate", c.N))
	}
	if c.PerNodeCost == 0 {
		c.PerNodeCost = DefaultPerNodeCost
	}
	if c.SyntheticRatio == 0 {
		c.SyntheticRatio = 80
	}
	if c.TaskMsgSize == 0 {
		c.TaskMsgSize = 88
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 1
	}
	if c.Threshold <= 0 || c.Threshold > c.N {
		panic(fmt.Sprintf("ssse: threshold %d invalid for %d-queens", c.Threshold, c.N))
	}
	return c
}

// Result summarizes a run.
type Result struct {
	// Solutions is the exact count (real mode) or 0 (synthetic mode).
	Solutions uint64
	// Tasks is the number of parallel tasks executed.
	Tasks uint64
	// Nodes is the number of search-tree nodes (real or estimated).
	Nodes uint64
	// Elapsed is the virtual time from injection to quiescence.
	Elapsed sim.Time
}

// state is one partial placement: 16 bytes, with the occupancy masks
// widened to uint64 wherever they are used.
type state struct {
	cols, d1, d2 uint32
	row          int32
}

// chunk is a task message: one or more sibling states. Chunks come from
// the solver's free list, and the task that receives one releases it at
// the end of onTask. Nothing replays a processed chunk:
// converse.Checkpoint refuses to run with messages queued, so a restored
// machine never redelivers one.
//
// Siblings share a row, so a chunk is of one of two kinds. Above the
// threshold depth it carries its states, in a backing of capacity
// ChunkSize, for the receiver to expand. At the threshold it carries only
// leaves: the sender solves (or draws) each subtree as it bundles the
// state, and the receiver charges the sum. Compute only adds, so the
// virtual time is the same as solving state by state at the receiver,
// and the run's frontier, most of which is queued at once, costs one
// record per message rather than 16 bytes per state.
type chunk struct {
	states []state
	leaves subtrees
}

// subtrees sums the solved subtrees under n threshold-depth states.
type subtrees struct {
	n                int
	solutions, nodes uint64
}

// solver is the per-run state shared across PEs of the DES.
type solver struct {
	cfg     Config
	m       *converse.Machine
	handler int
	rngs    []*sim.RNG

	avgSubtreeNodes float64

	solutions uint64
	tasks     uint64
	nodes     uint64

	// chunks and spare pool the task messages: a released chunk's states
	// backing goes on spare (FreeList.Put zeroes the record), and the
	// next chunk built takes it back.
	chunks mem.FreeList[chunk]
	spare  [][]state
}

// Run executes the N-Queens search on the machine and returns the result.
// The machine must be freshly constructed (no other workload).
func Run(m *converse.Machine, cfg Config) Result {
	return new(solver).run(m, cfg)
}

// run is Run on this solver. Only the chunk pool carries over from an
// earlier run; every other field starts fresh.
func (s *solver) run(m *converse.Machine, cfg Config) Result {
	cfg = cfg.withDefaults()
	*s = solver{cfg: cfg, m: m, chunks: s.chunks, spare: s.spare}
	for pe := 0; pe < m.NumPEs(); pe++ {
		s.rngs = append(s.rngs, sim.NewRNG(cfg.Seed+uint64(pe)*0x9e37+1))
	}
	if cfg.Synthetic {
		parts := CountPartials(cfg.N, cfg.Threshold)
		total := cfg.SyntheticRatio * float64(Solutions[cfg.N])
		s.avgSubtreeNodes = total / float64(parts)
	}
	s.handler = m.RegisterHandler(s.onTask)

	var done sim.Time
	m.OnQuiescence(func(at sim.Time) { done = at })
	root := s.chunks.Get()
	root.states = append(s.backing(), state{})
	m.Inject(0, s.handler, root, cfg.TaskMsgSize, 0)
	m.Run()
	return Result{
		Solutions: s.solutions,
		Tasks:     s.tasks,
		Nodes:     s.nodes,
		Elapsed:   done,
	}
}

// mask returns the n low bits set.
func mask(n int) uint64 { return (1 << uint(n)) - 1 }

// onTask is the task entry: a chunk of threshold-depth states charges
// its solved subtrees; any other chunk's states are expanded one row.
// Children are bundled into chunks of up to ChunkSize and sent to random
// PEs.
func (s *solver) onTask(ctx *converse.Ctx, msg *lrts.Message) {
	ch := msg.Data.(*chunk)
	s.tasks++
	cfg := s.cfg
	if lv := ch.leaves; lv.n > 0 {
		s.solutions += lv.solutions
		s.nodes += lv.nodes
		ctx.Compute(sim.Time(lv.nodes) * cfg.PerNodeCost)
		s.chunks.Put(ch)
		return
	}
	full := mask(cfg.N)
	var buf []state
	var leaves subtrees
	for _, st := range ch.states {
		s.nodes++
		ctx.Compute(cfg.PerNodeCost)
		cols, d1, d2 := uint64(st.cols), uint64(st.d1), uint64(st.d2)
		avail := ^(cols | d1 | d2) & full
		for avail != 0 {
			bit := avail & (-avail)
			avail ^= bit
			child := state{
				cols: uint32(cols | bit),
				d1:   uint32(((d1 | bit) << 1) & full),
				d2:   uint32((d2 | bit) >> 1),
				row:  st.row + 1,
			}
			if int(child.row) >= cfg.Threshold {
				sol, nodes := s.solve(child)
				leaves.n++
				leaves.solutions += sol
				leaves.nodes += nodes
				if leaves.n == cfg.ChunkSize {
					s.sendLeaves(ctx, leaves)
					leaves = subtrees{}
				}
				continue
			}
			if buf == nil {
				buf = s.backing()
			}
			buf = append(buf, child)
			if len(buf) == cfg.ChunkSize {
				s.send(ctx, buf)
				buf = nil
			}
		}
	}
	if leaves.n > 0 {
		s.sendLeaves(ctx, leaves)
	}
	if buf != nil {
		s.send(ctx, buf)
	}
	s.spare = append(s.spare, ch.states[:0])
	s.chunks.Put(ch)
}

// backing returns an empty states slice of capacity ChunkSize, recycled
// from a released chunk when one is spare.
func (s *solver) backing() []state {
	if n := len(s.spare); n > 0 {
		b := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return b
	}
	return make([]state, 0, s.cfg.ChunkSize)
}

// send bundles states into a pooled chunk and sends it to a random PE.
func (s *solver) send(ctx *converse.Ctx, states []state) {
	c := s.chunks.Get()
	c.states = states
	size := s.cfg.TaskMsgSize + (len(states)-1)*StateBytes
	ctx.Send(s.rngs[ctx.PE()].Intn(ctx.NumPEs()), s.handler, c, size)
}

// sendLeaves sends a pooled chunk standing for leaves.n threshold-depth
// states, at the wire size of those states, to a random PE.
func (s *solver) sendLeaves(ctx *converse.Ctx, leaves subtrees) {
	c := s.chunks.Get()
	c.leaves = leaves
	size := s.cfg.TaskMsgSize + (leaves.n-1)*StateBytes
	ctx.Send(s.rngs[ctx.PE()].Intn(ctx.NumPEs()), s.handler, c, size)
}

// solve returns the solution count and search-tree nodes of the subtree
// under a threshold-depth state: drawn in synthetic mode, counted by the
// sequential solver otherwise.
func (s *solver) solve(st state) (solutions, nodes uint64) {
	if s.cfg.Synthetic {
		return 0, s.syntheticNodes(st)
	}
	return count(uint64(st.cols), uint64(st.d1), uint64(st.d2), int(st.row), s.cfg.N)
}

// syntheticNodes draws a deterministic subtree size with mean
// avgSubtreeNodes and a Pareto-like heavy tail (skew = 0.3*(1-u)^-0.7,
// capped at 1000x): real backtracking subtrees are heavy-tailed, and that
// tail is what produces the end-of-run load imbalance visible in the
// paper's Figure 12.
func (s *solver) syntheticNodes(st state) uint64 {
	h := sim.Mix(uint64(st.cols)*0x1f3 ^ uint64(st.d1)*0x9e5 ^ uint64(st.d2)*0x2d7 ^ uint64(st.row))
	skew := 0.3 * powNeg07(1-unitDraw(h))
	if skew > 1000 {
		skew = 1000
	}
	n := s.avgSubtreeNodes * skew
	if n < 1 {
		n = 1
	}
	return uint64(math.Round(n))
}

// unitDraw maps a hash to u in [0, 1) on its top 53 bits, so 1-u lies in
// [2^-53, 1].
func unitDraw(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// skewFrac is float64(0.7) - 1 in run-time float64 arithmetic, the
// fractional exponent math.Pow moves to for y = -0.7. The constant
// expression 0.7 - 1 folds exactly to -0.3, one ulp away.
const skewFrac = -0.30000000000000004

// powNeg07 returns x^-0.7 for x in [2^-53, 1], bit for bit what
// math.Pow(x, -0.7) returns there, at about half its cost: it is the
// sequence Pow runs for that y (Modf, yf-- since yf > 0.5, Exp∘Log, one
// multiply by x's mantissa, a reciprocal and Ldexp), minus the special
// cases and with the Frexp/Ldexp pair folded into one multiply by x,
// which is exact because every product stays a normal float.
func powNeg07(x float64) float64 { return 1 / (math.Exp(skewFrac*math.Log(x)) * x) }

// count is the sequential bitmask backtracking solver: it returns the
// number of complete placements and the number of tree nodes visited.
func count(cols, d1, d2 uint64, row, n int) (solutions, nodes uint64) {
	nodes = 1
	if row == n {
		return 1, 1
	}
	avail := ^(cols | d1 | d2) & mask(n)
	for avail != 0 {
		bit := avail & (-avail)
		avail ^= bit
		s, nd := count(cols|bit, ((d1|bit)<<1)&mask(n), (d2|bit)>>1, row+1, n)
		solutions += s
		nodes += nd
	}
	return solutions, nodes
}

// Count solves N-Queens sequentially (exported for validation and
// calibration).
func Count(n int) (solutions, nodes uint64) {
	return count(0, 0, 0, 0, n)
}

// CountPartials counts the valid partial placements at exactly the given
// depth — the number of parallel tasks a run with that threshold executes
// at the leaf level. It counts the last row with a popcount and uses the
// board's left-right mirror symmetry on row 0: every placement with its
// first queen in column c mirrors one with it in column n-1-c.
func CountPartials(n, depth int) uint64 {
	if depth == 0 {
		return 1
	}
	full := mask(n)
	var total uint64
	for col := 0; col < (n+1)/2; col++ {
		bit := uint64(1) << uint(col)
		c := countPartials(bit, (bit<<1)&full, bit>>1, 1, n, depth)
		if 2*col+1 < n {
			c *= 2 // column n-1-col mirrors this one
		}
		total += c
	}
	return total
}

func countPartials(cols, d1, d2 uint64, row, n, depth int) uint64 {
	if row == depth {
		return 1
	}
	avail := ^(cols | d1 | d2) & mask(n)
	if row == depth-1 {
		return uint64(bits.OnesCount64(avail))
	}
	var total uint64
	for avail != 0 {
		bit := avail & (-avail)
		avail ^= bit
		total += countPartials(cols|bit, ((d1|bit)<<1)&mask(n), (d2|bit)>>1, row+1, n, depth)
	}
	return total
}
