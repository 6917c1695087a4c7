package bench

import (
	"fmt"

	"charmgo/internal/gemini"
	"charmgo/internal/sim"
	"charmgo/internal/topology"
)

// This file is the sharded kernel's scale demonstration: a fig13-shaped workload
// — mini-NAMD's communication skeleton, a 3D halo exchange with a fixed
// per-step compute cost per rank — run on the *real* gemini network model
// over the parallel-window sharded kernel, at and beyond the paper's
// machine scale (up to 1,000,000 simulated ranks). Every halo message
// books the sender's FMA engine and its torus link through the network's
// shard-partitioned state: intra-shard transfers book locally with zero
// coordination (the slab partition owns every link of an intra-slab
// route), cross-shard transfers ride the deferred-reservation path and
// apply at the window barrier in deterministic (timestamp, shard,
// emission) order. The checksum folds each halo's *arrival time* in with
// its value, so a run only matches the lockstep oracle if the parallel
// windows produced bit-identical link timings — not merely the same
// payload values. The machine stack never runs sharded; this halo is the
// only workload that books through the deferred-reservation path.

// haloBytes is the per-direction halo payload: small enough that one
// node's six sends serialize on its FMA engine well within the step
// cadence (6 × (overhead + ser) ≈ 1.8 µs ≪ stepTime), so each message
// record is in flight at most once per step.
const haloBytes = 256

// ShardScaleConfig sizes a ShardScaleRun.
type ShardScaleConfig struct {
	// Nodes is the simulated node count (24 ranks each, the XE6 node of
	// the paper).
	Nodes int
	// RanksPerNode is the paper's 24 unless overridden (> 0).
	RanksPerNode int
	// Steps is the number of halo-exchange timesteps.
	Steps int
	// Shards partitions the torus; 1 runs the flat-equivalent lockstep.
	Shards int
	// Parallel runs conservative windows on worker goroutines; unset, the
	// lockstep merge executes sequentially (the determinism oracle).
	Parallel bool
}

// ShardScaleResult summarizes a run for the harness and its tests.
type ShardScaleResult struct {
	Nodes, Ranks, Shards int
	Steps                int
	Parallel             bool
	Lookahead            sim.Time
	End                  sim.Time
	Fired                uint64
	Checksum             uint64
}

func (r ShardScaleResult) String() string {
	mode := "lockstep"
	if r.Parallel {
		mode = "parallel"
	}
	return fmt.Sprintf("shardscale: %d nodes / %d ranks, %d steps, %d shards (%s, L=%v): end=%v fired=%d checksum=%016x",
		r.Nodes, r.Ranks, r.Steps, r.Shards, mode, r.Lookahead, r.End, r.Fired, r.Checksum)
}

// scaleNode is one simulated node's state: 24 ranks' worth of local work
// folded into a running checksum, plus the halo contributions received
// this step. All fields are touched only by events on the owning shard.
type scaleNode struct {
	w        *scaleWorld
	id       int
	rng      uint64
	sum      uint64
	inbox    uint64 // halo contributions accumulated for the next step
	neighbor [6]int
	step     int
}

// haloMsg is one cross-node halo contribution in flight on the network.
// Records are preallocated per (node, direction): each is in flight at
// most once per step (haloBytes keeps the wire time far below the step
// cadence). val is written by the sending node's shard, at by the
// completion callback (the same shard intra-shard; the coordinator at
// the barrier cross-shard), and both are read by the destination shard
// strictly after — the window protocol's channel hand-offs order every
// pair.
type haloMsg struct {
	w   *scaleWorld
	dst int
	val uint64
	at  sim.Time
}

type scaleWorld struct {
	cfg      ShardScaleConfig
	net      *gemini.Network
	handles  []*sim.Shard // handle of each node's owning shard
	nodes    []scaleNode
	msgs     []haloMsg // 6 per node, indexed node*6+dir
	stepTime sim.Time
}

// xorshift is the per-rank work kernel: cheap, stateful, order-sensitive
// within a node (events on one node are sequential) and commutative across
// halo contributions (inbox is a sum).
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// nodeStep advances one node by one timestep: per-rank compute, then halo
// sends to the six torus neighbors, each booked through the network's
// FMA engine and torus links (single-hop routes: the eager identity slab,
// no per-pair route rows even at a million ranks).
func nodeStep(arg any) {
	n := arg.(*scaleNode)
	w := n.w
	ranks := w.cfg.RanksPerNode
	for r := 0; r < ranks; r++ {
		n.rng = xorshift(n.rng + uint64(r))
		n.sum += n.rng
	}
	n.sum += n.inbox
	n.inbox = 0
	n.step++
	sh := w.handles[n.id]
	now := sh.Now()
	if n.step < w.cfg.Steps {
		sh.AtArg(now+w.stepTime, nodeStep, n)
	}
	if n.step <= w.cfg.Steps {
		for d := range n.neighbor {
			m := &w.msgs[n.id*6+d]
			m.val = n.rng ^ uint64(d)
			w.net.TransferThen(n.id, m.dst, haloBytes, gemini.UnitFMA, now, haloArrived, m)
		}
	}
}

// haloArrived is the network completion callback: intra-shard transfers
// deliver it synchronously on the owning shard, cross-shard transfers at
// the window barrier (where Send books straight into the destination
// heap — the coordinator's goroutine is the only one running).
func haloArrived(arg any, arrive sim.Time) {
	m := arg.(*haloMsg)
	m.at = arrive
	m.w.handles[m.dst].Send(m.dst, arrive, deliverHalo, m)
}

// deliverHalo lands one halo contribution on the destination node's
// shard, folding the wire-level arrival time in with the payload so the
// checksum certifies the network timings, not just the values.
func deliverHalo(arg any) {
	m := arg.(*haloMsg)
	m.w.nodes[m.dst].inbox += m.val ^ uint64(m.at)
}

// ShardScaleRun executes the workload and reports the commutative result.
func ShardScaleRun(cfg ShardScaleConfig) ShardScaleResult {
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = 24
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	t := topology.Shape(cfg.Nodes)
	part := topology.PartitionTorus(t, cfg.Nodes, cfg.Shards)
	params := gemini.DefaultParams()
	la := params.ShardLookahead(part.MinCrossHops())

	se := sim.NewParallelEngine(part.Shards, part.NodeShard(), la)
	net := gemini.NewNetwork(se, cfg.Nodes, params)
	defer net.Close()
	w := &scaleWorld{
		cfg:      cfg,
		net:      net,
		handles:  make([]*sim.Shard, cfg.Nodes),
		nodes:    make([]scaleNode, cfg.Nodes),
		msgs:     make([]haloMsg, cfg.Nodes*6),
		stepTime: 10 * sim.Microsecond,
	}
	for i := range w.handles {
		w.handles[i] = se.ShardHandle(part.ShardOf(i))
	}
	for i := range w.nodes {
		n := &w.nodes[i]
		n.w = w
		n.id = i
		n.rng = uint64(i)*0x9e3779b97f4a7c15 + 1
		x, y, z := t.Coords(i)
		n.neighbor = [6]int{
			t.Node(x+1, y, z), t.Node(x-1, y, z),
			t.Node(x, y+1, z), t.Node(x, y-1, z),
			t.Node(x, y, z+1), t.Node(x, y, z-1),
		}
		for d := range n.neighbor {
			w.msgs[i*6+d] = haloMsg{w: w, dst: n.neighbor[d]}
		}
		w.handles[i].AtArg(0, nodeStep, n)
	}

	var fired uint64
	if cfg.Parallel {
		fired = se.RunParallel()
	} else {
		fired = se.Run()
	}

	var sum uint64
	for i := range w.nodes {
		sum += w.nodes[i].sum * (uint64(i)*2 + 1)
	}
	return ShardScaleResult{
		Nodes: cfg.Nodes, Ranks: cfg.Nodes * cfg.RanksPerNode,
		Shards: cfg.Shards, Steps: cfg.Steps,
		Parallel:  cfg.Parallel,
		Lookahead: la, End: se.Now(), Fired: fired, Checksum: sum,
	}
}
