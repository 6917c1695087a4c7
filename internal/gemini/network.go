package gemini

import (
	"fmt"
	"sort"

	"charmgo/internal/mem"
	"charmgo/internal/sim"
	"charmgo/internal/topology"
)

// Network is the simulated machine: a torus of nodes, each with one Gemini
// NIC. PEs (processing elements, i.e. cores) are numbered densely:
// pe = node*CoresPerNode + core.
//
// All booking goes through the per-node unitEngine instances (see
// engine.go), which implement sim.NICEngine; the Transfer/Get methods
// here are thin delegations kept for callers that address engines by
// (node, Unit).
type Network struct {
	Eng  *sim.Engine
	Topo topology.Torus
	P    Params

	// tab is the shared precomputed node→coordinate table; NodeOf,
	// pathLatency, and route construction all read it instead of
	// re-deriving coordinates with div/mod per call.
	tab *topology.Table

	// Slab-allocated state: one backing array each for nodes, NIC gap
	// resources (FMA+BTE interleaved), engine views (4 per node), and
	// torus links, instead of one heap object per resource.
	nodes   []Node
	nicRes  []sim.GapResource // 2 per node: [2i]=FMA, [2i+1]=BTE
	engines []unitEngine      // 4 per node, indexed by 4*node+Unit
	links   []sim.GapResource // indexed by torus link

	// peNode caches NodeOf (pe → node) so the hot mapping is one slice
	// load, not a division.
	peNode []int32

	// routes caches dimension-ordered multi-hop paths as dense link
	// indices: routes[src][dst] is built on first booking of the (src,
	// dst) pair and replayed for every later message — the simulator's
	// analog of the paper's registration cache. Outer and inner levels
	// populate lazily; nil means "not yet computed". Single-hop pairs
	// never touch this cache at all — they resolve against the
	// precomputed nbrRoutes identity table — which keeps the cache's
	// footprint off nearest-neighbor traffic.
	routes [][][]topology.LinkID

	// nbrRoutes is the identity table nbrRoutes[li] == li, filled eagerly
	// at construction; a single-hop route is a one-element sub-slice of
	// it, so neighbor booking performs no cache writes whatsoever.
	nbrRoutes []topology.LinkID

	// transfers and bytes count every Transfer and Get (Stats).
	transfers uint64
	bytes     int64
}

// Node is one compute node and its NIC.
type Node struct {
	ID  int
	FMA *sim.GapResource // shared FMA unit (also carries SMSG/MSGQ)
	BTE *sim.GapResource // shared block transfer engine

	engines [4]*unitEngine // indexed by Unit
}

// NewNetwork builds a machine with the given node count. The torus shape is
// chosen near-cubic via topology.Shape.
func NewNetwork(eng *sim.Engine, nodes int, p Params) *Network {
	if nodes <= 0 {
		panic(fmt.Sprintf("gemini: NewNetwork with %d nodes", nodes))
	}
	if p.CoresPerNode <= 0 {
		panic("gemini: CoresPerNode must be positive")
	}
	topo := topology.Shape(nodes)
	n := &Network{
		Eng:       eng,
		Topo:      topo,
		P:         p,
		tab:       topology.NewTable(topo),
		nodes:     nodeSlabs.Get(nodes),
		nicRes:    nicSlabs.GetDirty(2 * nodes),
		engines:   engineSlabs.Get(4 * nodes),
		links:     linkSlabs.GetDirty(topo.NumLinks()),
		peNode:    peNodeSlabs.Get(nodes * p.CoresPerNode),
		routes:    routeSlabs.Get(nodes),
		nbrRoutes: nbrSlabs.Get(topo.NumLinks()),
	}
	clock := eng.Now
	probe := eng.Probe()
	for li := range n.nbrRoutes {
		n.nbrRoutes[li] = topology.LinkID(li)
	}
	for i := range n.nodes {
		fma := &n.nicRes[2*i]
		bte := &n.nicRes[2*i+1]
		sim.InitGapResource(fma, sim.Indexed("node", i, ".fma"), clock)
		sim.InitGapResource(bte, sim.Indexed("node", i, ".bte"), clock)
		nd := &n.nodes[i]
		nd.ID = i
		nd.FMA = fma
		nd.BTE = bte
		for u := UnitFMA; u <= UnitMSGQ; u++ {
			overhead, bw := p.unitCosts(u)
			res := fma
			if u == UnitBTE {
				res = bte
			}
			extra := sim.Time(0)
			if u == UnitMSGQ {
				extra = p.MSGQExtraOverhead
			}
			e := &n.engines[4*i+int(u)]
			*e = unitEngine{
				net:      n,
				name:     sim.Indexed("node", i, unitSuffix[u]),
				node:     i,
				res:      res,
				overhead: overhead,
				bw:       bw,
				extra:    extra,
			}
			nd.engines[u] = e
		}
	}
	for i := range n.links {
		sim.InitGapResource(&n.links[i], sim.Indexed("link", i, ""), clock)
	}
	for pe := range n.peNode {
		n.peNode[pe] = int32(pe / p.CoresPerNode)
	}
	if probe != nil {
		n.SetProbe(probe)
	}
	return n
}

// Construction slab caches, recycled across networks (see mem.SlabCache).
// The GapResource slabs come back unzeroed (GetDirty): InitGapResource
// resets every field but the interval array, so each resource keeps the
// buffer it grew on the last network and books without regrowing it.
// NIC resources and links have caches of their own, so a slab of links
// returns as links, with buffers sized for link traffic.
var (
	nodeSlabs   mem.SlabCache[Node]
	nicSlabs    mem.SlabCache[sim.GapResource]
	linkSlabs   mem.SlabCache[sim.GapResource]
	engineSlabs mem.SlabCache[unitEngine]
	peNodeSlabs mem.SlabCache[int32]
	routeSlabs  mem.SlabCache[[][]topology.LinkID]
	nbrSlabs    mem.SlabCache[topology.LinkID]
)

// Close releases the network's construction slabs for reuse by a later
// NewNetwork. The network and everything built on it (GNI, machine
// layers) must not be used afterwards.
func (n *Network) Close() {
	nodeSlabs.Put(n.nodes)
	nicSlabs.Put(n.nicRes)
	linkSlabs.Put(n.links)
	engineSlabs.Put(n.engines)
	peNodeSlabs.Put(n.peNode)
	routeSlabs.Put(n.routes)
	nbrSlabs.Put(n.nbrRoutes)
	n.nodes, n.nicRes, n.links, n.engines, n.peNode, n.routes = nil, nil, nil, nil, nil, nil
	n.nbrRoutes = nil
}

// unitSuffix names each engine view for diagnostics.
var unitSuffix = [4]string{UnitFMA: ".fma-eng", UnitBTE: ".bte-eng", UnitSMSG: ".smsg-eng", UnitMSGQ: ".msgq-eng"}

// SetProbe installs p on every NIC engine resource and torus link, so one
// probe observes all network bookings. It is called automatically at
// construction when the sim engine already carries a probe.
func (n *Network) SetProbe(p sim.Probe) {
	for i := range n.nicRes {
		n.nicRes[i].SetProbe(p)
	}
	for i := range n.links {
		n.links[i].SetProbe(p)
	}
}

// Engine returns the sim.NICEngine carrying traffic for the given node
// and unit: the uniform interface machine layers book transfers through.
func (n *Network) Engine(node int, u Unit) sim.NICEngine { return n.nodes[node].engines[u] }

// engine is the concrete-typed accessor used inside the package.
func (n *Network) engine(node int, u Unit) *unitEngine { return n.nodes[node].engines[u] }

// NumNodes reports the node count actually usable (<= Topo.Nodes()).
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumPEs reports nodes*coresPerNode.
func (n *Network) NumPEs() int { return len(n.peNode) }

// NodeOf maps a PE to its node via the precomputed table.
func (n *Network) NodeOf(pe int) int {
	if pe < 0 || pe >= len(n.peNode) {
		panic(fmt.Sprintf("gemini: PE %d out of range [0,%d)", pe, len(n.peNode)))
	}
	return int(n.peNode[pe])
}

// CoreOf maps a PE to its core index within the node.
func (n *Network) CoreOf(pe int) int { return pe % n.P.CoresPerNode }

// Node returns the node structure.
func (n *Network) Node(id int) *Node { return &n.nodes[id] }

// SameNode reports whether two PEs share a node.
func (n *Network) SameNode(a, b int) bool { return n.NodeOf(a) == n.NodeOf(b) }

// Stats reports transfer counters.
func (n *Network) Stats() (transfers uint64, bytes int64) {
	return n.transfers, n.bytes
}

// route returns the cached dimension-ordered path from srcNode to dstNode
// as dense link indices, computing and caching it on first use. Cached
// routes are immutable once built, and the path for a pair does not depend
// on when (or whether) other pairs were cached, so lazy population cannot
// perturb determinism.
//
// Single-hop pairs — the entire route population of nearest-neighbor
// workloads, and the common case everywhere — bypass the cache: their
// one-link route is a sub-slice of the precomputed nbrRoutes identity
// table, so neighbor booking writes nothing and the per-source cache rows
// never materialize.
func (n *Network) route(srcNode, dstNode int) []topology.LinkID {
	if n.tab.Hops(srcNode, dstNode) == 1 {
		li := n.tab.NeighborLink(srcNode, dstNode)
		return n.nbrRoutes[li : li+1 : li+1]
	}
	row := n.routes[srcNode]
	if row == nil {
		//simlint:allow hotpathalloc -- route cache fill: first use of a source node only; every later message hits the cache
		row = make([][]topology.LinkID, len(n.nodes))
		n.routes[srcNode] = row
	}
	path := row[dstNode]
	if path == nil && srcNode != dstNode {
		//simlint:allow hotpathalloc -- route cache fill: first use of a node pair only; cached routes are immutable
		path = n.tab.AppendLinkIDs(make([]topology.LinkID, 0, n.tab.Hops(srcNode, dstNode)), srcNode, dstNode)
		row[dstNode] = path
	}
	return path
}

// pathLatency is the pure flight latency between two nodes (no
// serialization): injection/ejection plus per-hop router latency.
func (n *Network) pathLatency(a, b int) sim.Time {
	if a == b {
		return n.P.LoopbackLatency
	}
	return n.P.InjectionLatency + sim.Time(n.tab.Hops(a, b))*n.P.HopLatency
}

// ControlLatency reports the one-way flight time of a small control packet
// from one node to another with no bandwidth booking.
func (n *Network) ControlLatency(a, b int) sim.Time { return n.pathLatency(a, b) }

// Transfer books a data movement of size bytes from srcNode to dstNode on
// the given unit, ready to start no earlier than `ready`. See
// unitEngine.Transfer for the booking semantics.
func (n *Network) Transfer(srcNode, dstNode, size int, u Unit, ready sim.Time) (srcDone, dstArrive sim.Time) {
	return n.engine(srcNode, u).Transfer(dstNode, size, ready)
}

// Get books a read transaction issued by the requester against the
// target. See unitEngine.Get for the booking semantics.
func (n *Network) Get(requester, target, size int, u Unit, ready sim.Time) (reqDone, dataArrive sim.Time) {
	return n.engine(requester, u).Get(target, size, ready)
}

// NumLinks reports how many directional torus links the machine has.
func (n *Network) NumLinks() int { return len(n.links) }

// LinkOccupancy is one torus link's booking fingerprint: total busy time,
// the end of its last booked interval, and how many bookings it took. Two
// runs with identical fingerprints on every link carried the same traffic
// with the same wire timings.
type LinkOccupancy struct {
	Busy     sim.Time
	FreeAt   sim.Time
	Acquires uint64
}

// LinkOccupancies appends every torus link's occupancy fingerprint to dst
// in link order: the per-link observable the link-conservation test and
// the traced benchmark read.
func (n *Network) LinkOccupancies(dst []LinkOccupancy) []LinkOccupancy {
	for i := range n.links {
		r := &n.links[i]
		dst = append(dst, LinkOccupancy{Busy: r.BusyTotal(), FreeAt: r.FreeAt(), Acquires: r.Acquires()})
	}
	return dst
}

// FlapLink books a transient outage window [at, at+dur) on one torus link:
// messages routed across it during the window queue behind the outage
// exactly like they queue behind real traffic (pure delay, no loss — Gemini
// is lossless and the paper's congestion study measures stalls, not drops).
// The booking goes through the link's GapResource, so determinism and probe
// accounting hold like any other booking.
func (n *Network) FlapLink(link int, at, dur sim.Time) {
	li := link % len(n.links)
	if li < 0 {
		li += len(n.links)
	}
	n.links[li].Acquire(at, dur)
	if p := n.Eng.Probe(); p != nil {
		p.FaultNoted(sim.FaultLinkFlap, at)
	}
}

// CutPlanes reports how many distinct partition cuts the torus admits:
// one per coordinate offset per dimension of extent >= 2 (a 1-wide
// dimension has no links to cut). PartitionCut reduces its plane argument
// modulo this count.
func (n *Network) CutPlanes() int {
	planes := 0
	for _, size := range n.Topo.Dims() {
		if size >= 2 {
			planes += size
		}
	}
	return planes
}

// PartitionCut books a network partition for [at, at+dur): every
// directional link crossing one torus plane — between coordinate c and
// c+1 along one dimension — goes down together, so all dimension-ordered
// routes across the cut stall until the window ends (the heal). Like
// FlapLink this is pure delay, not loss: Gemini is lossless, so a healed
// partition releases the stalled traffic in deterministic order. The
// plane index decodes to (dimension, offset) across the cuttable
// dimensions; one FaultPartition probe note covers the whole group.
func (n *Network) PartitionCut(plane int, at, dur sim.Time) {
	planes := n.CutPlanes()
	if planes == 0 {
		return // single-node torus: nothing to cut
	}
	plane %= planes
	if plane < 0 {
		plane += planes
	}
	dims := n.Topo.Dims()
	dim, offset := 0, plane
	for d, size := range dims {
		if size < 2 {
			continue
		}
		if offset < size {
			dim = d
			break
		}
		offset -= size
	}
	// Walk the plane: every node with coord[dim] == offset, cut to its
	// +1 neighbor (both directions). Node IDs ascend within the loop
	// nest, so the booking order is deterministic.
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			for x := 0; x < dims[0]; x++ {
				c := [3]int{x, y, z}
				if c[dim] != offset {
					continue
				}
				src := n.Topo.Node(x, y, z)
				c[dim]++
				dst := n.Topo.Node(c[0], c[1], c[2])
				if src == dst {
					continue
				}
				n.links[n.tab.NeighborLink(src, dst)].Acquire(at, dur)
				n.links[n.tab.NeighborLink(dst, src)].Acquire(at, dur)
			}
		}
	}
	if p := n.Eng.Probe(); p != nil {
		p.FaultNoted(sim.FaultPartition, at)
	}
}

// BusiestResources reports the k busiest NIC engines and links (diagnostic
// aid: "name busy=<total> freeAt=<t> acquires=<n>").
func (n *Network) BusiestResources(k int) []string {
	all := make([]*sim.GapResource, 0, len(n.links)+len(n.nicRes))
	for i := range n.nicRes {
		all = append(all, &n.nicRes[i])
	}
	for i := range n.links {
		all = append(all, &n.links[i])
	}
	sort.Slice(all, func(i, j int) bool { return all[i].BusyTotal() > all[j].BusyTotal() })
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, 0, k)
	for _, r := range all[:k] {
		out = append(out, fmt.Sprintf("%s busy=%v freeAt=%v acquires=%d",
			r.Name(), r.BusyTotal(), r.FreeAt(), r.Acquires()))
	}
	return out
}
