package topology

import "fmt"

// Partition maps the used node IDs of a torus onto contiguous coordinate
// slabs along the torus's longest dimension — the shard layout of a
// sharded simulation kernel. Slab cuts along one dimension keep every
// shard a connected block, make boundary pairs torus-adjacent (so the
// cross-shard hop minimum is 1 and the conservative lookahead is as tight
// as the link model allows), and balance node counts to within one
// coordinate plane.
type Partition struct {
	T      Torus
	Shards int // effective shard count after clamping to the cut dimension
	Dim    int // cut dimension (0=x, 1=y, 2=z): the longest
	nodes  int
	shard  []int32
}

// PartitionTorus slices the first nodes node IDs of t into at most shards
// slabs. The shard count is clamped to the cut dimension's size (a slab
// needs at least one coordinate plane), so the effective count is
// reported by the Shards field.
func PartitionTorus(t Torus, nodes, shards int) Partition {
	if nodes <= 0 || nodes > t.Nodes() {
		panic(fmt.Sprintf("topology: PartitionTorus nodes %d of %v", nodes, t))
	}
	if shards < 1 {
		panic(fmt.Sprintf("topology: PartitionTorus shards %d", shards))
	}
	dims := t.Dims()
	dim := 0
	for d := 1; d < NumDims; d++ {
		if dims[d] > dims[dim] {
			dim = d
		}
	}
	if shards > dims[dim] {
		shards = dims[dim]
	}
	p := Partition{T: t, Shards: shards, Dim: dim, nodes: nodes, shard: make([]int32, nodes)}
	size := dims[dim]
	for n := 0; n < nodes; n++ {
		var c [NumDims]int
		c[0], c[1], c[2] = t.Coords(n)
		// Balanced slab boundaries: coordinate c lands in slab
		// floor(c*shards/size), giving contiguous runs whose sizes differ
		// by at most one plane.
		p.shard[n] = int32(c[dim] * shards / size)
	}
	return p
}

// NodeShard returns the node→shard map (indexed by node ID). The caller
// must not mutate it.
func (p Partition) NodeShard() []int32 { return p.shard }

// Nodes reports how many node IDs the partition covers.
func (p Partition) Nodes() int { return p.nodes }

// ShardOf reports the shard owning a node.
func (p Partition) ShardOf(node int) int { return int(p.shard[node]) }

// MinCrossHops reports the minimal torus hop distance between any two
// used nodes in different shards — the hop count that, priced with the
// network's per-hop latency model, bounds how soon a cross-shard event
// can land. It scans each used node's torus neighbors (the same adjacency
// the route cache walks); any cross-shard pair's route crosses a slab
// boundary at some adjacent pair, so when an adjacent cross-shard pair
// exists among used nodes the scan is exact. If none exists (a degenerate
// truncation), it conservatively reports 1: underestimating the bound
// only costs window size, never correctness.
func (p Partition) MinCrossHops() int {
	if p.Shards <= 1 {
		return 0
	}
	for n := 0; n < p.nodes; n++ {
		x, y, z := p.T.Coords(n)
		for d := 0; d < NumDims; d++ {
			for _, dir := range [2]int{1, -1} {
				var m int
				switch d {
				case 0:
					m = p.T.Node(x+dir, y, z)
				case 1:
					m = p.T.Node(x, y+dir, z)
				default:
					m = p.T.Node(x, y, z+dir)
				}
				if m < p.nodes && p.shard[m] != p.shard[n] {
					return 1
				}
			}
		}
	}
	return 1
}
