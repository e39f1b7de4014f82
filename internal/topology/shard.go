package topology

import "fmt"

// ShardMap partitions a two-tier fabric across a cluster of allocator
// daemons: each shard owns a contiguous group of racks (a rack block of the
// §5 partition) — the servers in those racks plus every link anchored at
// them. Flowlets are assigned to the shard of their source server, so a
// shard's flows traverse:
//
//   - its own upward links (server→ToR, ToR→spine anchored at the source
//     rack), which no remote flow ever uses, and
//   - downward links (spine→ToR, ToR→server anchored at the destination
//     rack), which belong to the destination's shard.
//
// The downward links are therefore the only links visible to more than one
// shard: they are the cluster's boundary. Each shard exports the prices of
// its own boundary links (a PriceSnapshotDelta) and pushes its local load on
// remote boundary links to their owner (a PriceDigestDelta), which is the
// entire state the cluster exchanges.
type ShardMap struct {
	topo   *Topology
	shards int
	part   *BlockPartition
	// ownerOfLink[l] is the shard owning LinkID l, or -1 for links outside
	// every shard (allocator uplinks, which no server-to-server route ever
	// traverses).
	ownerOfLink []int32
	// boundary[s] lists shard s's downward links: the links remote flows
	// may traverse and therefore the subject of the price exchange.
	boundary [][]LinkID
	// owned[s] lists every link shard s owns (upward + downward).
	owned [][]LinkID
}

// NewShardMap splits the topology's racks into shards equal groups, reusing
// the FlowBlock/LinkBlock partition rules: the fabric must be two-tier and
// shards must evenly divide the rack count.
func NewShardMap(t *Topology, shards int) (*ShardMap, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("topology: shards must be positive, got %d", shards)
	}
	part, err := NewBlockPartition(t, shards)
	if err != nil {
		return nil, err
	}
	m := &ShardMap{
		topo:        t,
		shards:      shards,
		part:        part,
		ownerOfLink: make([]int32, t.NumLinks()),
		boundary:    make([][]LinkID, shards),
		owned:       make([][]LinkID, shards),
	}
	for i := range m.ownerOfLink {
		m.ownerOfLink[i] = -1
	}
	for s := 0; s < shards; s++ {
		up := part.UpwardLinkBlock(s)
		down := part.DownwardLinkBlock(s)
		m.boundary[s] = down
		m.owned[s] = make([]LinkID, 0, len(up)+len(down))
		m.owned[s] = append(m.owned[s], up...)
		m.owned[s] = append(m.owned[s], down...)
		for _, l := range m.owned[s] {
			m.ownerOfLink[l] = int32(s)
		}
	}
	return m, nil
}

// Topology returns the fabric the map shards.
func (m *ShardMap) Topology() *Topology { return m.topo }

// NumShards returns the number of shards.
func (m *ShardMap) NumShards() int { return m.shards }

// ShardOfServer returns the shard owning a server.
func (m *ShardMap) ShardOfServer(server int) int { return m.part.BlockOfServer(server) }

// ShardOfFlow returns the shard that allocates a flowlet from server src to
// server dst: the source's shard, so every flow is owned by exactly one
// daemon and endpoints can hash locally without coordination.
func (m *ShardMap) ShardOfFlow(src, dst int) int { return m.ShardOfServer(src) }

// OwnerOfLink returns the shard owning a link, or -1 when the link belongs
// to no shard (allocator uplinks).
func (m *ShardMap) OwnerOfLink(l LinkID) int { return int(m.ownerOfLink[l]) }

// BoundaryLinks returns shard s's downward links: the links that flows owned
// by other shards may traverse. Their prices are what shard s exports, and
// remote load on them is what shard s imports. The returned slice must not
// be modified.
func (m *ShardMap) BoundaryLinks(s int) []LinkID { return m.boundary[s] }

// OwnedLinks returns every link shard s owns (upward and downward). The
// returned slice must not be modified.
func (m *ShardMap) OwnedLinks(s int) []LinkID { return m.owned[s] }
