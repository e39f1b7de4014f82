package topology

import "fmt"

// BlockPartition groups racks into blocks and links into LinkBlocks, the
// partitioning used by Flowtune's multicore allocator (§5, Figure 2). All
// links going upward from the racks of a block form the block's upward
// LinkBlock; all links going downward toward those racks form its downward
// LinkBlock. Flows are partitioned by (source block, destination block) into
// FlowBlocks; FlowBlock (i,j) updates only upward LinkBlock i and downward
// LinkBlock j.
type BlockPartition struct {
	topo *Topology
	// numBlocks is the number of rack blocks.
	numBlocks int
	// racksPerBlock is the number of racks per block.
	racksPerBlock int
	// upLinks[b] lists the LinkIDs in block b's upward LinkBlock.
	upLinks [][]LinkID
	// downLinks[b] lists the LinkIDs in block b's downward LinkBlock.
	downLinks [][]LinkID
	// blockOfRack[r] is the block index of rack r.
	blockOfRack []int
}

// NewBlockPartition splits the topology's racks into numBlocks equal groups.
// numBlocks must divide the number of racks and should be a power of two for
// the hierarchical aggregation pattern of Figure 3 (not enforced here; the
// aggregation code handles any block count, falling back to a flat merge).
// Links touching the allocator host belong to no LinkBlock. One block holds
// every other link of any fabric, split by direction; more than one needs a
// two-tier fabric, whose every link is anchored to a rack by a server or ToR
// endpoint (a fat-tree's agg↔core layer is not).
func NewBlockPartition(t *Topology, numBlocks int) (*BlockPartition, error) {
	if numBlocks <= 0 {
		return nil, fmt.Errorf("topology: numBlocks must be positive, got %d", numBlocks)
	}
	if t.NumCores() > 0 && numBlocks > 1 {
		return nil, fmt.Errorf("topology: %d LinkBlocks need a two-tier fabric; fat-tree has %d core switches", numBlocks, t.NumCores())
	}
	if t.NumRacks()%numBlocks != 0 {
		return nil, fmt.Errorf("topology: %d blocks do not evenly divide %d racks", numBlocks, t.NumRacks())
	}
	bp := &BlockPartition{
		topo:          t,
		numBlocks:     numBlocks,
		racksPerBlock: t.NumRacks() / numBlocks,
		upLinks:       make([][]LinkID, numBlocks),
		downLinks:     make([][]LinkID, numBlocks),
		blockOfRack:   make([]int, t.NumRacks()),
	}
	for r := 0; r < t.NumRacks(); r++ {
		bp.blockOfRack[r] = r / bp.racksPerBlock
	}
	for _, l := range t.Links() {
		if t.Node(l.Src).Kind == Allocator || t.Node(l.Dst).Kind == Allocator {
			continue
		}
		b := 0
		if numBlocks > 1 {
			b = bp.blockOfRack[bp.rackOfLink(l)]
		}
		if l.Up {
			bp.upLinks[b] = append(bp.upLinks[b], l.ID)
		} else {
			bp.downLinks[b] = append(bp.downLinks[b], l.ID)
		}
	}
	return bp, nil
}

// rackOfLink returns the rack that anchors a two-tier fabric link to a block:
// the source rack for upward links, the destination rack for downward links.
func (bp *BlockPartition) rackOfLink(l Link) int {
	if l.Up {
		return bp.topo.Node(l.Src).Rack
	}
	return bp.topo.Node(l.Dst).Rack
}

// BlockOfServer returns the block index of a server.
func (bp *BlockPartition) BlockOfServer(server int) int {
	return bp.blockOfRack[bp.topo.RackOfServer(server)]
}

// UpwardLinkBlock returns the LinkIDs of block b's upward LinkBlock.
// The returned slice must not be modified.
func (bp *BlockPartition) UpwardLinkBlock(b int) []LinkID { return bp.upLinks[b] }

// DownwardLinkBlock returns the LinkIDs of block b's downward LinkBlock.
// The returned slice must not be modified.
func (bp *BlockPartition) DownwardLinkBlock(b int) []LinkID { return bp.downLinks[b] }
