package topology

import "testing"

// Accessors over the partition that only the tests use.

// NumBlocks returns the number of rack blocks.
func (bp *BlockPartition) NumBlocks() int { return bp.numBlocks }

// NumFlowBlocks returns the number of FlowBlocks, numBlocks².
func (bp *BlockPartition) NumFlowBlocks() int { return bp.numBlocks * bp.numBlocks }

// FlowBlockOf returns the FlowBlock index for a flow from server src to
// server dst. FlowBlocks are numbered srcBlock*numBlocks + dstBlock.
func (bp *BlockPartition) FlowBlockOf(src, dst int) int {
	return bp.BlockOfServer(src)*bp.numBlocks + bp.BlockOfServer(dst)
}

// FlowBlockCoords returns the (source block, destination block) coordinates
// of a FlowBlock index.
func (bp *BlockPartition) FlowBlockCoords(fb int) (srcBlock, dstBlock int) {
	return fb / bp.numBlocks, fb % bp.numBlocks
}

func TestBlockPartitionBasics(t *testing.T) {
	topo := mustTopo(t, Config{Racks: 8, ServersPerRack: 4, Spines: 2, LinkCapacity: 10e9, LinkDelay: 1e-6})
	bp, err := NewBlockPartition(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bp.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", bp.NumBlocks())
	}
	if bp.NumFlowBlocks() != 16 {
		t.Fatalf("NumFlowBlocks = %d, want 16", bp.NumFlowBlocks())
	}
}

func TestBlockPartitionErrors(t *testing.T) {
	topo := mustTopo(t, Config{Racks: 9, ServersPerRack: 4, Spines: 2, LinkCapacity: 10e9})
	if _, err := NewBlockPartition(topo, 0); err == nil {
		t.Error("zero blocks should be rejected")
	}
	if _, err := NewBlockPartition(topo, 2); err == nil {
		t.Error("blocks not dividing racks should be rejected")
	}
	if _, err := NewBlockPartition(topo, 3); err != nil {
		t.Errorf("3 blocks over 9 racks should be accepted: %v", err)
	}
}

func TestBlockOfServerAndFlowBlock(t *testing.T) {
	topo := mustTopo(t, Config{Racks: 8, ServersPerRack: 4, Spines: 2, LinkCapacity: 10e9})
	bp, err := NewBlockPartition(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 2 racks per block, 4 servers per rack => 8 servers per block.
	if got := bp.BlockOfServer(0); got != 0 {
		t.Errorf("BlockOfServer(0) = %d, want 0", got)
	}
	if got := bp.BlockOfServer(9); got != 1 {
		t.Errorf("BlockOfServer(9) = %d, want 1", got)
	}
	fb := bp.FlowBlockOf(0, 9)
	sb, db := bp.FlowBlockCoords(fb)
	if sb != 0 || db != 1 {
		t.Errorf("FlowBlockCoords(%d) = (%d,%d), want (0,1)", fb, sb, db)
	}
}

// TestLinkBlockCoverage checks every fabric link belongs to exactly one
// LinkBlock (up or down) and that allocator links belong to none.
func TestLinkBlockCoverage(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Racks = 8 // divisible into 4 blocks
	topo := mustTopo(t, cfg)
	bp, err := NewBlockPartition(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[LinkID]int)
	for b := 0; b < bp.NumBlocks(); b++ {
		for _, l := range bp.UpwardLinkBlock(b) {
			seen[l]++
			if !topo.Link(l).Up {
				t.Errorf("link %d in upward LinkBlock %d is not an up link", l, b)
			}
		}
		for _, l := range bp.DownwardLinkBlock(b) {
			seen[l]++
			if topo.Link(l).Up {
				t.Errorf("link %d in downward LinkBlock %d is not a down link", l, b)
			}
		}
	}
	alloc, _ := topo.AllocatorNode()
	for _, l := range topo.Links() {
		isAllocatorLink := l.Src == alloc || l.Dst == alloc
		count := seen[l.ID]
		if isAllocatorLink && count != 0 {
			t.Errorf("allocator link %d assigned to a LinkBlock", l.ID)
		}
		if !isAllocatorLink && count != 1 {
			t.Errorf("fabric link %d assigned to %d LinkBlocks, want exactly 1", l.ID, count)
		}
	}
}

// TestFlowBlockLocality checks the property §5 relies on: every link on a
// flow's route belongs either to the source block's upward LinkBlock or the
// destination block's downward LinkBlock.
func TestFlowBlockLocality(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Racks = 8
	topo := mustTopo(t, cfg)
	bp, err := NewBlockPartition(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	inBlock := func(links []LinkID, id LinkID) bool {
		for _, l := range links {
			if l == id {
				return true
			}
		}
		return false
	}
	for src := 0; src < topo.NumServers(); src += 7 {
		for dst := 0; dst < topo.NumServers(); dst += 11 {
			if src == dst {
				continue
			}
			path, err := topo.Route(src, dst, src+dst)
			if err != nil {
				t.Fatal(err)
			}
			up := bp.UpwardLinkBlock(bp.BlockOfServer(src))
			down := bp.DownwardLinkBlock(bp.BlockOfServer(dst))
			for _, l := range path {
				if !inBlock(up, l) && !inBlock(down, l) {
					t.Fatalf("flow %d->%d: link %d outside both its LinkBlocks", src, dst, l)
				}
			}
		}
	}
}

// TestBlockPartitionFatTree pins the one-block partition every daemon runs
// on: a fat-tree at one block puts every link that does not touch the
// allocator host into exactly one LinkBlock of its direction, and keeps every
// route inside block 0; more than one block still needs a two-tier fabric.
func TestBlockPartitionFatTree(t *testing.T) {
	topo, err := NewFatTree(FatTreeConfig{K: 4, LinkCapacity: 10e9, WithAllocator: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBlockPartition(topo, 2); err == nil {
		t.Error("2 blocks over a fat-tree accepted")
	}
	bp, err := NewBlockPartition(topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[LinkID]int)
	for _, l := range bp.UpwardLinkBlock(0) {
		seen[l]++
		if !topo.Link(l).Up {
			t.Errorf("link %d in the upward LinkBlock is not an up link", l)
		}
	}
	for _, l := range bp.DownwardLinkBlock(0) {
		seen[l]++
		if topo.Link(l).Up {
			t.Errorf("link %d in the downward LinkBlock is not a down link", l)
		}
	}
	alloc, _ := topo.AllocatorNode()
	uplinks := 0
	for _, l := range topo.Links() {
		want := 1
		if l.Src == alloc || l.Dst == alloc {
			want = 0
			uplinks++
		}
		if seen[l.ID] != want {
			t.Errorf("link %d (%d→%d) in %d LinkBlocks, want %d", l.ID, l.Src, l.Dst, seen[l.ID], want)
		}
	}
	if uplinks == 0 {
		t.Fatal("fat-tree has no allocator uplinks; test premise broken")
	}
	for src := 0; src < topo.NumServers(); src++ {
		if b := bp.BlockOfServer(src); b != 0 {
			t.Fatalf("server %d in block %d, want 0", src, b)
		}
	}
}
