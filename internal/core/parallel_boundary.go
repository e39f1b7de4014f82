package core

import "repro/internal/topology"

// Boundary-exchange support: a sharded allocator cluster runs one allocator
// per shard over the full fabric but only its own flows. The six hooks below
// are the shard-side half of the price exchange — importing remote demand and
// prices, exporting local demand and prices — that the flowtuned daemon drives
// at iteration boundaries (see internal/server and internal/cluster), and the
// warm-restart half of its snapshots. Every fabric link lives in exactly one
// LinkBlock, so each hook resolves its links through the dense owner lookup
// built at construction and reads or writes block-local state directly —
// there is no global price or load array.
//
// Like the allocator's other mutators, these may only be called while no
// Iterate is in flight; the daemon calls them at iteration boundaries.

// SetExternalLoads records remote flows' aggregate load and Hessian-diagonal
// contributions on the given links (typically this shard's boundary links,
// summed over all peers' latest price digests). The values are folded into the
// owning LinkBlock's merged accumulators at the price-update phase — g is
// computed as (load − cap) + ext, the sequential solver's operation order —
// and the normalize phase counts the loads toward link utilization, so
// boundary links are priced and normalized against cluster-wide demand
// without any global pass. Passing all zeros restores purely local behaviour.
// Links outside every LinkBlock (allocator uplinks) are ignored: no flow of
// this allocator can traverse them, so remote demand there prices nothing.
func (p *ParallelAllocator) SetExternalLoads(links []topology.LinkID, loads, hdiag []float64) {
	for i, l := range links {
		lb := p.ownerLB[l]
		if lb == nil {
			continue
		}
		if lb.ext == nil {
			lb.ext = make([]float64, len(lb.links))
			lb.extH = make([]float64, len(lb.links))
		}
		pos := p.ownerPos[l]
		lb.ext[pos] = loads[i]
		lb.extH[pos] = hdiag[i]
	}
}

// PinPrices imports remote-owned link prices (a peer's PriceSnapshot): each
// link's price is set now — in the authoritative LinkBlock and in every
// FlowBlock's local copy, so the next rate update already sees it — and
// re-imposed after every local price update until a newer snapshot replaces
// it. Links never pinned stay under local control.
func (p *ParallelAllocator) PinPrices(links []topology.LinkID, prices []float64) {
	for i, l := range links {
		lb := p.ownerLB[l]
		if lb == nil {
			continue
		}
		if lb.pinned == nil {
			lb.pinned = make([]float64, len(lb.links))
			for j := range lb.pinned {
				lb.pinned[j] = -1
			}
		}
		pos := p.ownerPos[l]
		lb.pinned[pos] = prices[i]
		lb.price[pos] = prices[i]
		p.writeLocalPrice(l, prices[i])
	}
}

// SeedPrices sets the current price of each link without pinning it: the next
// price update starts from the seeded values and evolves them locally. It is
// the warm-restart half of the snapshot protocol — a restarted (or adopting)
// daemon seeds the saved prices so its first iteration continues the dual
// ascent instead of restarting from scratch, but keeps the links under local
// control.
func (p *ParallelAllocator) SeedPrices(links []topology.LinkID, prices []float64) {
	for i, l := range links {
		if p.ownerLB[l] == nil {
			continue
		}
		p.ownerLB[l].price[p.ownerPos[l]] = prices[i]
		p.writeLocalPrice(l, prices[i])
	}
}

// UnpinPrices returns the given links to local control, undoing PinPrices.
// The last pinned price remains as the starting value (like SeedPrices); it
// is simply no longer re-imposed after local price updates. An allocator that
// adopts a dead peer's links calls this so the adopted boundary is priced by
// its own price updates from then on.
func (p *ParallelAllocator) UnpinPrices(links []topology.LinkID) {
	for _, l := range links {
		lb := p.ownerLB[l]
		if lb == nil || lb.pinned == nil {
			continue
		}
		lb.pinned[p.ownerPos[l]] = -1
	}
}

// writeLocalPrice propagates an imported price into the FlowBlock-local
// copies of the link's block, which are otherwise refreshed only by the
// distribute phase at the end of an iteration. Without this the first rate
// update after an import would still price flows with the stale local copy.
func (p *ParallelAllocator) writeLocalPrice(l topology.LinkID, price float64) {
	n := p.numBlocks
	b := int(p.ownerBlk[l])
	pos := p.ownerPos[l]
	if p.ownerIsUp[l] {
		for db := 0; db < n; db++ {
			p.fbAt[b*n+db].price[pos] = price
		}
	} else {
		for sb := 0; sb < n; sb++ {
			fb := p.fbAt[sb*n+b]
			fb.price[fb.downBase+int(pos)] = price
		}
	}
}

// BoundaryDigest fills loads and hdiag (parallel to links) with this
// allocator's own flows' contributions on the given links, as merged by the
// most recent Iterate's aggregation rounds — the payload of an outgoing
// PriceDigestDelta. The owner FlowBlocks' accumulators hold exactly the local
// flows' sums (external loads are folded in only at the price update, never
// into the accumulators), so the exported bytes match the loads of a
// sequential NED step bit for bit on the same flow set. With no registered flows
// the digest is all zeros (an idle shard puts no load on anyone's links), as
// it is for links outside every LinkBlock.
func (p *ParallelAllocator) BoundaryDigest(links []topology.LinkID, loads, hdiag []float64) {
	n := p.numBlocks
	for i, l := range links {
		if p.loc.Len() == 0 || p.ownerLB[l] == nil {
			loads[i], hdiag[i] = 0, 0
			continue
		}
		b := int(p.ownerBlk[l])
		pos := p.ownerPos[l]
		if p.ownerIsUp[l] {
			owner := p.fbAt[b*n] // (b, 0) owns block b's upward LinkBlock
			loads[i], hdiag[i] = owner.upLoad[pos], owner.upHdiag[pos]
		} else {
			owner := p.fbAt[b] // (0, b) owns block b's downward LinkBlock
			loads[i], hdiag[i] = owner.downLoad[pos], owner.downHdiag[pos]
		}
	}
}

// LinkPrices fills prices (parallel to links) with the current price of each
// link — the payload of an outgoing PriceSnapshot for links this shard owns.
// Links outside every LinkBlock (allocator uplinks) report their initial
// price of 1: no flow the allocator admits can traverse them, so it never
// prices them (a sequential NED step would decay them toward 0).
func (p *ParallelAllocator) LinkPrices(links []topology.LinkID, prices []float64) {
	for i, l := range links {
		if lb := p.ownerLB[l]; lb != nil {
			prices[i] = lb.price[p.ownerPos[l]]
		} else {
			prices[i] = 1
		}
	}
}
