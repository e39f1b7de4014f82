package core

import "repro/internal/topology"

// Boundary-exchange support: a sharded allocator cluster runs one Allocator
// per shard over the full fabric but only its own flows. The methods below
// are the shard-side half of the price exchange — importing remote demand
// and prices, and exporting local demand and prices — that the flowtuned
// daemon drives at iteration boundaries (see internal/server and
// internal/cluster).

// SetExternalLoads records remote flows' aggregate load and Hessian-diagonal
// contributions on the given links (typically this shard's boundary links,
// summed over all peers' latest price digests). The solver adds them to its
// locally accumulated values in every subsequent price update, and the
// normalizer counts the loads toward link utilization, so boundary links are
// priced and normalized against cluster-wide demand. Passing all zeros
// restores purely local behaviour. loads and hdiag must have the same
// length as links; hdiag entries are the (negative) rate sensitivities
// Σ ∂x/∂p of the remote flows.
func (a *Allocator) SetExternalLoads(links []topology.LinkID, loads, hdiag []float64) {
	if a.problem.ExternalLoads == nil {
		a.problem.ExternalLoads = make([]float64, len(a.problem.Capacities))
		a.problem.ExternalHdiag = make([]float64, len(a.problem.Capacities))
	}
	for i, l := range links {
		a.problem.ExternalLoads[l] = loads[i]
		a.problem.ExternalHdiag[l] = hdiag[i]
	}
}

// PinPrices imports remote-owned link prices (a peer's PriceSnapshot): each
// link's price is set now — so the next rate update already sees it — and
// re-imposed after every local price update until a newer snapshot replaces
// it. Links never pinned stay under local control.
func (a *Allocator) PinPrices(links []topology.LinkID, prices []float64) {
	if a.problem.PinnedPrices == nil {
		a.problem.PinnedPrices = make([]float64, len(a.problem.Capacities))
		for i := range a.problem.PinnedPrices {
			a.problem.PinnedPrices[i] = -1
		}
	}
	for i, l := range links {
		a.problem.PinnedPrices[l] = prices[i]
		a.state.Prices[l] = prices[i]
	}
}

// BoundaryDigest fills loads and hdiag (parallel to links) with this
// allocator's own flows' contributions on the given links, as accumulated by
// the most recent Iterate — the payload of an outgoing PriceDigestDelta. With
// no registered flows the digest is all zeros (an idle shard puts no load on
// anyone's links).
func (a *Allocator) BoundaryDigest(links []topology.LinkID, loads, hdiag []float64) {
	ll, hh := a.cfg.Solver.LastLoads()
	idle := len(a.flows) == 0
	for i, l := range links {
		if idle || int(l) >= len(ll) {
			loads[i], hdiag[i] = 0, 0
			continue
		}
		loads[i] = ll[l]
		if hh != nil {
			hdiag[i] = hh[l]
		} else {
			hdiag[i] = 0
		}
	}
}

// LinkPrices fills prices (parallel to links) with the current price of each
// link — the payload of an outgoing PriceSnapshot for links this shard owns.
func (a *Allocator) LinkPrices(links []topology.LinkID, prices []float64) {
	for i, l := range links {
		prices[i] = a.state.Prices[l]
	}
}

// SeedPrices sets the current price of each link without pinning it: the next
// price update starts from the seeded values and evolves them locally. It is
// the warm-restart half of the snapshot protocol — a restarted (or adopting)
// daemon seeds the saved prices so its first iteration continues the dual
// ascent instead of restarting from zero, but keeps the links under local
// control.
func (a *Allocator) SeedPrices(links []topology.LinkID, prices []float64) {
	for i, l := range links {
		a.state.Prices[l] = prices[i]
	}
}

// UnpinPrices returns the given links to local control, undoing PinPrices.
// The last pinned price remains as the starting value (like SeedPrices); it
// is simply no longer re-imposed after local price updates. An allocator that
// adopts a dead peer's links calls this so the adopted boundary is priced by
// its own solver from then on.
func (a *Allocator) UnpinPrices(links []topology.LinkID) {
	if a.problem.PinnedPrices == nil {
		return
	}
	for _, l := range links {
		a.problem.PinnedPrices[l] = -1
	}
}
