package core

import (
	"testing"

	"repro/internal/topology"
)

// The boundary hooks at one block, the daemon's default layout, where every
// fabric link sits in block 0's two LinkBlocks; parallel_boundary_test.go
// covers them across 2 and 4 blocks.

// boundaryTopo is a 2-rack fabric small enough to reason about link
// ownership by hand.
func boundaryTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewTwoTier(topology.Config{
		Racks: 2, ServersPerRack: 2, Spines: 1, LinkCapacity: 10e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// newOneBlock builds a one-block allocator without normalization, so Rates
// are the raw NED rates the digest sums.
func newOneBlock(t *testing.T, topo *topology.Topology) *ParallelAllocator {
	t.Helper()
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pa.Close)
	return pa
}

// TestBoundaryDigestMatchesLoads checks the exported digest equals the loads
// of the rates the last Iterate produced, and is all zeros while idle.
func TestBoundaryDigestMatchesLoads(t *testing.T) {
	topo := boundaryTopo(t)
	a := newOneBlock(t, topo)
	links := make([]topology.LinkID, topo.NumLinks())
	for i := range links {
		links[i] = topology.LinkID(i)
	}
	loads := make([]float64, len(links))
	hdiag := make([]float64, len(links))

	// Idle allocator: digest is all zeros even before any Iterate.
	a.BoundaryDigest(links, loads, hdiag)
	for i := range loads {
		if loads[i] != 0 || hdiag[i] != 0 {
			t.Fatalf("idle digest not zero at link %d: %g/%g", i, loads[i], hdiag[i])
		}
	}

	if err := a.FlowletStart(1, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	a.Iterate()
	a.BoundaryDigest(links, loads, hdiag)
	route, err := topo.Route(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	onPath := make(map[topology.LinkID]bool)
	for _, l := range route {
		onPath[l] = true
	}
	raw := a.Rates()[1]
	if raw <= 0 {
		t.Fatalf("raw rate = %g", raw)
	}
	for i, l := range links {
		if onPath[l] {
			if loads[i] != raw {
				t.Fatalf("link %d load %g, want %g", l, loads[i], raw)
			}
			if hdiag[i] >= 0 {
				t.Fatalf("link %d hdiag %g, want negative", l, hdiag[i])
			}
		} else if loads[i] != 0 {
			t.Fatalf("off-path link %d load %g, want 0", l, loads[i])
		}
	}

	// Retiring the flow empties the digest again.
	if err := a.FlowletEnd(1); err != nil {
		t.Fatal(err)
	}
	a.BoundaryDigest(links, loads, hdiag)
	for i := range loads {
		if loads[i] != 0 {
			t.Fatalf("post-retire digest not zero at link %d", i)
		}
	}
}

// TestExternalLoadsThrottleSharedLink verifies imported remote demand raises
// a link's price and lowers the local flow's allocation, and that clearing
// it restores headroom.
func TestExternalLoadsThrottleSharedLink(t *testing.T) {
	topo := boundaryTopo(t)
	alone, shared := newOneBlock(t, topo), newOneBlock(t, topo)
	for _, a := range []*ParallelAllocator{alone, shared} {
		if err := a.FlowletStart(1, 0, 3, 1); err != nil {
			t.Fatal(err)
		}
	}
	route, err := topo.Route(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A remote flow congesting the last (downward) link of the path at full
	// line rate, with a realistic sensitivity.
	ext := []topology.LinkID{route[len(route)-1]}
	w := topo.Config().LinkCapacity
	for i := 0; i < 200; i++ {
		shared.SetExternalLoads(ext, []float64{10e9}, []float64{-w / 4})
		alone.Iterate()
		shared.Iterate()
	}
	ra, rs := alone.Rates()[1], shared.Rates()[1]
	if rs >= ra/1.5 {
		t.Fatalf("external congestion barely throttled the flow: alone %g, shared %g", ra, rs)
	}
	// Clearing external demand recovers the allocation.
	shared.SetExternalLoads(ext, []float64{0}, []float64{0})
	for i := 0; i < 300; i++ {
		shared.Iterate()
	}
	if got := shared.Rates()[1]; got < 0.9*ra {
		t.Fatalf("after clearing external load rate = %g, want ≈ %g", got, ra)
	}
}

// TestPinPricesAppliesImmediately verifies an imported price takes effect on
// the very next iteration and survives local price updates.
func TestPinPricesAppliesImmediately(t *testing.T) {
	topo := boundaryTopo(t)
	a := newOneBlock(t, topo)
	if err := a.FlowletStart(1, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	route, err := topo.Route(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	down := route[len(route)-1]
	a.PinPrices([]topology.LinkID{down}, []float64{40})
	a.Iterate()
	prices := make([]float64, 1)
	a.LinkPrices([]topology.LinkID{down}, prices)
	if prices[0] != 40 {
		t.Fatalf("pinned price after Iterate = %g, want 40", prices[0])
	}
	// A pinned path price of ≥ 40 caps the raw rate near w/40.
	w := topo.Config().LinkCapacity
	if raw := a.Rates()[1]; raw > w/40 {
		t.Fatalf("raw rate %g exceeds w/pinned-price %g", raw, w/40)
	}
}

// TestUnpinPricesReturnsLinkToLocalControl verifies an unpinned link keeps
// the last imported price as a starting point but evolves under local
// updates afterwards — the adopting daemon's seeding semantics.
func TestUnpinPricesReturnsLinkToLocalControl(t *testing.T) {
	topo := boundaryTopo(t)
	a := newOneBlock(t, topo)
	if err := a.FlowletStart(1, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	route, err := topo.Route(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	down := []topology.LinkID{route[len(route)-1]}
	prices := make([]float64, 1)

	// Pinned: the price survives iterations verbatim.
	a.PinPrices(down, []float64{40})
	a.Iterate()
	a.LinkPrices(down, prices)
	if prices[0] != 40 {
		t.Fatalf("pinned price = %g, want 40", prices[0])
	}
	// Unpinned: one lone flow cannot justify a price of 40 on a 10 Gb/s
	// link, so local updates pull it down.
	a.UnpinPrices(down)
	for i := 0; i < 50; i++ {
		a.Iterate()
	}
	a.LinkPrices(down, prices)
	if prices[0] >= 40 {
		t.Fatalf("price after unpinning = %g, want < 40 (local control)", prices[0])
	}
	// UnpinPrices before any PinPrices is a no-op, not a panic.
	newOneBlock(t, topo).UnpinPrices(down)
}

// TestSeedPricesWarmRestartByteEquivalence is the core of the daemon's warm
// restart: replaying LiveFlows in order and seeding LinkPrices onto a fresh
// allocator makes every subsequent iteration produce bit-identical rates,
// because NED rates are a pure function of prices and flow order.
func TestSeedPricesWarmRestartByteEquivalence(t *testing.T) {
	topo := boundaryTopo(t)
	orig := newOneBlock(t, topo)
	flows := []struct {
		id       FlowID
		src, dst int
		w        float64
	}{{1, 0, 3, 1}, {2, 1, 2, 2}, {3, 2, 0, 1}, {4, 3, 1, 0.5}}
	for _, f := range flows {
		if err := orig.FlowletStart(f.id, f.src, f.dst, f.w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 37; i++ {
		orig.Iterate()
	}

	// Snapshot: live flows in canonical order + all link prices.
	live := orig.LiveFlows()
	links := make([]topology.LinkID, topo.NumLinks())
	for i := range links {
		links[i] = topology.LinkID(i)
	}
	prices := make([]float64, len(links))
	orig.LinkPrices(links, prices)

	// Restore onto a fresh allocator, one FlowletStart per flow as the
	// daemon's restore does.
	warm := newOneBlock(t, topo)
	for _, f := range live {
		if err := warm.FlowletStart(f.ID, f.Src, f.Dst, f.Weight); err != nil {
			t.Fatal(err)
		}
	}
	warm.SeedPrices(links, prices)

	// Both must now produce bit-identical rates forever.
	for i := 0; i < 20; i++ {
		orig.Iterate()
		warm.Iterate()
		ro, rw := orig.Rates(), warm.Rates()
		for id, r := range ro {
			if rw[id] != r {
				t.Fatalf("iter %d flow %d: warm rate %v != original %v", i, id, rw[id], r)
			}
		}
	}
}
