package core

import (
	"testing"

	"repro/internal/topology"
)

// blockLocalFlows draws flows that never leave their rack: with shards (and
// the parallel allocator's blocks) aligned on rack boundaries, every flow
// lands in a diagonal FlowBlock, so each link's load is accumulated by exactly
// one block and the merge tree adds exact zeros — the regime in which the
// parallel engine must match the sequential one bit for bit.
func blockLocalFlows(topo *topology.Topology, count int) []ParallelFlow {
	perRack := topo.Config().ServersPerRack
	flows := make([]ParallelFlow, 0, count)
	for i := 0; i < count; i++ {
		rack := i % topo.Config().Racks
		src := rack*perRack + i%perRack
		dst := rack*perRack + (i+1+i/7)%perRack
		if dst == src {
			dst = rack*perRack + (src+1)%perRack
		}
		flows = append(flows, ParallelFlow{
			ID: FlowID(i + 1), Src: src, Dst: dst, Weight: 1 + float64(i%3),
		})
	}
	return flows
}

// downLinks returns a few downward fabric links spread across the topology.
func downLinks(t *testing.T, topo *topology.Topology, n int) []topology.LinkID {
	t.Helper()
	var out []topology.LinkID
	for l := 0; l < topo.NumLinks() && len(out) < n; l++ {
		if !topo.Link(topology.LinkID(l)).Up {
			out = append(out, topology.LinkID(l))
		}
	}
	if len(out) < n {
		t.Fatalf("only %d downward links in fabric, want %d", len(out), n)
	}
	return out
}

// TestParallelBoundaryBitIdenticalToSequential is the multi-block equivalence
// check: on block-local traffic, a ParallelAllocator with external loads and
// pinned prices applied through the boundary API must produce exactly the
// sequential Allocator's rates, digests, and prices, with the same imports
// written on its num.Problem — the property that keeps a multicore shard's
// wire bytes independent of its block count.
func TestParallelBoundaryBitIdenticalToSequential(t *testing.T) {
	for _, blocks := range []int{2, 4} {
		checkBoundaryBitIdentical(t, blocks)
	}
}

// checkBoundaryBitIdentical is TestParallelBoundaryBitIdenticalToSequential
// for one block count.
func checkBoundaryBitIdentical(t *testing.T, blocks int) {
	t.Helper()
	topo := parallelTestTopo(t, 8)
	flows := blockLocalFlows(topo, 96)

	allLinks := make([]topology.LinkID, topo.NumLinks())
	for i := range allLinks {
		allLinks[i] = topology.LinkID(i)
	}
	// Remote demand on two downward links, imported prices on two others.
	ext := downLinks(t, topo, 4)
	extLinks, pinLinks := ext[:2], ext[2:]
	extLoads := []float64{3e9, 5e9}
	extHdiag := []float64{-1e9, -2.5e9}
	pinVals := []float64{7.25, 3.5}

	// Gamma and Headroom mirror the sequential defaults (0.4 and the 0.01
	// update-threshold headroom) — the pairing server.New passes — so the
	// two engines solve the identical problem.
	pa, err := NewParallelAllocator(ParallelConfig{
		Topology: topo, Blocks: blocks, Gamma: 0.4, Headroom: 0.01, Normalize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	if err := pa.SetFlows(flows); err != nil {
		t.Fatal(err)
	}

	pa.SetExternalLoads(extLinks, extLoads, extHdiag)
	pa.PinPrices(pinLinks, pinVals)

	// A fresh sequential reference: prices persist across Iterates, so the
	// comparison needs a cold start on both sides.
	seqRef, err := NewAllocator(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if err := seqRef.FlowletStart(f.ID, f.Src, f.Dst, f.Weight); err != nil {
			t.Fatal(err)
		}
	}
	seqSetExternalLoads(seqRef, extLinks, extLoads, extHdiag)
	seqPinPrices(seqRef, pinLinks, pinVals)

	for i := 0; i < 40; i++ {
		seqRef.Iterate()
		pa.Iterate()
	}

	want, got := seqRef.Rates(), pa.Rates()
	if len(got) != len(want) {
		t.Fatalf("blocks=%d: %d rates, want %d", blocks, len(got), len(want))
	}
	for id, w := range want {
		if g := got[id]; g != w {
			t.Fatalf("blocks=%d flow %d: parallel rate %v != sequential %v", blocks, id, g, w)
		}
	}

	// The exported digest and prices — the wire payloads — agree bit for bit
	// as well.
	wantLoads := make([]float64, len(allLinks))
	wantHd := make([]float64, len(allLinks))
	gotLoads := make([]float64, len(allLinks))
	gotHd := make([]float64, len(allLinks))
	seqDigest(seqRef, allLinks, wantLoads, wantHd)
	pa.BoundaryDigest(allLinks, gotLoads, gotHd)
	for i := range allLinks {
		if gotLoads[i] != wantLoads[i] || gotHd[i] != wantHd[i] {
			t.Fatalf("blocks=%d link %d: digest %v/%v != sequential %v/%v",
				blocks, i, gotLoads[i], gotHd[i], wantLoads[i], wantHd[i])
		}
	}
	gotPrices := make([]float64, len(allLinks))
	pa.LinkPrices(allLinks, gotPrices)
	for i := range allLinks {
		if want := seqRef.state.Prices[i]; gotPrices[i] != want {
			t.Fatalf("blocks=%d link %d: price %v != sequential %v", blocks, i, gotPrices[i], want)
		}
	}
}

// TestParallelExternalLoadsThrottle mirrors the sequential throttling test:
// imported remote demand on a path link must lower the local allocation, and
// clearing it must restore headroom.
func TestParallelExternalLoadsThrottle(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	newPA := func() *ParallelAllocator {
		pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pa.Close)
		if err := pa.FlowletStart(1, 0, 3, 1); err != nil {
			t.Fatal(err)
		}
		return pa
	}
	alone, shared := newPA(), newPA()
	route, err := topo.Route(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ext := []topology.LinkID{route[len(route)-1]}
	w := topo.Config().LinkCapacity
	shared.SetExternalLoads(ext, []float64{10e9}, []float64{-w / 4})
	for i := 0; i < 200; i++ {
		alone.Iterate()
		shared.Iterate()
	}
	ra, rs := alone.Rates()[1], shared.Rates()[1]
	if rs >= ra/1.5 {
		t.Fatalf("external congestion barely throttled the flow: alone %g, shared %g", ra, rs)
	}
	shared.SetExternalLoads(ext, []float64{0}, []float64{0})
	for i := 0; i < 300; i++ {
		shared.Iterate()
	}
	if got := shared.Rates()[1]; got < 0.9*ra {
		t.Fatalf("after clearing external load rate = %g, want ≈ %g", got, ra)
	}
}

// TestParallelPinUnpinLifecycle checks a pinned price takes effect on the
// very next iteration (the FlowBlock-local copies are written through),
// survives local updates, and evolves again after UnpinPrices.
func TestParallelPinUnpinLifecycle(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	if err := pa.FlowletStart(1, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	route, err := topo.Route(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	down := []topology.LinkID{route[len(route)-1]}
	prices := make([]float64, 1)

	pa.PinPrices(down, []float64{40})
	pa.Iterate()
	pa.LinkPrices(down, prices)
	if prices[0] != 40 {
		t.Fatalf("pinned price after Iterate = %g, want 40", prices[0])
	}
	// The pin reached the rate update immediately: a path price ≥ 40 caps
	// the rate near w/40.
	w := topo.Config().LinkCapacity
	if rate := pa.Rates()[1]; rate > w/40 {
		t.Fatalf("rate %g exceeds w/pinned-price %g", rate, w/40)
	}
	// Unpinned, one lone flow cannot justify a price of 40; local updates
	// pull it down.
	pa.UnpinPrices(down)
	for i := 0; i < 50; i++ {
		pa.Iterate()
	}
	pa.LinkPrices(down, prices)
	if prices[0] >= 40 {
		t.Fatalf("price after unpinning = %g, want < 40 (local control)", prices[0])
	}
	// UnpinPrices before any PinPrices is a no-op, not a panic.
	fresh, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	fresh.UnpinPrices(down)
}

// TestParallelSeedPricesWarmRestart mirrors the sequential warm-restart
// check: replaying LiveFlows and seeding LinkPrices onto a fresh parallel
// allocator reproduces bit-identical rates from the first iteration on.
func TestParallelSeedPricesWarmRestart(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	orig, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 4, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	if err := orig.SetFlows(randomParallelFlows(topo.NumServers(), 64, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		orig.Iterate()
	}
	live := orig.LiveFlows()
	links := make([]topology.LinkID, topo.NumLinks())
	for i := range links {
		links[i] = topology.LinkID(i)
	}
	prices := make([]float64, len(links))
	orig.LinkPrices(links, prices)

	warm, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 4, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if err := warm.SetFlows(live); err != nil {
		t.Fatal(err)
	}
	warm.SeedPrices(links, prices)
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

// TestParallelBoundaryUncoveredLinks pins the behaviour on links outside
// every LinkBlock (a WithAllocator topology's allocator uplinks): digests
// read zero, prices read the initial 1, and imports are ignored without
// panicking.
func TestParallelBoundaryUncoveredLinks(t *testing.T) {
	cfg := topology.Config{
		Racks: 4, ServersPerRack: 4, Spines: 2, LinkCapacity: 10e9,
		WithAllocator: true,
	}
	topo, err := topology.NewTwoTier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	var uncovered []topology.LinkID
	for l := 0; l < topo.NumLinks(); l++ {
		if pa.ownerLB[l] == nil {
			uncovered = append(uncovered, topology.LinkID(l))
		}
	}
	if len(uncovered) == 0 {
		t.Fatal("WithAllocator topology has no uncovered links; test premise broken")
	}
	if err := pa.FlowletStart(1, 0, 5, 1); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(uncovered))
	pa.SetExternalLoads(uncovered, vals, vals)
	pa.PinPrices(uncovered, vals)
	pa.SeedPrices(uncovered, vals)
	pa.UnpinPrices(uncovered)
	pa.Iterate()
	loads := make([]float64, len(uncovered))
	hd := make([]float64, len(uncovered))
	pa.BoundaryDigest(uncovered, loads, hd)
	prices := make([]float64, len(uncovered))
	pa.LinkPrices(uncovered, prices)
	for i := range uncovered {
		if loads[i] != 0 || hd[i] != 0 {
			t.Fatalf("uncovered link %d digest %g/%g, want zeros", uncovered[i], loads[i], hd[i])
		}
		if prices[i] != 1 {
			t.Fatalf("uncovered link %d price %g, want 1", uncovered[i], prices[i])
		}
	}
}
