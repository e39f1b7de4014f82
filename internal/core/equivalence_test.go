package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// The sequential reference's side of the boundary exchange, written on its
// num.Problem and state: the fields ParallelAllocator's boundary hooks mirror
// per LinkBlock.

func seqSetExternalLoads(a *Allocator, links []topology.LinkID, loads, hdiag []float64) {
	if a.problem.ExternalLoads == nil {
		a.problem.ExternalLoads = make([]float64, len(a.problem.Capacities))
		a.problem.ExternalHdiag = make([]float64, len(a.problem.Capacities))
	}
	for i, l := range links {
		a.problem.ExternalLoads[l] = loads[i]
		a.problem.ExternalHdiag[l] = hdiag[i]
	}
}

func seqPinPrices(a *Allocator, links []topology.LinkID, prices []float64) {
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

// seqSetLinkCapacity replaces one link's raw capacity in the sequential
// reference's problem, headroom-scaled as NewAllocator scales it.
func seqSetLinkCapacity(t *testing.T, a *Allocator, l topology.LinkID, capacity float64) {
	t.Helper()
	if err := a.Problem().SetCapacity(int(l), capacity*(1-a.Config().UpdateThreshold)); err != nil {
		t.Fatal(err)
	}
}

// seqDigest fills loads and hdiag with the sequential allocator's own flows'
// sums on links from its most recent Iterate (zeros while it has no flows).
func seqDigest(a *Allocator, links []topology.LinkID, loads, hdiag []float64) {
	if a.NumFlows() == 0 {
		clear(loads[:len(links)])
		clear(hdiag[:len(links)])
		return
	}
	ll, hh := a.ned.LastLoads()
	for i, l := range links {
		loads[i], hdiag[i] = ll[l], hh[l]
	}
}

// TestOneBlockMatchesSequential is the proof that the daemon's one engine
// keeps the reference's bits: core.Allocator and a one-block ParallelAllocator
// configured as server.New configures it (γ 0.4, 1% headroom, F-NORM) run one
// seeded churn sequence — fractional weights, external loads, pinned prices, a
// capacity change and a stretch with no flows — on two-tier and fat-tree
// fabrics with an allocator host, and must agree on every rate bit in the same
// order, every fabric-link price bit and every update after every iteration.
// The allocator uplinks carry no flow and belong to no LinkBlock; the parallel
// engine reports their price as 1.
func TestOneBlockMatchesSequential(t *testing.T) {
	twoTier, err := topology.NewTwoTier(topology.Config{Racks: 6, ServersPerRack: 6, Spines: 3, LinkCapacity: 10e9, WithAllocator: true})
	if err != nil {
		t.Fatal(err)
	}
	topos := map[string]*topology.Topology{"two-tier": twoTier}
	for _, k := range []int{4, 8} {
		ft, err := topology.NewFatTree(topology.FatTreeConfig{K: k, LinkCapacity: 10e9, WithAllocator: true})
		if err != nil {
			t.Fatal(err)
		}
		topos[fmt.Sprintf("fat-tree-k%d", k)] = ft
	}
	for name, topo := range topos {
		t.Run(name, func(t *testing.T) {
			checkOneBlockMatchesSequential(t, topo)
		})
	}
}

func checkOneBlockMatchesSequential(t *testing.T, topo *topology.Topology) {
	const threshold = 0.01
	seq, err := NewAllocator(Config{Topology: topo, UpdateThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 1, Gamma: 0.4, Headroom: threshold, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()

	alloc, ok := topo.AllocatorNode()
	if !ok {
		t.Fatal("fabric has no allocator host")
	}
	var fabric, uplinks []topology.LinkID
	for _, l := range topo.Links() {
		if l.Src == alloc || l.Dst == alloc {
			uplinks = append(uplinks, l.ID)
		} else {
			fabric = append(fabric, l.ID)
		}
	}

	rng := rand.New(rand.NewSource(int64(topo.NumLinks())))
	n := topo.NumServers()
	var live []FlowID
	next := FlowID(1)
	start := func() {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		weight := 0.25 + 3*rng.Float64()
		if err := seq.FlowletStart(next, src, dst, weight); err != nil {
			t.Fatal(err)
		}
		if err := pa.FlowletStart(next, src, dst, weight); err != nil {
			t.Fatal(err)
		}
		live = append(live, next)
		next++
	}
	end := func() {
		i := rng.Intn(len(live))
		if err := seq.FlowletEnd(live[i]); err != nil {
			t.Fatal(err)
		}
		if err := pa.FlowletEnd(live[i]); err != nil {
			t.Fatal(err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}

	// Boundary imports on fabric links only: the parallel engine ignores
	// allocator uplinks, where no flow's rate could tell them apart anyway.
	var extLinks, pinLinks []topology.LinkID
	var extLoads, extHdiag, pinVals []float64
	for i, l := range fabric {
		switch {
		case i%7 == 0:
			extLinks = append(extLinks, l)
			extLoads = append(extLoads, 4e9*rng.Float64())
			extHdiag = append(extHdiag, -2e9*rng.Float64())
		case i%13 == 5:
			pinLinks = append(pinLinks, l)
			pinVals = append(pinVals, 3*rng.Float64())
		}
	}
	seqSetExternalLoads(seq, extLinks, extLoads, extHdiag)
	pa.SetExternalLoads(extLinks, extLoads, extHdiag)
	seqPinPrices(seq, pinLinks, pinVals)
	pa.PinPrices(pinLinks, pinVals)

	for i := 0; i < 3*n; i++ {
		start()
	}
	var updates []RateUpdate
	prices := make([]float64, topo.NumLinks())
	all := make([]topology.LinkID, topo.NumLinks())
	for i := range all {
		all[i] = topology.LinkID(i)
	}
	idle := 0
	for round := 0; round < 60; round++ {
		switch {
		case round == 20:
			l := fabric[rng.Intn(len(fabric))]
			seqSetLinkCapacity(t, seq, l, 2.5e9)
			if err := pa.SetLinkCapacity(l, 2.5e9); err != nil {
				t.Fatal(err)
			}
		case round == 30:
			for len(live) > 0 {
				end()
			}
		case round > 30 && round < 36:
			// The idle stretch: neither engine iterates.
		case round == 36:
			for i := 0; i < 2*n; i++ {
				start()
			}
		default:
			end()
			start()
		}
		if len(live) == 0 {
			idle++
		}

		want := seq.Iterate()
		pa.Iterate()
		updates = pa.AppendUpdates(threshold, updates[:0])
		if len(updates) != len(want) {
			t.Fatalf("round %d: %d updates, sequential %d", round, len(updates), len(want))
		}
		for i := range want {
			if updates[i].Flow != want[i].Flow ||
				math.Float64bits(updates[i].Rate) != math.Float64bits(want[i].Rate) {
				t.Fatalf("round %d update %d: %+v, sequential %+v", round, i, updates[i], want[i])
			}
		}
		i := 0
		pa.ForEachRate(func(id FlowID, rate float64) {
			if id != seq.ids[i] || math.Float64bits(rate) != math.Float64bits(seq.normalized[i]) {
				t.Fatalf("round %d slot %d: flow %d rate %v, sequential flow %d rate %v",
					round, i, id, rate, seq.ids[i], seq.normalized[i])
			}
			i++
		})
		if i != seq.NumFlows() {
			t.Fatalf("round %d: %d rates, sequential %d", round, i, seq.NumFlows())
		}
		pa.LinkPrices(all, prices)
		for _, l := range fabric {
			if math.Float64bits(prices[l]) != math.Float64bits(seq.state.Prices[l]) {
				t.Fatalf("round %d link %d: price %v, sequential %v", round, l, prices[l], seq.state.Prices[l])
			}
		}
		for _, l := range uplinks {
			if prices[l] != 1 {
				t.Fatalf("round %d allocator uplink %d: price %v, want 1", round, l, prices[l])
			}
		}
	}
	if idle == 0 {
		t.Error("the sequence never reached the idle stretch")
	}
}
