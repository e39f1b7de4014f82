package core

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// heldLoadThreshold is the notification threshold of TestHeldLoadWithinCapacity,
// and heldLoadHeadroom the capacity fraction its allocators withhold.
const (
	heldLoadThreshold = 0.01
	heldLoadHeadroom  = heldLoadThreshold
)

// TestHeldLoadWithinCapacity: an endpoint sends at the rate AppendUpdates
// last gave its flow (0 before the first), not at the allocator's current
// rate, and the two differ by up to the notification threshold. The headroom
// the allocator withholds, equal to the threshold, is what keeps the load
// endpoints actually offer within every link's capacity: a rate that fell by
// less than the threshold since it was reported is at most 1/(1-threshold)
// times the current one, and F-NORM holds the current load to (1-headroom)
// of the capacity. Over seeded random two-tier fabrics, flowlet churn and
// capacity changes, after every Iterate the held rates summed over each
// link's flows must stay within its raw capacity, up to rounding.
func TestHeldLoadWithinCapacity(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		racks := 2 << rng.Intn(2)
		topo, err := topology.NewTwoTier(topology.Config{
			Racks:          racks,
			ServersPerRack: 2 + rng.Intn(4),
			Spines:         1 + rng.Intn(3),
			LinkCapacity:   10e9,
			LinkDelay:      1e-6,
		})
		if err != nil {
			t.Fatal(err)
		}
		pa, err := NewParallelAllocator(ParallelConfig{
			Topology:  topo,
			Blocks:    1 << rng.Intn(2),
			Gamma:     0.4,
			Headroom:  heldLoadHeadroom,
			Normalize: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pa.Close()

		n := topo.NumServers()
		capacity := topo.Capacities()
		routes := make(map[FlowID]topology.Path)
		held := make(map[FlowID]float64)
		var live []FlowID
		next := FlowID(0)
		var updates []RateUpdate
		load := make([]float64, topo.NumLinks())
		for it := 0; it < 400; it++ {
			for k := rng.Intn(6); k > 0 && len(live) > 0; k-- {
				i := rng.Intn(len(live))
				id := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := pa.FlowletEnd(id); err != nil {
					t.Fatal(err)
				}
				delete(routes, id)
				delete(held, id)
			}
			for k := rng.Intn(8); k > 0; k-- {
				src := rng.Intn(n)
				dst := (src + 1 + rng.Intn(n-1)) % n
				route, err := topo.Route(src, dst, int(next))
				if err != nil {
					t.Fatal(err)
				}
				if err := pa.FlowletStart(next, src, dst, 0.5+3*rng.Float64()); err != nil {
					t.Fatal(err)
				}
				routes[next] = route
				live = append(live, next)
				next++
			}
			if rng.Intn(20) == 0 {
				l := topology.LinkID(rng.Intn(topo.NumLinks()))
				c := topo.Link(l).Capacity * (0.25 + 1.5*rng.Float64())
				if err := pa.SetLinkCapacity(l, c); err != nil {
					t.Fatal(err)
				}
				capacity[l] = c
			}

			pa.Iterate()
			updates = pa.AppendUpdates(heldLoadThreshold, updates[:0])
			for _, u := range updates {
				held[u.Flow] = u.Rate
			}
			clear(load)
			for _, id := range live {
				for _, l := range routes[id] {
					load[l] += held[id]
				}
			}
			for l, c := range capacity {
				if load[l] > c*(1+1e-12) {
					t.Fatalf("seed %d iteration %d: link %d holds %.6g b/s of held rates over its capacity %.6g (%.3g%% over)",
						seed, it, l, load[l], c, 100*(load[l]/c-1))
				}
			}
		}
	}
}
