package norm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/num"
	"repro/internal/topology"
)

// fnormRef is F-NORM's per-flow sweep as it was before the branch-free,
// route-length-specialised kernel: a range loop over each route with
// `if r > worst`, and a division only for flows that cross an over-capacity
// link. It reads the per-flow Route slices rather than the CSR arena.
func fnormRef(p *num.Problem, rates, loads []float64) []float64 {
	out := make([]float64, len(rates))
	for i, f := range p.Flows {
		worst := 0.0
		for _, l := range f.Route {
			load := loads[l]
			if p.ExternalLoads != nil {
				load += p.ExternalLoads[l]
			}
			if r := load / p.Capacities[l]; r > worst {
				worst = r
			}
		}
		if worst > 1 {
			out[i] = rates[i] / worst
		} else {
			out[i] = rates[i]
		}
	}
	return out
}

// TestFNormKernelEquivalence requires the kernel's normalized rates to be
// bit-identical to the reference loop's over seeded generated problems: real
// two-tier (2/4-link) and fat-tree (2/4/6-link) routes and hand-built routes
// of every length 1–6; rates scaled so that paths sit below, exactly at and
// above capacity; zero rates; external loads; and a churn sequence that
// swap-deletes rows from the middle of the index between calls.
func TestFNormKernelEquivalence(t *testing.T) {
	twoTier, err := topology.NewTwoTier(topology.Config{Racks: 6, ServersPerRack: 4, Spines: 3, LinkCapacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	fatTree, err := topology.NewFatTree(topology.FatTreeConfig{K: 4, LinkCapacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	fabric := func(topo *topology.Topology) func(*rand.Rand) []int32 {
		n := topo.NumServers()
		return func(rng *rand.Rand) []int32 {
			src := rng.Intn(n)
			dst := rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			route, err := topo.RouteInto(nil, src, dst, rng.Int())
			if err != nil {
				t.Fatal(err)
			}
			return route
		}
	}
	const handLinks = 24
	cases := []struct {
		name     string
		numLinks int
		route    func(*rand.Rand) []int32
		external bool
	}{
		{"two-tier", twoTier.NumLinks(), fabric(twoTier), false},
		{"fat-tree", fatTree.NumLinks(), fabric(fatTree), true},
		{"lengths-1-6", handLinks, func(rng *rand.Rand) []int32 {
			perm := rng.Perm(handLinks)[:1+rng.Intn(topology.MaxRouteLinks)]
			route := make([]int32, len(perm))
			for i, l := range perm {
				route[i] = int32(l)
			}
			return route
		}, true},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				p := &num.Problem{}
				for l := 0; l < tc.numLinks; l++ {
					p.Capacities = append(p.Capacities, 10e9*(0.5+rng.Float64()))
				}
				if tc.external {
					p.ExternalLoads = make([]float64, tc.numLinks)
					for l := range p.ExternalLoads {
						if l%3 == 0 {
							p.ExternalLoads[l] = 8e9 * rng.Float64()
						}
					}
				}
				for i := 0; i < 150; i++ {
					p.AppendFlow(num.Flow{Route: tc.route(rng)})
				}
				f := NewFNorm()
				var out []float64
				moved := 0 // swap-deletes that copied the last row into a gap
				for round := 0; round < 30; round++ {
					switch {
					case round >= 5 && round < 15:
						for i := 0; i < 14 && len(p.Flows) > 4; i++ {
							j := rng.Intn(len(p.Flows))
							if j < len(p.Flows)-1 {
								moved++
							}
							p.RemoveFlowSwap(j)
						}
					default:
						for i := 0; i < 10; i++ {
							p.AppendFlow(num.Flow{Route: tc.route(rng)})
						}
					}
					// The scale sweeps the fabric from idle to several times
					// over capacity, so worst ratios fall on both sides of 1.
					scale := 3e9 * float64(round%6) / float64(1+len(p.Flows)/20)
					rates := make([]float64, len(p.Flows))
					for i := range rates {
						if i%7 != 0 { // every seventh flow is idle
							rates[i] = scale * rng.Float64()
						}
					}
					loads := num.LinkLoads(p, rates, nil)
					if round%4 == 1 {
						// Put one link exactly at capacity: its ratio is 1.0
						// and the flows on it must pass through unscaled.
						l := p.Flows[0].Route[0]
						p.Capacities[l] = loads[l]
						if p.ExternalLoads != nil {
							p.Capacities[l] += p.ExternalLoads[l]
						}
						if p.Capacities[l] == 0 {
							p.Capacities[l] = 1
						}
					}
					want := fnormRef(p, rates, loads)
					out = f.NormalizeLoads(p, rates, loads, out)
					if len(out) != len(want) {
						t.Fatalf("round %d: %d normalized rates, reference has %d", round, len(out), len(want))
					}
					scaled := 0
					for i := range want {
						if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
							t.Fatalf("round %d flow %d (route %v): normalized %v (%#x), reference %v (%#x)", round, i,
								p.Flows[i].Route, out[i], math.Float64bits(out[i]), want[i], math.Float64bits(want[i]))
						}
						if want[i] != rates[i] {
							scaled++
						}
					}
					if round%6 == 5 && (scaled == 0 || scaled == len(want)) {
						t.Fatalf("round %d: %d of %d flows scaled; the case should mix congested and uncongested paths", round, scaled, len(want))
					}
				}
				if moved == 0 {
					t.Fatal("the churn sequence never swap-deleted from the middle of the index")
				}
			})
		}
	}
}
