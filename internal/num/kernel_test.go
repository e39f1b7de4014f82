package num

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// rateUpdateLogRef is the log-utility rate update as it was before the
// route-length-specialised kernels: one loop nest, range loops over every
// route, `if` clamps. It reads the per-flow Route slices rather than the CSR
// arena, so it is also an oracle for the arena's churn maintenance. The
// kernels must reproduce its rates, loads and Hessian diagonals bit for bit.
func rateUpdateLogRef(p *Problem, prices, rates, loads, hdiag []float64, hessian bool) {
	clear(loads)
	clear(hdiag)
	for i, f := range p.Flows {
		ps := 0.0
		for _, l := range f.Route {
			ps += prices[l]
		}
		if ps < minPathPrice {
			ps = minPathPrice
		}
		var x, d float64
		if w, log := logWeight(f); log {
			x = w / ps
			d = -w / (ps * ps)
		} else {
			x = f.Util.Rate(ps)
			d = f.Util.RateDeriv(ps)
		}
		if p.MaxFlowRate > 0 && x > p.MaxFlowRate {
			x = p.MaxFlowRate
		}
		rates[i] = x
		for _, l := range f.Route {
			loads[l] += x
			if hessian {
				hdiag[l] += d
			}
		}
	}
}

// nedPriceUpdateRef is NED's per-link price update as it was before its
// loop-invariant reads were hoisted, external terms and pins included.
func nedPriceUpdateRef(p *Problem, prices, loads, hdiag []float64, gamma float64) {
	for l := range prices {
		g := loads[l] - p.Capacities[l]
		h := hdiag[l]
		if p.ExternalLoads != nil {
			g += p.ExternalLoads[l]
		}
		if p.ExternalHdiag != nil {
			h += p.ExternalHdiag[l]
		}
		if h == 0 {
			prices[l] *= 0.5
			continue
		}
		price := prices[l] - gamma*g/h
		if price < 0 {
			price = 0
		}
		prices[l] = price
	}
	for l, pin := range p.PinnedPrices {
		if pin >= 0 {
			prices[l] = pin
		}
	}
}

// fabricRoutes returns a route generator over a real fabric: two-tier routes
// are 2 or 4 links long, fat-tree routes 2, 4 or 6.
func fabricRoutes(t *testing.T, topo *topology.Topology) func(rng *rand.Rand) []int32 {
	t.Helper()
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

// anyLengthRoutes returns a generator of hand-built routes of every length
// from 1 to topology.MaxRouteLinks, odd ones included, over numLinks links.
func anyLengthRoutes(numLinks int) func(rng *rand.Rand) []int32 {
	return func(rng *rand.Rand) []int32 {
		perm := rng.Perm(numLinks)[:1+rng.Intn(topology.MaxRouteLinks)]
		route := make([]int32, len(perm))
		for i, l := range perm {
			route[i] = int32(l)
		}
		return route
	}
}

// kernelCase is one generated problem family of the equivalence property.
type kernelCase struct {
	name     string
	numLinks int
	capacity float64
	route    func(rng *rand.Rand) []int32
	// mixed draws every fifth flow with an alpha-fair utility, which routes
	// the whole problem through rateUpdateGeneric.
	mixed bool
	// boundary sets ExternalLoads/ExternalHdiag on a quarter of the links
	// and pins another quarter, some of them at price zero.
	boundary bool
	// zeroPrices starts every price at zero, so every path price clamps to
	// minPathPrice and every rate sits at the MaxFlowRate cap.
	zeroPrices bool
}

func kernelCases(t *testing.T) []kernelCase {
	t.Helper()
	twoTier, err := topology.NewTwoTier(topology.Config{Racks: 6, ServersPerRack: 4, Spines: 3, LinkCapacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	fatTree, err := topology.NewFatTree(topology.FatTreeConfig{K: 4, LinkCapacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	return []kernelCase{
		{name: "two-tier", numLinks: twoTier.NumLinks(), capacity: 10e9, route: fabricRoutes(t, twoTier)},
		{name: "fat-tree", numLinks: fatTree.NumLinks(), capacity: 10e9, route: fabricRoutes(t, fatTree)},
		{name: "lengths-1-6", numLinks: 24, capacity: 10e9, route: anyLengthRoutes(24)},
		{name: "boundary", numLinks: fatTree.NumLinks(), capacity: 10e9, route: fabricRoutes(t, fatTree), boundary: true},
		{name: "zero-prices", numLinks: 24, capacity: 10e9, route: anyLengthRoutes(24), zeroPrices: true},
		{name: "mixed-utilities", numLinks: 24, capacity: 10e9, route: anyLengthRoutes(24), mixed: true},
	}
}

func (kc kernelCase) flow(rng *rand.Rand, i int) Flow {
	f := Flow{Route: kc.route(rng), Util: LogUtility{W: kc.capacity * (0.25 + 3*rng.Float64())}}
	if kc.mixed && i%5 == 0 {
		f.Util = AlphaFairUtility{W: kc.capacity, Alpha: 2}
	}
	return f
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestKernelEquivalence is the contract of the specialised kernels: over
// seeded generated problems — real two-tier and fat-tree routes, hand-built
// routes of every length 1–6, clamped all-zero-price paths with every flow at
// the rate cap, external loads and pins, a mixed-utility problem — and across
// a churn sequence that swap-deletes rows from the middle of the index and
// appends new ones, a NED step leaves rates, loads, Hessian diagonals and
// prices bit-identical to the reference loops, and so does the non-Hessian
// rate update the first-order solvers use.
func TestKernelEquivalence(t *testing.T) {
	for _, kc := range kernelCases(t) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", kc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				p := &Problem{MaxFlowRate: kc.capacity}
				for l := 0; l < kc.numLinks; l++ {
					p.Capacities = append(p.Capacities, kc.capacity*(0.5+rng.Float64()))
				}
				if kc.boundary {
					p.ExternalLoads = make([]float64, kc.numLinks)
					p.ExternalHdiag = make([]float64, kc.numLinks)
					p.PinnedPrices = make([]float64, kc.numLinks)
					for l := range p.PinnedPrices {
						p.PinnedPrices[l] = -1
						switch l % 4 {
						case 0:
							p.ExternalLoads[l] = kc.capacity * rng.Float64()
							p.ExternalHdiag[l] = -kc.capacity * rng.Float64()
						case 1:
							p.PinnedPrices[l] = float64(l%3) * rng.Float64() // a third pinned at 0
						}
					}
				}
				st := NewState(p)
				if kc.zeroPrices {
					clear(st.Prices)
				}
				next := 0
				add := func() {
					p.AppendFlow(kc.flow(rng, next))
					next++
					st.Resize(len(p.Flows))
				}
				moved := 0 // swap-deletes that copied the last row into a gap
				remove := func() {
					i := rng.Intn(len(p.Flows))
					last := len(p.Flows) - 1
					if i < last {
						moved++
					}
					st.Rates[i] = st.Rates[last]
					p.RemoveFlowSwap(i)
					st.Resize(last)
				}
				for i := 0; i < 120; i++ {
					add()
				}

				ned := &NED{Gamma: 0.4}
				refPrices := append([]float64(nil), st.Prices...)
				refLoads := make([]float64, kc.numLinks)
				refHdiag := make([]float64, kc.numLinks)
				var firstOrder scratch
				for round := 0; round < 40; round++ {
					// Shrink to a handful of flows, then regrow, so rows
					// move and are re-appended under the kernels' feet.
					switch {
					case round >= 5 && round < 15:
						for i := 0; i < 11 && len(p.Flows) > 4; i++ {
							remove()
						}
					case round >= 15 && round < 25:
						for i := 0; i < 9; i++ {
							add()
						}
					default:
						remove()
						add()
					}
					refRates := make([]float64, len(p.Flows))

					// Non-Hessian arm, from the same prices: rates and loads
					// match, the Hessian scratch stays untouched (zero).
					rateUpdateLogRef(p, refPrices, refRates, refLoads, refHdiag, false)
					rateUpdate(p, st, &firstOrder, false, minPathPrice)
					bitsEqual(t, "first-order rates", st.Rates, refRates)
					bitsEqual(t, "first-order loads", firstOrder.loads, refLoads)
					bitsEqual(t, "first-order hdiag", firstOrder.hdiag, refHdiag)

					rateUpdateLogRef(p, refPrices, refRates, refLoads, refHdiag, true)
					nedPriceUpdateRef(p, refPrices, refLoads, refHdiag, 0.4)
					ned.Step(p, st)
					loads, hdiag := ned.LastLoads()
					bitsEqual(t, "rates", st.Rates, refRates)
					bitsEqual(t, "loads", loads, refLoads)
					bitsEqual(t, "hdiag", hdiag, refHdiag)
					bitsEqual(t, "prices", st.Prices, refPrices)
				}
				if moved == 0 {
					t.Fatal("the churn sequence never swap-deleted from the middle of the index")
				}
				if kc.mixed == p.Compiled().AllLog() {
					t.Fatalf("mixed=%v but AllLog()=%v: the case exercises the wrong rate-update path", kc.mixed, p.Compiled().AllLog())
				}
			})
		}
	}
}

// TestOrderedBitsMax pins the identity the branch-free sweep rests on: the
// integer max over OrderedBits, floored at OrderedBits(1), is the float
// max(1, a, b) for every non-NaN input — negatives, signed zeros, subnormals
// and infinities included.
func TestOrderedBitsMax(t *testing.T) {
	vals := []float64{
		math.Inf(-1), -math.MaxFloat64, -2, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.5, 2,
		math.MaxFloat64, math.Inf(1),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, a := range vals {
		if math.IsNaN(a) {
			continue
		}
		if got := FromOrderedBits(OrderedBits(a)); math.Float64bits(got) != math.Float64bits(a) {
			t.Fatalf("FromOrderedBits(OrderedBits(%v)) = %v", a, got)
		}
		for _, b := range vals {
			if math.IsNaN(b) {
				continue
			}
			want := 1.0
			if a > want {
				want = a
			}
			if b > want {
				want = b
			}
			got := FromOrderedBits(max(OrderedBits(1), OrderedBits(a), OrderedBits(b)))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("max(1, %v, %v) = %v via ordered bits, want %v", a, b, got, want)
			}
		}
	}
	// A NaN is outside the contract and the kernels' callers keep it out
	// (capacities validated > 0, finite loads); this records what would
	// happen, so a change of behaviour is at least noticed. The old
	// `r > worst` skipped every NaN; the integer max skips one with the sign
	// bit set (amd64's 0/0) and is captured by one with it clear.
	posNaN := math.Float64frombits(0x7ff8000000000001)
	negNaN := math.Float64frombits(0xfff8000000000001)
	if got := FromOrderedBits(max(OrderedBits(1), OrderedBits(2), OrderedBits(negNaN))); got != 2 {
		t.Fatalf("max(1, 2, -NaN) = %v via ordered bits, want 2", got)
	}
	if got := FromOrderedBits(max(OrderedBits(1), OrderedBits(2), OrderedBits(posNaN))); !math.IsNaN(got) {
		t.Fatalf("max(1, 2, +NaN) = %v via ordered bits, want NaN", got)
	}
}
