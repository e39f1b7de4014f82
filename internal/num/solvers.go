package num

import (
	"fmt"
	"math"
)

// Solver performs one iteration of a NUM price-update algorithm. All solvers
// follow the same two-phase iteration structure as Algorithm 1: a rate-update
// step that sets each flow's rate from the current prices, followed by a
// price-update step that adjusts each link's price from the resulting
// over-allocation G_l; they differ in how the price step is scaled.
type Solver interface {
	// Name returns the solver's short name for reports ("NED",
	// "Gradient", ...).
	Name() string
	// Step performs one full iteration (rate update + price update) on
	// the problem, mutating st in place.
	Step(p *Problem, st *State)
	// LastLoads returns the per-link loads Σ_{s∈S(l)} x_s and Hessian
	// diagonals the most recent Step's rate update accumulated — for the
	// rates that Step left in st.Rates, bit for bit what LinkLoads would
	// recompute. The slices alias solver scratch: they are valid until the
	// next Step and must not be modified. hdiag is nil for solvers that do
	// not compute the Hessian diagonal. The allocator normalizes against
	// these loads, and a sharded one exports its boundary-link demand from
	// them, without a second pass over the flows.
	LastLoads() (loads, hdiag []float64)
}

// scratch holds per-iteration working buffers shared by solvers to avoid
// reallocating on every step.
type scratch struct {
	loads []float64 // per-link aggregate rate
	hdiag []float64 // per-link Hessian diagonal H_ll
}

func (s *scratch) ensure(numLinks int) {
	if cap(s.loads) < numLinks {
		s.loads = make([]float64, numLinks)
		s.hdiag = make([]float64, numLinks)
	}
	s.loads = s.loads[:numLinks]
	s.hdiag = s.hdiag[:numLinks]
}

// rateUpdate performs Equation 3: x_s = (U'_s)⁻¹(Σ_{l∈L(s)} p_l). It also
// accumulates per-link loads and, when hessian is true, the exact Hessian
// diagonal H_ll = Σ_{s∈S(l)} ∂x_s/∂p_l used by NED.
//
// minPrice clamps the path price away from zero so log-utility rates stay
// finite when all prices on a path drop to zero.
func rateUpdate(p *Problem, st *State, sc *scratch, hessian bool, minPrice float64) {
	c := p.Compiled()
	sc.ensure(len(p.Capacities))
	loads, hdiag := sc.loads, sc.hdiag
	clear(loads)
	clear(hdiag)
	if c.AllLog() {
		rateUpdateLog(c, p.MaxFlowRate, st.Prices, st.Rates, loads, hdiag, hessian, minPrice)
		return
	}
	rateUpdateGeneric(c, p.MaxFlowRate, st, loads, hdiag, hessian, minPrice)
}

// rateUpdateLog is the monomorphized log-utility fast path: every flow's rate
// is w/p and its sensitivity -w/p², computed straight from the CSR index with
// no interface dispatch and no per-flow pointer chasing.
//
// The per-flow body is straight-line for the two route lengths that carry the
// traffic — 4 links, rack to spine to rack, on a two-tier Clos (31 of 32
// uniformly random flows) and 6 links, through a core switch, on a fat-tree
// (94% at k=16): one slice-to-array conversion bounds the whole route, so the
// price gather and the load scatter carry no loop counter and no per-link
// range check, and consecutive flows overlap in the pipeline. Every other
// length — the 2-link route inside a rack included, whose own arm measured no
// gain — takes the loop. Every arm adds the prices and scatters x and d in
// route order, so the result is bit for bit the loop's (rateUpdateLogRef in
// the tests). hessian is loop-invariant: the first-order solvers skip the
// Hessian scatter through a branch that always goes the same way.
func rateUpdateLog(c *Compiled, maxRate float64, prices, rates, loads, hdiag []float64, hessian bool, minPrice float64) {
	routes, stride, lens := c.Routes, c.Stride, c.Len
	weights, rates := c.Weights[:len(lens)], rates[:len(lens)]
	if maxRate <= 0 {
		maxRate = math.Inf(1)
	}
	for i := range lens {
		o := i * stride
		var x, d float64
		switch lens[i] {
		case 4:
			r := (*[4]int32)(routes[o : o+4])
			x, d = logRate(weights[i], gather4(prices, r), minPrice, maxRate)
			scatter4(loads, r, x)
			if hessian {
				scatter4(hdiag, r, d)
			}
		case 6:
			r := (*[6]int32)(routes[o : o+6])
			x, d = logRate(weights[i], gather6(prices, r), minPrice, maxRate)
			scatter6(loads, r, x)
			if hessian {
				scatter6(hdiag, r, d)
			}
		default:
			route := routes[o : o+int(lens[i])]
			ps := 0.0
			for _, l := range route {
				ps += prices[l]
			}
			x, d = logRate(weights[i], ps, minPrice, maxRate)
			for _, l := range route {
				loads[l] += x
			}
			if hessian {
				for _, l := range route {
					hdiag[l] += d
				}
			}
		}
		rates[i] = x
	}
}

// NEDRateUpdate is NED's rate update (Equation 3 plus the load and Hessian
// scatter) for an all-log-utility index that no Problem owns: it sets rates
// from prices and accumulates into loads and hdiag, which the caller has
// cleared. A core.ParallelAllocator FlowBlock runs it on its local copy of its
// two LinkBlocks — the same kernel NED.Step runs on the whole fabric.
func NEDRateUpdate(c *Compiled, maxRate float64, prices, rates, loads, hdiag []float64) {
	rateUpdateLog(c, maxRate, prices, rates, loads, hdiag, true, minPathPrice)
}

// logRate is Equation 3 for a log utility at path price ps: the rate w/ps,
// floored at minPrice and capped at maxRate, and its sensitivity -w/ps².
func logRate(w, ps, minPrice, maxRate float64) (x, d float64) {
	if ps < minPrice {
		ps = minPrice
	}
	x = w / ps
	if x > maxRate {
		x = maxRate
	}
	return x, -w / (ps * ps)
}

// gather4 and gather6 sum a's entries at a fixed-length route's indices, left
// to right — the loop's order, so the sum is the loop's bit for bit (a leading
// 0+ only turns a -0 into +0, which no caller can observe).
func gather4(a []float64, r *[4]int32) float64 { return a[r[0]] + a[r[1]] + a[r[2]] + a[r[3]] }

func gather6(a []float64, r *[6]int32) float64 {
	return a[r[0]] + a[r[1]] + a[r[2]] + a[r[3]] + a[r[4]] + a[r[5]]
}

// scatter4 and scatter6 add v to a's entries at a fixed-length route's
// indices, in route order.
func scatter4(a []float64, r *[4]int32, v float64) {
	a[r[0]] += v
	a[r[1]] += v
	a[r[2]] += v
	a[r[3]] += v
}

func scatter6(a []float64, r *[6]int32, v float64) {
	a[r[0]] += v
	a[r[1]] += v
	a[r[2]] += v
	a[r[3]] += v
	a[r[4]] += v
	a[r[5]] += v
}

// OrderedBits returns x's IEEE-754 bit pattern as an int64. Among the values
// at or above +0 the integers order exactly as the floats do, and every
// negative float (and -0) maps below all of them, so for any non-NaN inputs
//
//	FromOrderedBits(max(OrderedBits(1), OrderedBits(a), OrderedBits(b)))
//
// is max(1, a, b) — computed with an integer compare and a conditional move
// per term, where the float max builtin costs a dozen dependent SSE
// instructions (its NaN and signed-zero fix-ups) and `if r > worst` a branch
// the predictor cannot learn. F-NORM's sweep (norm.ScaleByWorstRatio) is the
// one place that difference is a third of a pass. A NaN is not ordered: one
// with the sign bit clear compares above every float and wins the max, one
// with it set (what amd64 produces for 0/0) loses to everything — callers keep
// NaN out.
func OrderedBits(x float64) int64 { return int64(math.Float64bits(x)) }

// FromOrderedBits inverts OrderedBits.
func FromOrderedBits(b int64) float64 { return math.Float64frombits(uint64(b)) }

// rateUpdateGeneric handles problems mixing custom utilities: log-utility
// flows still take the inline formulas, the rest dispatch through the
// interface.
func rateUpdateGeneric(c *Compiled, maxRate float64, st *State, loads, hdiag []float64, hessian bool, minPrice float64) {
	prices, rates := st.Prices, st.Rates
	for i := range c.Len {
		route := c.Route(i)
		ps := 0.0
		for _, l := range route {
			ps += prices[l]
		}
		if ps < minPrice {
			ps = minPrice
		}
		var x, d float64
		if u := c.Utils[i]; u != nil {
			x = u.Rate(ps)
			if hessian {
				d = u.RateDeriv(ps)
			}
		} else {
			w := c.Weights[i]
			x = w / ps
			if hessian {
				d = -w / (ps * ps)
			}
		}
		if maxRate > 0 && x > maxRate {
			x = maxRate
		}
		rates[i] = x
		if hessian {
			for _, l := range route {
				loads[l] += x
				hdiag[l] += d
			}
		} else {
			for _, l := range route {
				loads[l] += x
			}
		}
	}
}

// minPathPrice is the floor on path prices used by all solvers to keep rates
// finite. With 10-400 Gbit/s links, a price of 1e-12 allows rates up to
// 1e12·w bits/s, far above any link capacity, so the floor never binds at the
// optimum. It does bind off the optimum: NEDPriceUpdate halves an idle link's
// price every iteration, so an idle path falls below the floor after ~40
// iterations, and a flow on it is capped at MaxFlowRate far sooner, once its
// path price drops below w/MaxFlowRate. In a churning daemon that is the
// common case, not a corner: at the repository benchmark's freerun-1k size
// (1 000 flows on the 1 024-host leaf-spine, after 1 000 end+start steps) 750
// of the 1 000 flows had a path price below 1e-12, and 823 a raw rate, before
// F-NORM, at MaxFlowRate. A capped flow's Hessian term is still -w/ps², about
// -w/1e-24 at the floor, so NED's step is ~1e-26 and the price never
// recovers; F-NORM, not NED, then decides the path's allocation (the
// price-floor trap, ROADMAP item 2).
const minPathPrice = 1e-12

// applyPins overwrites pinned link prices after a price update (see
// Problem.PinnedPrices): pinned links belong to a remote owner, so the local
// update's result for them is discarded in favour of the imported price.
func applyPins(p *Problem, st *State) {
	if p.PinnedPrices == nil {
		return
	}
	for l, pin := range p.PinnedPrices {
		if pin >= 0 {
			st.Prices[l] = pin
		}
	}
}

// NED is the Newton-Exact-Diagonal solver (Algorithm 1): the price update is
// scaled by the exactly computed Hessian diagonal,
//
//	p_l ← max(0, p_l − γ·G_l/H_ll)
//
// where G_l is the link's over-allocation and H_ll = Σ ∂x_s/∂p_l (negative),
// so over-allocated links raise their price proportionally to how strongly
// flows will react.
type NED struct {
	// Gamma is the step-size parameter γ; the paper uses values in
	// [0.2, 1.5] and defaults to 0.4 in simulations, 1.0 in analysis.
	Gamma float64
	// RT enables the reduced-precision "real-time" variant (NED-RT in
	// Figure 12): single-precision arithmetic and a fast reciprocal
	// approximation in the price update.
	RT bool

	sc scratch
}

// Name implements Solver.
func (n *NED) Name() string {
	if n.RT {
		return "NED-RT"
	}
	return "NED"
}

// Step implements Solver.
func (n *NED) Step(p *Problem, st *State) {
	gamma := n.Gamma
	if gamma == 0 {
		gamma = 1
	}
	rateUpdate(p, st, &n.sc, true, minPathPrice)
	if n.RT {
		nedPriceUpdateRT(gamma, st.Prices, n.sc.loads, n.sc.hdiag, p.Capacities, p.ExternalLoads, p.ExternalHdiag)
	} else {
		NEDPriceUpdate(gamma, st.Prices, n.sc.loads, n.sc.hdiag, p.Capacities, p.ExternalLoads, p.ExternalHdiag)
	}
	applyPins(p, st)
}

// NEDPriceUpdate is Algorithm 1's price step, p_l ← max(0, p_l − γ·G_l/H_ll),
// over one link space: loads and hdiag are what the rate update accumulated,
// ext and extH (nil for none) the remote shards' contributions, folded in as
// (load − cap) + ext. NED.Step runs it on the fabric's links and
// core.ParallelAllocator on each LinkBlock; both re-impose pinned prices
// afterwards.
//
// The per-link pass is the iteration's serial floor (it is most of a
// 1 000-flow step on a 3 072-link fabric), so everything loop-invariant is a
// local: stores to prices cannot force it to be re-read on every link.
func NEDPriceUpdate(gamma float64, prices, loads, hdiag, caps, ext, extH []float64) {
	loads, hdiag, caps = loads[:len(prices)], hdiag[:len(prices)], caps[:len(prices)]
	for l, price := range prices {
		g := loads[l] - caps[l]
		h := hdiag[l]
		if ext != nil {
			g += ext[l]
		}
		if extH != nil {
			h += extH[l]
		}
		if h == 0 {
			// No flows traverse the link: decay its price so the next
			// flowlet to use it is not throttled by a stale price.
			prices[l] = price * 0.5
			continue
		}
		price -= gamma * g / h
		if price < 0 {
			price = 0
		}
		prices[l] = price
	}
}

// nedPriceUpdateRT is NEDPriceUpdate with the step computed and the price
// stored in single precision — the NED-RT emulation of Figure 12, kept out of
// the loop every allocator iteration runs.
func nedPriceUpdateRT(gamma float64, prices, loads, hdiag, caps, ext, extH []float64) {
	for l, price := range prices {
		g := loads[l] - caps[l]
		h := hdiag[l]
		if ext != nil {
			g += ext[l]
		}
		if extH != nil {
			h += extH[l]
		}
		if h == 0 {
			prices[l] = price * 0.5
			continue
		}
		price -= float64(float32(gamma) * float32(g) / float32(h))
		if price < 0 {
			price = 0
		}
		prices[l] = float64(float32(price))
	}
}

// LastLoads implements Solver.
func (n *NED) LastLoads() (loads, hdiag []float64) { return n.sc.loads, n.sc.hdiag }

// Gradient is the gradient-projection solver (Low & Lapsley): prices move
// proportionally to the link's relative over-allocation,
// p_l ← max(0, p_l + γ·G_l/c_l). Because the step is not scaled by how
// sensitive flows actually are to the price (the Hessian), γ must be chosen
// conservatively, which makes the method slow to converge compared with NED
// and prone to sluggish reactions to churn.
//
// Prices are meaningful only when flow weights are on the same scale as link
// capacities (the convention used throughout this repository: weight = w ×
// link capacity), so that the optimal prices are O(1) like their initial
// value.
type Gradient struct {
	// Gamma is the dimensionless step size applied to the relative
	// over-allocation G_l/c_l (default 0.5).
	Gamma float64
	// RT enables the reduced-precision variant (Gradient-RT).
	RT bool

	sc scratch
}

// NewGradient returns a gradient-projection solver with the default step.
func NewGradient() *Gradient { return &Gradient{Gamma: 0.5} }

// Name implements Solver.
func (g *Gradient) Name() string {
	if g.RT {
		return "Gradient-RT"
	}
	return "Gradient"
}

// Step implements Solver.
func (g *Gradient) Step(p *Problem, st *State) {
	gamma := g.Gamma
	if gamma == 0 {
		gamma = 0.5
	}
	rateUpdate(p, st, &g.sc, false, minPathPrice)
	for l := range st.Prices {
		load := g.sc.loads[l]
		if p.ExternalLoads != nil {
			load += p.ExternalLoads[l]
		}
		over := (load - p.Capacities[l]) / p.Capacities[l]
		var delta float64
		if g.RT {
			delta = float64(float32(gamma) * float32(over))
		} else {
			delta = gamma * over
		}
		price := st.Prices[l] + delta
		if price < 0 {
			price = 0
		}
		st.Prices[l] = price
	}
	applyPins(p, st)
}

// LastLoads implements Solver; hdiag is nil because the gradient solver never
// computes the Hessian diagonal.
func (g *Gradient) LastLoads() (loads, hdiag []float64) { return g.sc.loads, nil }

// FGM is the Fast weighted Gradient Method (Beck et al. 2014): an accelerated
// gradient method whose step is scaled by a crude upper bound on the utility
// curvature rather than the exact Hessian diagonal, with Nesterov-style
// momentum on the prices. The paper observes that FGM "does not handle the
// stream of updates well" — under churn the momentum term keeps pushing
// prices and the allocations become unrealistic; Figure 12 shows this.
type FGM struct {
	// Gamma scales the gradient step (default 1).
	Gamma float64

	lip     []float64 // per-link crude curvature bound
	prev    []float64 // previous prices, for the momentum term
	tk      float64   // Nesterov momentum sequence value
	sc      scratch
	started bool
}

// NewFGM returns an FGM solver.
func NewFGM() *FGM { return &FGM{Gamma: 1} }

// Name implements Solver.
func (f *FGM) Name() string { return "FGM" }

// estimateLipschitz computes a crude per-link curvature bound: the number of
// flows sharing the link times the largest |RateDeriv| at the initial price
// of 1. This mirrors FGM's use of a worst-case constant instead of the exact
// per-iteration values NED computes; the bound goes stale as prices move and
// as flowlets churn, which is the source of its misbehaviour in Figure 12.
func (f *FGM) estimateLipschitz(p *Problem) []float64 {
	c := p.Compiled()
	share := make([]float64, len(p.Capacities))
	// For LogUtility |RateDeriv(1)| = w, so the fast path reduces to a max
	// over the dense weights.
	maxDeriv := 1.0
	for i, w := range c.Weights {
		if u := c.utility(i); u != nil {
			w = math.Abs(u.RateDeriv(1))
		}
		if w > maxDeriv {
			maxDeriv = w
		}
	}
	// Per-link flow counts come straight from the transposed index.
	_, linkOff := c.Transpose(len(p.Capacities))
	for l := range share {
		n := float64(linkOff[l+1] - linkOff[l])
		if n == 0 {
			n = 1
		}
		share[l] = n * maxDeriv
	}
	return share
}

// Step implements Solver.
func (f *FGM) Step(p *Problem, st *State) {
	gamma := f.Gamma
	if gamma == 0 {
		gamma = 1
	}
	if !f.started || len(f.prev) != len(st.Prices) {
		f.lip = f.estimateLipschitz(p)
		f.prev = append(f.prev[:0], st.Prices...)
		f.tk = 1
		f.started = true
	}
	rateUpdate(p, st, &f.sc, false, minPathPrice)

	tNext := (1 + math.Sqrt(1+4*f.tk*f.tk)) / 2
	momentum := (f.tk - 1) / tNext
	f.tk = tNext

	for l := range st.Prices {
		load := f.sc.loads[l]
		if p.ExternalLoads != nil {
			load += p.ExternalLoads[l]
		}
		over := load - p.Capacities[l]
		grad := gamma * over / f.lip[l]
		// Gradient step from the extrapolated point, then projection.
		extrap := st.Prices[l] + momentum*(st.Prices[l]-f.prev[l])
		price := extrap + grad
		if price < 0 {
			price = 0
		}
		f.prev[l] = st.Prices[l]
		st.Prices[l] = price
	}
	applyPins(p, st)
}

// LastLoads implements Solver; FGM computes no Hessian diagonal.
func (f *FGM) LastLoads() (loads, hdiag []float64) { return f.sc.loads, nil }

// NewtonLike is the measurement-based Newton-like method (Athuraliya & Low
// 2000): instead of computing H_ll exactly it estimates flow sensitivity by
// observing how the aggregate link load changed in response to the previous
// price change, averaged over a measurement window. The estimate lags the
// network and carries error, which is why the paper found the method slow and
// sometimes unstable.
type NewtonLike struct {
	// Gamma is the step size (default 0.5).
	Gamma float64
	// Window is the exponential averaging weight of the sensitivity
	// estimate in (0,1]; smaller values average over longer intervals.
	Window float64

	prevLoads  []float64
	prevPrices []float64
	estimate   []float64
	sc         scratch
	started    bool
}

// NewNewtonLike returns a Newton-like solver with the defaults used in the
// comparison experiments.
func NewNewtonLike() *NewtonLike { return &NewtonLike{Gamma: 0.5, Window: 0.25} }

// Name implements Solver.
func (n *NewtonLike) Name() string { return "Newton-like" }

// Step implements Solver.
func (n *NewtonLike) Step(p *Problem, st *State) {
	gamma := n.Gamma
	if gamma == 0 {
		gamma = 0.5
	}
	window := n.Window
	if window == 0 {
		window = 0.25
	}
	rateUpdate(p, st, &n.sc, false, minPathPrice)

	numLinks := len(p.Capacities)
	if !n.started || len(n.estimate) != numLinks {
		n.prevLoads = make([]float64, numLinks)
		n.prevPrices = make([]float64, numLinks)
		n.estimate = make([]float64, numLinks)
		copy(n.prevLoads, n.sc.loads)
		copy(n.prevPrices, st.Prices)
		n.started = true
		// First iteration: fall back to a gentle gradient step.
		for l := range st.Prices {
			price := st.Prices[l] + 0.05*(n.sc.loads[l]-p.Capacities[l])/p.Capacities[l]
			if price < 0 {
				price = 0
			}
			st.Prices[l] = price
		}
		applyPins(p, st)
		return
	}

	for l := range st.Prices {
		dPrice := st.Prices[l] - n.prevPrices[l]
		dLoad := n.sc.loads[l] - n.prevLoads[l]
		if math.Abs(dPrice) > 1e-15 {
			obs := dLoad / dPrice // observed sensitivity (negative when stable)
			n.estimate[l] = (1-window)*n.estimate[l] + window*obs
		}
		n.prevLoads[l] = n.sc.loads[l]
		n.prevPrices[l] = st.Prices[l]

		g := n.sc.loads[l] - p.Capacities[l]
		if p.ExternalLoads != nil {
			g += p.ExternalLoads[l]
		}
		est := n.estimate[l]
		var price float64
		if est < -1e-15 {
			price = st.Prices[l] - gamma*g/est
		} else {
			// No reliable estimate yet: gentle gradient step.
			price = st.Prices[l] + 0.05*g/p.Capacities[l]
		}
		if price < 0 {
			price = 0
		}
		st.Prices[l] = price
	}
	applyPins(p, st)
}

// LastLoads implements Solver; the sensitivity here is estimated, not summed.
func (n *NewtonLike) LastLoads() (loads, hdiag []float64) { return n.sc.loads, nil }

// SolveOptions configures Solve.
type SolveOptions struct {
	// MaxIterations bounds the number of solver steps (default 10000).
	MaxIterations int
	// Tolerance is the relative convergence tolerance on the maximum
	// price change between iterations (default 1e-9).
	Tolerance float64
}

// Solve iterates a solver until the prices stop changing (relative change
// below tol) or maxIter is reached, and returns the number of iterations
// executed. It is used to obtain reference optimal allocations (e.g. the
// denominator of Figure 13) and by the convergence tests.
func Solve(s Solver, p *Problem, st *State, opts SolveOptions) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxIter = 10000
	}
	tol := opts.Tolerance
	if tol == 0 {
		tol = 1e-9
	}
	st.Resize(len(p.Flows))
	prev := make([]float64, len(st.Prices))
	for iter := 1; iter <= maxIter; iter++ {
		copy(prev, st.Prices)
		s.Step(p, st)
		maxChange := 0.0
		for l := range st.Prices {
			denom := math.Max(math.Abs(prev[l]), 1e-12)
			change := math.Abs(st.Prices[l]-prev[l]) / denom
			if change > maxChange {
				maxChange = change
			}
		}
		if maxChange < tol {
			return iter, nil
		}
	}
	return maxIter, fmt.Errorf("num: %s did not converge within %d iterations", s.Name(), maxIter)
}
