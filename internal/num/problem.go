package num

import (
	"fmt"
	"math"
)

// Flow is one flow (flowlet) in a NUM problem: the links it traverses and the
// weight of its utility.
type Flow struct {
	// Route lists the link indices the flow traverses. It must be
	// non-empty: every flow passes through at least one link.
	Route []int32
	// Weight is w in the flow's utility w·log(x) (see LogUtility). Zero
	// means 1.
	Weight float64
}

// LogUtility returns w·log(x), the utility of a flow of weight w at rate x:
// the weighted log that makes the NUM objective proportional fairness (§3),
// and the one utility every solver here optimizes. It is -Inf at x <= 0.
func LogUtility(w, x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return w * math.Log(x)
}

// Problem is a static NUM instance: link capacities and a set of flows.
// Solvers iterate on a State derived from the problem.
//
// Copying a Problem by value is safe but forfeits the compiled-index cache:
// the copy detects that the cache belongs to the original and builds its own
// on first use.
type Problem struct {
	// Capacities holds the capacity of each link in bits per second.
	Capacities []float64
	// Flows is the set of flows to allocate. Prefer mutating it through
	// AppendFlow/RemoveFlowSwap, which keep the compiled CSR index (see
	// Compiled) in sync incrementally. Direct mutation is supported as long
	// as the flow count differs between solver steps; code that replaces
	// flows without changing the count must call Invalidate.
	Flows []Flow
	// MaxFlowRate caps each flow's rate in the rate-update step, modelling
	// the fact that an endpoint cannot send faster than its NIC. Zero
	// means no cap. Without a cap, a flow arriving on links whose prices
	// have decayed to zero would momentarily be allocated an unphysical
	// rate, grossly inflating the over-allocation the normalizer has to
	// absorb.
	MaxFlowRate float64

	// ExternalLoads and ExternalHdiag, when non-nil, carry per-link load
	// and Hessian-diagonal contributions from flows that are not part of
	// this problem — the remote shards of a sharded allocator cluster.
	// Solvers add them to the locally accumulated values in the
	// price-update step, and normalizers include ExternalLoads in link
	// utilization ratios, so boundary links are priced and normalized
	// against cluster-wide demand instead of just the local flow set. Both
	// must have length len(Capacities) when set.
	ExternalLoads []float64
	ExternalHdiag []float64

	// PinnedPrices, when non-nil, overrides the locally computed price of
	// selected links after every price update: an entry >= 0 is an
	// imported price (typically a remote owner's boundary-price snapshot)
	// that replaces whatever the local update produced; a negative entry
	// leaves the link's price under local control. It must have length
	// len(Capacities) when set.
	PinnedPrices []float64

	// compiled caches the CSR index over Flows; version is the mutation
	// counter used to detect staleness.
	compiled *Compiled
	version  uint64
}

// Validate checks that all routes reference valid links and capacities are
// positive.
func (p *Problem) Validate() error {
	for i, c := range p.Capacities {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("num: link %d has invalid capacity %g", i, c)
		}
	}
	for i, f := range p.Flows {
		if len(f.Route) == 0 {
			return fmt.Errorf("num: flow %d has an empty route", i)
		}
		for _, l := range f.Route {
			if l < 0 || int(l) >= len(p.Capacities) {
				return fmt.Errorf("num: flow %d references link %d, but there are only %d links", i, l, len(p.Capacities))
			}
		}
	}
	return nil
}

// SetCapacity replaces one link's capacity in place. Solvers read Capacities
// fresh on every step and the compiled CSR index holds only routes and
// weights, so the change re-prices the link on the very next iteration with
// no rebuild and no state loss — the mechanism live link degradation rides
// on. The new capacity must be positive and finite (model a dead link as a
// tiny fraction of its former capacity, not zero, to keep the price update
// well-defined).
func (p *Problem) SetCapacity(link int, capacity float64) error {
	if link < 0 || link >= len(p.Capacities) {
		return fmt.Errorf("num: SetCapacity link %d out of range (%d links)", link, len(p.Capacities))
	}
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return fmt.Errorf("num: SetCapacity link %d: invalid capacity %g", link, capacity)
	}
	p.Capacities[link] = capacity
	return nil
}

// State is the mutable solver state for a Problem: link prices and flow
// rates. Prices persist across flow churn (the optimizer warm-starts from the
// previous prices, §4), which is why State is separate from Problem.
type State struct {
	// Prices holds the dual variable (price) of each link.
	Prices []float64
	// Rates holds the current rate of each flow in bits per second.
	Rates []float64
}

// NewState creates a State with all link prices initialized to 1 (the paper's
// initialization, §3) and all rates zero. The rates are filled in by the
// first solver iteration.
func NewState(p *Problem) *State {
	st := &State{
		Prices: make([]float64, len(p.Capacities)),
		Rates:  make([]float64, len(p.Flows)),
	}
	for i := range st.Prices {
		st.Prices[i] = 1
	}
	return st
}

// Resize adjusts the Rates slice to match a changed flow count, preserving
// prices. New flows start with rate zero. Growth doubles the capacity:
// Resize runs once per flowlet add, and an exact-fit reallocation would make
// registering n flows O(n²) in copied bytes — hours, not seconds, at the
// million-flow scale.
func (s *State) Resize(numFlows int) {
	if cap(s.Rates) >= numFlows {
		old := len(s.Rates)
		s.Rates = s.Rates[:numFlows]
		if numFlows > old {
			// Re-extending over a slot a removed flow vacated: zero it, or
			// the new flow would read its previous occupant's rate.
			clear(s.Rates[old:])
		}
		return
	}
	newCap := 2 * cap(s.Rates)
	if newCap < numFlows {
		newCap = numFlows
	}
	r := make([]float64, numFlows, newCap)
	copy(r, s.Rates)
	s.Rates = r
}

// LinkLoads returns the total allocated rate on each link given the current
// per-flow rates.
func LinkLoads(p *Problem, rates []float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(p.Capacities))
	}
	for i := range out {
		out[i] = 0
	}
	c := p.Compiled()
	for i := range c.Len {
		r := rates[i]
		for _, l := range c.Route(i) {
			out[l] += r
		}
	}
	return out
}

// OverAllocation returns the total amount by which link loads exceed their
// capacities, summed over all links, in bits per second. This is the metric
// plotted in Figure 12.
func OverAllocation(p *Problem, rates []float64) float64 {
	loads := LinkLoads(p, rates, nil)
	over := 0.0
	for l, load := range loads {
		if excess := load - p.Capacities[l]; excess > 0 {
			over += excess
		}
	}
	return over
}

// TotalThroughput returns the sum of flow rates in bits per second.
func TotalThroughput(rates []float64) float64 {
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum
}

// Feasible reports whether the rates satisfy every link capacity constraint
// within a relative tolerance tol (e.g. 1e-9).
func Feasible(p *Problem, rates []float64, tol float64) bool {
	loads := LinkLoads(p, rates, nil)
	for l, load := range loads {
		if load > p.Capacities[l]*(1+tol) {
			return false
		}
	}
	return true
}
