package norm

import "repro/internal/num"

// Normalizer scales a set of flow rates so that no link exceeds its capacity.
type Normalizer interface {
	// Name returns the scheme's short name ("F-NORM" or "U-NORM").
	Name() string
	// Normalize writes the scaled rates into out (allocating when out is
	// nil or too short) and returns it. rates is not modified.
	Normalize(p *num.Problem, rates []float64, out []float64) []float64
	// NormalizeLoads is Normalize for a caller that already holds loads, the
	// per-link sums of rates over p's routes — num.LinkLoads(p, rates, nil),
	// or a solver's LastLoads right after the Step that set rates — so the
	// pass over the routes that recomputes them is skipped. loads is
	// not modified.
	NormalizeLoads(p *num.Problem, rates, loads, out []float64) []float64
}

// ensureOut prepares the output slice.
func ensureOut(out []float64, n int) []float64 {
	if cap(out) < n {
		return make([]float64, n)
	}
	return out[:n]
}

// LinkRatios computes r_l = (Σ_{s∈S(l)} x_s) / c_l for every link from the
// local loads Σ x_s, into ratios (which may alias loads; allocated when too
// short). External loads ext (remote shards' flows, see
// num.Problem.ExternalLoads; nil for none) count toward a link's utilization:
// a boundary link crowded by remote traffic must slow the local flows that
// traverse it just as local congestion would.
func LinkRatios(loads, ext, caps, ratios []float64) []float64 {
	ratios = ensureOut(ratios, len(loads))
	for l, load := range loads {
		if ext != nil {
			load += ext[l]
		}
		ratios[l] = load / caps[l]
	}
	return ratios
}

// UNorm is uniform normalization (§4.1): every flow is scaled by the same
// factor, the utilization ratio of the most congested link, so the relative
// sizes of flows (and hence the fairness of a proportional-fair allocation)
// are preserved. Its drawback is that one hot link throttles the entire
// network's throughput (Figure 13).
type UNorm struct {
	ratios []float64
}

// NewUNorm returns a uniform normalizer.
func NewUNorm() *UNorm { return &UNorm{} }

// Name implements Normalizer.
func (u *UNorm) Name() string { return "U-NORM" }

// Normalize implements Normalizer.
func (u *UNorm) Normalize(p *num.Problem, rates []float64, out []float64) []float64 {
	u.ratios = num.LinkLoads(p, rates, u.ratios)
	return u.NormalizeLoads(p, rates, u.ratios, out)
}

// NormalizeLoads implements Normalizer.
func (u *UNorm) NormalizeLoads(p *num.Problem, rates, loads, out []float64) []float64 {
	out = ensureOut(out, len(rates))
	u.ratios = LinkRatios(loads, p.ExternalLoads, p.Capacities, u.ratios)
	worst := 0.0
	for _, r := range u.ratios {
		if r > worst {
			worst = r
		}
	}
	if worst <= 1 {
		// No link over capacity: rates pass through unchanged (the paper
		// scales *up* to fill the most congested link only when it is
		// over-allocated; never scale flows above their allocation).
		copy(out, rates)
		return out
	}
	inv := 1 / worst
	for i, r := range rates {
		out[i] = r * inv
	}
	return out
}

// FNorm is per-flow normalization (§4.2): each flow is scaled by the
// utilization ratio of the most congested link on its own path. Links that
// are over-allocated only slow the flows that traverse them, so a few hot
// links do not reduce the whole network's throughput. F-NORM achieves over
// 99.7% of optimal throughput in the paper (Figure 13) and is Flowtune's
// default.
type FNorm struct {
	ratios []float64
}

// NewFNorm returns a per-flow normalizer.
func NewFNorm() *FNorm { return &FNorm{} }

// Name implements Normalizer.
func (f *FNorm) Name() string { return "F-NORM" }

// Normalize implements Normalizer.
func (f *FNorm) Normalize(p *num.Problem, rates []float64, out []float64) []float64 {
	f.ratios = num.LinkLoads(p, rates, f.ratios)
	return f.NormalizeLoads(p, rates, f.ratios, out)
}

// NormalizeLoads implements Normalizer: one division per link into the reused
// ratio scratch (LinkRatios), then one sweep over the compiled CSR index taking
// each flow's worst ratio (ScaleByWorstRatio).
func (f *FNorm) NormalizeLoads(p *num.Problem, rates, loads, out []float64) []float64 {
	out = ensureOut(out, len(rates))
	f.ratios = LinkRatios(loads, p.ExternalLoads, p.Capacities, f.ratios)
	ScaleByWorstRatio(p.Compiled(), f.ratios, rates, out)
	return out
}

// ScaleByWorstRatio is F-NORM's per-flow sweep: out[i] is rates[i] divided by
// the largest of ratios over flow i's route in c, floored at 1 (only a link
// above capacity slows a flow). out may be rates. NormalizeLoads runs it over
// a Problem's index and core.ParallelAllocator over each FlowBlock's.
//
// Which link of a route is the most loaded, and whether it is over capacity at
// all, are coin flips per flow, so the sweep has no data-dependent branch:
// worst is a running max floored at 1 (see num.OrderedBits) and every flow
// divides by it — x/1 == x exactly, so a flow on an uncongested path keeps its
// rate bit for bit. The gather is straight-line for the two route lengths that
// carry the traffic (4 links on a two-tier Clos, 6 on a fat-tree; see
// num.rateUpdateLog); other lengths take the loop.
//
// The integer max orders only non-NaN ratios. None can arise: capacities are
// validated > 0, and rates, loads and external loads are finite and
// non-negative — both allocators refuse a weight that would make them
// otherwise — so no ratio is 0/0 or Inf-Inf. A NaN ratio would not be skipped
// as `r > worst` would skip it (see num.OrderedBits for what happens instead).
func ScaleByWorstRatio(c *num.Compiled, ratios, rates, out []float64) {
	routes, stride, lens := c.Routes, c.Stride, c.Len
	rates, out = rates[:len(lens)], out[:len(lens)]
	one := num.OrderedBits(1)
	for i := range lens {
		o := i * stride
		worst := one
		switch lens[i] {
		case 4:
			r := (*[4]int32)(routes[o : o+4])
			worst = max(worst, num.OrderedBits(ratios[r[0]]), num.OrderedBits(ratios[r[1]]),
				num.OrderedBits(ratios[r[2]]), num.OrderedBits(ratios[r[3]]))
		case 6:
			r := (*[6]int32)(routes[o : o+6])
			worst = max(worst, num.OrderedBits(ratios[r[0]]), num.OrderedBits(ratios[r[1]]),
				num.OrderedBits(ratios[r[2]]), num.OrderedBits(ratios[r[3]]),
				num.OrderedBits(ratios[r[4]]), num.OrderedBits(ratios[r[5]]))
		default:
			for _, l := range routes[o : o+int(lens[i])] {
				worst = max(worst, num.OrderedBits(ratios[l]))
			}
		}
		out[i] = rates[i] / num.FromOrderedBits(worst)
	}
}
