package num

// Oracles over a Problem that only this package's tests use.

// Objective returns the NUM objective Σ U_s(x_s) for the given rates.
func Objective(p *Problem, rates []float64) float64 {
	c := p.Compiled()
	sum := 0.0
	for i := range c.Len {
		sum += LogUtility(c.Weights[i], rates[i])
	}
	return sum
}

// MaxLinkUtilization returns the maximum ratio of link load to capacity.
func MaxLinkUtilization(p *Problem, rates []float64) float64 {
	loads := LinkLoads(p, rates, nil)
	max := 0.0
	for l, load := range loads {
		if u := load / p.Capacities[l]; u > max {
			max = u
		}
	}
	return max
}

// PathPrice returns the sum of prices along a route.
func (s *State) PathPrice(route []int32) float64 {
	sum := 0.0
	for _, l := range route {
		sum += s.Prices[l]
	}
	return sum
}
