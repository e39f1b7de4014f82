package core

import "repro/internal/num"

// Objective returns the NUM objective Σ U(x) over the most recently computed
// normalized rates. With no flows registered the objective is 0 by
// convention; with flows still at zero rate the sum is -Inf (log utility), so
// callers that serialize the value must sanitize non-finite results.
// Allocation-free in steady state (the compiled index is cached).
func (a *Allocator) Objective() float64 {
	if len(a.flows) == 0 {
		return 0
	}
	return num.Objective(&a.problem, a.normalized)
}

// Objective returns the NUM objective Σ U(x) over the rates computed by the
// most recent Iterate, matching Allocator.Objective: both evaluate the log
// utility at the capacity-scaled weights the solver runs on. It walks the
// dense per-FlowBlock arrays without allocating and may only be called while
// no Iterate is in flight.
func (p *ParallelAllocator) Objective() float64 {
	sum := 0.0
	for _, fb := range p.fbs {
		for i := range fb.ids {
			sum += num.LogUtility{W: fb.csr.Weights[i]}.Value(fb.rates[i])
		}
	}
	return sum
}
