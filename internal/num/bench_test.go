package num

import (
	"math/rand"
	"testing"
)

// benchProblem builds a dense random problem.
func benchProblem(numFlows int) *Problem {
	const numLinks = 256
	const capacity = 40e9
	rng := rand.New(rand.NewSource(1))
	p := &Problem{MaxFlowRate: capacity}
	for l := 0; l < numLinks; l++ {
		p.Capacities = append(p.Capacities, capacity)
	}
	for f := 0; f < numFlows; f++ {
		p.Flows = append(p.Flows, Flow{Route: randomRoute(rng, numLinks), Weight: capacity})
	}
	return p
}

// BenchmarkRateUpdateLogFastPath measures the CSR rate-update inner loop.
func BenchmarkRateUpdateLogFastPath(b *testing.B) {
	p := benchProblem(5000)
	st := NewState(p)
	var sc scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rateUpdate(p, st, &sc, true, minPathPrice)
	}
}

// BenchmarkCompiledChurn measures one AppendFlow + RemoveFlowSwap pair
// against a steady 5000-flow index (the incremental maintenance cost paid
// per flowlet event: a row appended, and a row copied into the gap).
func BenchmarkCompiledChurn(b *testing.B) {
	const numLinks = 256
	p := benchProblem(5000)
	p.Compiled()
	rng := rand.New(rand.NewSource(2))
	routes := make([][]int32, 64)
	for i := range routes {
		routes[i] = randomRoute(rng, numLinks)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AppendFlow(Flow{Route: routes[i%len(routes)], Weight: 40e9})
		p.RemoveFlowSwap(rng.Intn(len(p.Flows)))
	}
}
