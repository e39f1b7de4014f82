package num

import (
	"math/rand"
	"testing"
)

// opaqueLog behaves exactly like LogUtility but hides behind the interface,
// forcing the generic dispatch path; the delta against the monomorphized fast
// path is the cost the CSR compilation removes.
type opaqueLog struct{ w float64 }

func (u opaqueLog) Value(x float64) float64 { return LogUtility{W: u.w}.Value(x) }
func (u opaqueLog) Rate(p float64) float64  { return u.w / p }
func (u opaqueLog) RateDeriv(p float64) float64 {
	return -u.w / (p * p)
}

// benchProblem builds a dense random problem; opaque selects the interface
// path for every flow.
func benchProblem(numFlows int, opaque bool) *Problem {
	const numLinks = 256
	const capacity = 40e9
	rng := rand.New(rand.NewSource(1))
	p := &Problem{MaxFlowRate: capacity}
	for l := 0; l < numLinks; l++ {
		p.Capacities = append(p.Capacities, capacity)
	}
	for f := 0; f < numFlows; f++ {
		var u Utility = LogUtility{W: capacity}
		if opaque {
			u = opaqueLog{w: capacity}
		}
		p.Flows = append(p.Flows, Flow{Route: randomRoute(rng, numLinks), Util: u})
	}
	return p
}

// BenchmarkRateUpdateLogFastPath measures the monomorphized CSR inner loop
// (every flow LogUtility, no interface dispatch).
func BenchmarkRateUpdateLogFastPath(b *testing.B) {
	p := benchProblem(5000, false)
	st := NewState(p)
	var sc scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rateUpdate(p, st, &sc, true, minPathPrice)
	}
}

// BenchmarkRateUpdateInterfacePath measures the same workload forced through
// the generic interface-dispatch path.
func BenchmarkRateUpdateInterfacePath(b *testing.B) {
	p := benchProblem(5000, true)
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
	p := benchProblem(5000, false)
	p.Compiled()
	rng := rand.New(rand.NewSource(2))
	routes := make([][]int32, 64)
	for i := range routes {
		routes[i] = randomRoute(rng, numLinks)
	}
	// Boxed once: storing a LogUtility in the interface field allocates, and
	// that boxing cost belongs to flow construction, not index maintenance.
	var util Utility = LogUtility{W: 40e9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AppendFlow(Flow{Route: routes[i%len(routes)], Util: util})
		p.RemoveFlowSwap(rng.Intn(len(p.Flows)))
	}
}
