package num

import (
	"math"
	"testing"
)

// capacityTestProblem builds a small problem with overlapping routes so a
// capacity change on the shared link moves every price and rate.
func capacityTestProblem(caps []float64) *Problem {
	p := &Problem{Capacities: append([]float64(nil), caps...), MaxFlowRate: 10e9}
	routes := [][]int32{{0, 1}, {1, 2}, {0, 2}, {1}, {0}}
	for i, r := range routes {
		p.Flows = append(p.Flows, Flow{
			Route:  r,
			Weight: 10e9 * float64(1+i%2),
		})
	}
	return p
}

// TestSetCapacityMutateMatchesRebuild pins the re-pricing contract of live
// capacity updates: mutating Capacities in place mid-run must be bitwise
// identical to rebuilding the problem from scratch with the new capacities
// and resuming from the same solver state. The solvers read capacities fresh
// every step, so nothing else may be cached.
func TestSetCapacityMutateMatchesRebuild(t *testing.T) {
	p1 := capacityTestProblem([]float64{10e9, 10e9, 10e9})
	st1 := NewState(p1)
	ned1 := &NED{Gamma: 1}
	for i := 0; i < 25; i++ {
		ned1.Step(p1, st1)
	}
	if err := p1.SetCapacity(1, 2.5e9); err != nil {
		t.Fatal(err)
	}

	p2 := capacityTestProblem([]float64{10e9, 2.5e9, 10e9})
	st2 := &State{
		Prices: append([]float64(nil), st1.Prices...),
		Rates:  append([]float64(nil), st1.Rates...),
	}
	ned2 := &NED{Gamma: 1}

	for i := 0; i < 25; i++ {
		ned1.Step(p1, st1)
		ned2.Step(p2, st2)
		for l := range st1.Prices {
			if st1.Prices[l] != st2.Prices[l] {
				t.Fatalf("step %d: link %d price %g (mutated) != %g (rebuilt)", i, l, st1.Prices[l], st2.Prices[l])
			}
		}
		for f := range st1.Rates {
			if st1.Rates[f] != st2.Rates[f] {
				t.Fatalf("step %d: flow %d rate %g (mutated) != %g (rebuilt)", i, f, st1.Rates[f], st2.Rates[f])
			}
		}
	}
}

func TestSetCapacityRejectsBadInput(t *testing.T) {
	p := &Problem{Capacities: []float64{1e9}}
	bad := []struct {
		link int
		cap  float64
	}{
		{-1, 1e9}, {1, 1e9}, {0, 0}, {0, -2}, {0, math.NaN()}, {0, math.Inf(1)},
	}
	for _, c := range bad {
		if err := p.SetCapacity(c.link, c.cap); err == nil {
			t.Errorf("SetCapacity(%d, %g) accepted", c.link, c.cap)
		}
	}
	if err := p.SetCapacity(0, 2e9); err != nil || p.Capacities[0] != 2e9 {
		t.Fatalf("valid SetCapacity failed: %v (cap now %g)", err, p.Capacities[0])
	}
}
