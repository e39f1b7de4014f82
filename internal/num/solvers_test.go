package num

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// singleLinkProblem returns n unit-weight flows sharing one link of the given
// capacity. Weights follow the repository convention weight = capacity.
func singleLinkProblem(n int, capacity float64) *Problem {
	p := &Problem{Capacities: []float64{capacity}, MaxFlowRate: capacity}
	for i := 0; i < n; i++ {
		p.Flows = append(p.Flows, Flow{Route: []int32{0}, Weight: capacity})
	}
	return p
}

// twoLinkTandemProblem: one long flow over links 0-1 and one short flow on
// each link. With equal weights the proportional-fair allocation gives the
// long flow 1/3 of capacity and each short flow 2/3 (for equal capacities).
func twoLinkTandemProblem(capacity float64) *Problem {
	return &Problem{
		Capacities:  []float64{capacity, capacity},
		MaxFlowRate: capacity,
		Flows: []Flow{
			{Route: []int32{0, 1}, Weight: capacity},
			{Route: []int32{0}, Weight: capacity},
			{Route: []int32{1}, Weight: capacity},
		},
	}
}

func solveWith(t *testing.T, s Solver, p *Problem, maxIter int) *State {
	t.Helper()
	st := NewState(p)
	if _, err := Solve(s, p, st, SolveOptions{MaxIterations: maxIter, Tolerance: 1e-10}); err != nil {
		t.Logf("Solve(%s): %v (continuing with the reached state)", s.Name(), err)
	}
	return st
}

func TestNEDSingleLinkFairShare(t *testing.T) {
	const capacity = 10e9
	for _, n := range []int{1, 2, 3, 5, 10, 50} {
		p := singleLinkProblem(n, capacity)
		st := solveWith(t, &NED{Gamma: 1}, p, 2000)
		want := capacity / float64(n)
		for i, r := range st.Rates {
			if math.Abs(r-want)/want > 0.01 {
				t.Errorf("n=%d: flow %d rate %.3g, want %.3g", n, i, r, want)
			}
		}
	}
}

func TestNEDWeightedShares(t *testing.T) {
	const capacity = 10e9
	p := &Problem{
		Capacities:  []float64{capacity},
		MaxFlowRate: capacity,
		Flows: []Flow{
			{Route: []int32{0}, Weight: 1 * capacity},
			{Route: []int32{0}, Weight: 3 * capacity},
		},
	}
	st := solveWith(t, &NED{Gamma: 1}, p, 2000)
	if math.Abs(st.Rates[0]-capacity/4)/(capacity/4) > 0.01 {
		t.Errorf("weight-1 flow got %.3g, want %.3g", st.Rates[0], capacity/4)
	}
	if math.Abs(st.Rates[1]-3*capacity/4)/(3*capacity/4) > 0.01 {
		t.Errorf("weight-3 flow got %.3g, want %.3g", st.Rates[1], 3*capacity/4)
	}
}

func TestNEDTandemProportionalFairness(t *testing.T) {
	const capacity = 10e9
	p := twoLinkTandemProblem(capacity)
	st := solveWith(t, &NED{Gamma: 1}, p, 4000)
	// Proportional fairness: long flow c/3, short flows 2c/3.
	wantLong := capacity / 3
	wantShort := 2 * capacity / 3
	if math.Abs(st.Rates[0]-wantLong)/wantLong > 0.02 {
		t.Errorf("long flow rate %.3g, want %.3g", st.Rates[0], wantLong)
	}
	for _, i := range []int{1, 2} {
		if math.Abs(st.Rates[i]-wantShort)/wantShort > 0.02 {
			t.Errorf("short flow %d rate %.3g, want %.3g", i, st.Rates[i], wantShort)
		}
	}
}

func TestSolversConvergeToSameAllocation(t *testing.T) {
	const capacity = 10e9
	p := twoLinkTandemProblem(capacity)
	ned := solveWith(t, &NED{Gamma: 1}, p, 4000)
	grad := solveWith(t, NewGradient(), p, 60000)
	newton := solveWith(t, NewNewtonLike(), p, 60000)
	for i := range p.Flows {
		if math.Abs(ned.Rates[i]-grad.Rates[i])/ned.Rates[i] > 0.05 {
			t.Errorf("flow %d: NED %.3g vs Gradient %.3g differ by more than 5%%", i, ned.Rates[i], grad.Rates[i])
		}
		if math.Abs(ned.Rates[i]-newton.Rates[i])/ned.Rates[i] > 0.05 {
			t.Errorf("flow %d: NED %.3g vs Newton-like %.3g differ by more than 5%%", i, ned.Rates[i], newton.Rates[i])
		}
	}
}

func TestNEDConvergesFasterThanGradient(t *testing.T) {
	const capacity = 10e9
	countIters := func(s Solver) int {
		p := twoLinkTandemProblem(capacity)
		st := NewState(p)
		iters, _ := Solve(s, p, st, SolveOptions{MaxIterations: 50000, Tolerance: 1e-8})
		return iters
	}
	nedIters := countIters(&NED{Gamma: 1})
	gradIters := countIters(NewGradient())
	if nedIters >= gradIters {
		t.Errorf("NED (%d iterations) should converge in fewer iterations than Gradient (%d)", nedIters, gradIters)
	}
}

func TestNEDRespectsMaxFlowRate(t *testing.T) {
	const capacity = 10e9
	p := singleLinkProblem(1, capacity)
	p.MaxFlowRate = capacity / 2
	st := solveWith(t, &NED{Gamma: 1}, p, 1000)
	if st.Rates[0] > p.MaxFlowRate*1.001 {
		t.Errorf("rate %.3g exceeds MaxFlowRate %.3g", st.Rates[0], p.MaxFlowRate)
	}
}

func TestNEDCapacityRespectedAtConvergence(t *testing.T) {
	const capacity = 10e9
	rng := rand.New(rand.NewSource(17))
	// Random multi-link problem: 12 links, 40 flows over random 1-4 link routes.
	p := &Problem{MaxFlowRate: capacity}
	for l := 0; l < 12; l++ {
		p.Capacities = append(p.Capacities, capacity)
	}
	for f := 0; f < 40; f++ {
		routeLen := 1 + rng.Intn(4)
		seen := map[int32]bool{}
		var route []int32
		for len(route) < routeLen {
			l := int32(rng.Intn(12))
			if !seen[l] {
				seen[l] = true
				route = append(route, l)
			}
		}
		p.Flows = append(p.Flows, Flow{Route: route, Weight: capacity})
	}
	// γ=0.4 is the step size the paper uses in its simulations; γ=1 can
	// oscillate on problems with many shared multi-link routes because the
	// diagonal approximation ignores cross-link terms.
	st := solveWith(t, &NED{Gamma: 0.4}, p, 5000)
	if !Feasible(p, st.Rates, 0.02) {
		t.Errorf("converged NED allocation violates capacities by more than 2%%: max utilization %.3f",
			MaxLinkUtilization(p, st.Rates))
	}
	// At the proportional-fair optimum every link with positive price is
	// saturated; at least the bottleneck utilization should be close to 1.
	if u := MaxLinkUtilization(p, st.Rates); u < 0.95 {
		t.Errorf("max link utilization %.3f, want >= 0.95 (work-conserving optimum)", u)
	}
}

func TestNEDWarmStartAfterChurn(t *testing.T) {
	const capacity = 10e9
	p := singleLinkProblem(4, capacity)
	st := NewState(p)
	solver := &NED{Gamma: 1}
	if _, err := Solve(solver, p, st, SolveOptions{MaxIterations: 2000}); err != nil {
		t.Fatal(err)
	}
	// Remove one flow and warm-start: should re-converge in few iterations.
	p.Flows = p.Flows[:3]
	st.Resize(3)
	iters, err := Solve(solver, p, st, SolveOptions{MaxIterations: 2000, Tolerance: 1e-8})
	if err != nil {
		t.Fatalf("re-convergence failed: %v", err)
	}
	if iters > 200 {
		t.Errorf("warm-started NED took %d iterations to re-converge, want <= 200", iters)
	}
	want := capacity / 3
	for i, r := range st.Rates {
		if math.Abs(r-want)/want > 0.01 {
			t.Errorf("flow %d rate %.3g after churn, want %.3g", i, r, want)
		}
	}
}

func TestGradientSlowButFeasibleUnderChurn(t *testing.T) {
	// Gradient adjusts prices slowly; after a single step from converged
	// state with a new flow, its over-allocation should be modest.
	const capacity = 10e9
	p := singleLinkProblem(3, capacity)
	grad := NewGradient()
	st := NewState(p)
	if _, err := Solve(grad, p, st, SolveOptions{MaxIterations: 100000, Tolerance: 1e-9}); err != nil {
		t.Logf("gradient solve: %v", err)
	}
	p.Flows = append(p.Flows, Flow{Route: []int32{0}, Weight: capacity})
	st.Resize(4)
	grad.Step(p, st)
	over := OverAllocation(p, st.Rates)
	// The new flow can add at most one NIC's worth of over-allocation.
	if over > capacity {
		t.Errorf("gradient over-allocation after churn %.3g exceeds one NIC rate", over)
	}
}

func TestSolverNames(t *testing.T) {
	cases := []struct {
		s    Solver
		want string
	}{
		{&NED{}, "NED"},
		{&NED{RT: true}, "NED-RT"},
		{NewGradient(), "Gradient"},
		{&Gradient{RT: true}, "Gradient-RT"},
		{NewFGM(), "FGM"},
		{NewNewtonLike(), "Newton-like"},
	}
	for _, tc := range cases {
		if got := tc.s.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestSolveValidatesProblem(t *testing.T) {
	p := &Problem{Capacities: []float64{1e9}, Flows: []Flow{{Route: []int32{5}}}}
	if _, err := Solve(&NED{}, p, NewState(p), SolveOptions{}); err == nil {
		t.Error("Solve accepted a flow with an out-of-range link")
	}
	p2 := &Problem{Capacities: []float64{0}, Flows: nil}
	if _, err := Solve(&NED{}, p2, NewState(p2), SolveOptions{}); err == nil {
		t.Error("Solve accepted a non-positive capacity")
	}
	p3 := &Problem{Capacities: []float64{1e9}, Flows: []Flow{{Route: nil}}}
	if _, err := Solve(&NED{}, p3, NewState(p3), SolveOptions{}); err == nil {
		t.Error("Solve accepted a flow with an empty route")
	}
}

func TestRTVariantsCloseToExact(t *testing.T) {
	const capacity = 10e9
	p := twoLinkTandemProblem(capacity)
	exact := solveWith(t, &NED{Gamma: 1}, p, 4000)
	rt := solveWith(t, &NED{Gamma: 1, RT: true}, p, 4000)
	for i := range p.Flows {
		if math.Abs(exact.Rates[i]-rt.Rates[i])/exact.Rates[i] > 0.02 {
			t.Errorf("flow %d: NED %.4g vs NED-RT %.4g differ by more than 2%%", i, exact.Rates[i], rt.Rates[i])
		}
	}
}

func TestFGMRunsWithoutNaN(t *testing.T) {
	const capacity = 10e9
	p := twoLinkTandemProblem(capacity)
	st := NewState(p)
	fgm := NewFGM()
	for i := 0; i < 500; i++ {
		fgm.Step(p, st)
		for l, price := range st.Prices {
			if math.IsNaN(price) || math.IsInf(price, 0) || price < 0 {
				t.Fatalf("iteration %d: invalid price %g on link %d", i, price, l)
			}
		}
	}
}

// TestNEDFairShareProperty: for random flow counts and capacities, NED's
// converged single-link allocation is the fair share.
func TestNEDFairShareProperty(t *testing.T) {
	prop := func(nRaw uint8, capRaw uint16) bool {
		n := int(nRaw%20) + 1
		capacity := float64(capRaw%1000+1) * 1e8
		p := singleLinkProblem(n, capacity)
		st := NewState(p)
		_, _ = Solve(&NED{Gamma: 1}, p, st, SolveOptions{MaxIterations: 3000, Tolerance: 1e-9})
		want := capacity / float64(n)
		for _, r := range st.Rates {
			if math.Abs(r-want)/want > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// TestPriceNonNegativityProperty: prices stay non-negative and finite across
// solvers and random churn sequences.
func TestPriceNonNegativityProperty(t *testing.T) {
	prop := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const capacity = 10e9
		p := &Problem{Capacities: []float64{capacity, capacity, capacity}, MaxFlowRate: capacity}
		st := NewState(p)
		solvers := []Solver{&NED{Gamma: 1}, NewGradient(), NewFGM(), NewNewtonLike()}
		s := solvers[int(seed%int64(len(solvers))+int64(len(solvers)))%len(solvers)]
		for i := 0; i < int(steps%100)+10; i++ {
			// Random churn.
			if rng.Float64() < 0.3 || len(p.Flows) == 0 {
				route := []int32{int32(rng.Intn(3))}
				if rng.Float64() < 0.5 {
					route = append(route, int32(rng.Intn(3)))
				}
				p.Flows = append(p.Flows, Flow{Route: route, Weight: capacity})
			} else if rng.Float64() < 0.2 {
				p.Flows = p.Flows[:len(p.Flows)-1]
			}
			st.Resize(len(p.Flows))
			if len(p.Flows) == 0 {
				continue
			}
			s.Step(p, st)
			for _, price := range st.Prices {
				if price < 0 || math.IsNaN(price) || math.IsInf(price, 0) {
					return false
				}
			}
			for _, r := range st.Rates {
				if r < 0 || math.IsNaN(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestObjectiveImprovesOverIterations(t *testing.T) {
	const capacity = 10e9
	p := twoLinkTandemProblem(capacity)
	st := NewState(p)
	ned := &NED{Gamma: 1}
	ned.Step(p, st)
	// Feasible (normalized) objective should not decrease substantially as
	// the solver converges; compare early vs late objective of feasible
	// scaled rates.
	early := feasibleObjective(p, st.Rates)
	for i := 0; i < 500; i++ {
		ned.Step(p, st)
	}
	late := feasibleObjective(p, st.Rates)
	if late < early-1e-6 {
		t.Errorf("objective decreased from %.6g to %.6g over iterations", early, late)
	}
}

// feasibleObjective scales rates uniformly into the feasible region and
// returns the objective.
func feasibleObjective(p *Problem, rates []float64) float64 {
	u := MaxLinkUtilization(p, rates)
	scaled := make([]float64, len(rates))
	for i, r := range rates {
		if u > 1 {
			scaled[i] = r / u
		} else {
			scaled[i] = r
		}
	}
	return Objective(p, scaled)
}
