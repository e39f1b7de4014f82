package num

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomRoute draws a duplicate-free route of 1-4 links.
func randomRoute(rng *rand.Rand, numLinks int) []int32 {
	routeLen := 1 + rng.Intn(4)
	seen := map[int32]bool{}
	var route []int32
	for len(route) < routeLen {
		l := int32(rng.Intn(numLinks))
		if !seen[l] {
			seen[l] = true
			route = append(route, l)
		}
	}
	return route
}

// checkCompiledMatchesFlows verifies the CSR index agrees with p.Flows entry
// by entry, and that the transpose is consistent with the flow-major index.
func checkCompiledMatchesFlows(t *testing.T, p *Problem) {
	t.Helper()
	c := p.Compiled()
	if c.NumFlows() != len(p.Flows) {
		t.Fatalf("compiled has %d flows, problem has %d", c.NumFlows(), len(p.Flows))
	}
	for i := range p.Flows {
		f := &p.Flows[i]
		got := c.Route(i)
		if len(got) != len(f.Route) {
			t.Fatalf("flow %d: compiled route %v, want %v", i, got, f.Route)
		}
		for j := range got {
			if got[j] != f.Route[j] {
				t.Fatalf("flow %d: compiled route %v, want %v", i, got, f.Route)
			}
		}
		w, log := logWeight(*f)
		if log {
			if c.utility(i) != nil || c.Weights[i] != w {
				t.Fatalf("flow %d: fast path weight %g (util %v), want %g", i, c.Weights[i], c.utility(i), w)
			}
		} else if c.utility(i) != f.Util {
			t.Fatalf("flow %d: compiled utility %v, want %v", i, c.utility(i), f.Util)
		}
	}
	// Transpose: per-link flow sets must match a reference count.
	numLinks := len(p.Capacities)
	flows, off := c.Transpose(numLinks)
	counts := make(map[int32]map[int32]int)
	for i := range p.Flows {
		for _, l := range p.Flows[i].Route {
			if counts[l] == nil {
				counts[l] = map[int32]int{}
			}
			counts[l][int32(i)]++
		}
	}
	for l := 0; l < numLinks; l++ {
		for _, fi := range flows[off[l]:off[l+1]] {
			counts[int32(l)][fi]--
			if counts[int32(l)][fi] == 0 {
				delete(counts[int32(l)], fi)
			}
		}
		if len(counts[int32(l)]) != 0 {
			t.Fatalf("link %d: transpose disagrees with flow routes: leftover %v", l, counts[int32(l)])
		}
	}
}

// TestCompiledChurnConsistency drives a randomized AppendFlow/RemoveFlowSwap
// sequence and asserts the compiled index stays consistent with the flow set
// after every swap-delete (each copying the last row into the gap).
func TestCompiledChurnConsistency(t *testing.T) {
	const numLinks = 8
	const capacity = 10e9
	rng := rand.New(rand.NewSource(42))
	p := &Problem{MaxFlowRate: capacity}
	for l := 0; l < numLinks; l++ {
		p.Capacities = append(p.Capacities, capacity)
	}
	for step := 0; step < 3000; step++ {
		if rng.Float64() < 0.55 || len(p.Flows) == 0 {
			f := Flow{Route: randomRoute(rng, numLinks), Util: LogUtility{W: capacity * (1 + rng.Float64())}}
			if rng.Float64() < 0.05 {
				f.Util = AlphaFairUtility{W: capacity, Alpha: 2}
			}
			p.AppendFlow(f)
		} else {
			p.RemoveFlowSwap(rng.Intn(len(p.Flows)))
		}
		if step%37 == 0 || len(p.Flows) < 3 {
			checkCompiledMatchesFlows(t, p)
		}
	}
	checkCompiledMatchesFlows(t, p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStandaloneCompiledChurn drives an index that no Problem owns — the way
// core.ParallelAllocator keeps one per FlowBlock — through a random
// AppendLog/RemoveSwap/Reset sequence beside a mirror Problem, and requires
// flow for flow the routes, lengths and weights of the index the Problem
// rebuilds from scratch, exactly one zero-padded row of Stride entries per
// flow after every operation, and after a Reset and re-append rows equal to
// the rebuilt ones exactly.
func TestStandaloneCompiledChurn(t *testing.T) {
	const numLinks = 12
	rng := rand.New(rand.NewSource(24))
	var c Compiled
	var mirror []Flow
	check := func() {
		t.Helper()
		if len(c.Routes) != c.NumFlows()*c.Stride {
			t.Fatalf("%d route entries for %d flows at stride %d", len(c.Routes), c.NumFlows(), c.Stride)
		}
		want := (&Problem{Flows: mirror}).Compiled()
		if !slices.Equal(c.Len, want.Len) || !slices.Equal(c.Weights, want.Weights) || !c.AllLog() {
			t.Fatalf("lengths %v weights %v, a rebuilt index has %v %v", c.Len, c.Weights, want.Len, want.Weights)
		}
		for i := range mirror {
			if !slices.Equal(c.Route(i), want.Route(i)) {
				t.Fatalf("flow %d: route %v, a rebuilt index has %v", i, c.Route(i), want.Route(i))
			}
			if pad := c.Routes[i*c.Stride+int(c.Len[i]) : (i+1)*c.Stride]; slices.ContainsFunc(pad, func(l int32) bool { return l != 0 }) {
				t.Fatalf("flow %d: row padding %v is not zero", i, pad)
			}
		}
	}
	appendFlow := func(route []int32) {
		f := Flow{Route: route, Util: LogUtility{W: 1 + rng.Float64()}}
		c.AppendLog(f.Route, f.Util.(LogUtility).W)
		mirror = append(mirror, f)
	}

	// A longer route re-lays the rows out at its length and leaves every
	// earlier route as it was.
	for _, n := range []int{1, 2, 2, 4, 3, 6, 1} {
		before := c.Stride
		route := make([]int32, n)
		for j := range route {
			route[j] = int32(rng.Intn(numLinks))
		}
		appendFlow(route)
		if want := max(before, n); c.Stride != want {
			t.Fatalf("after a %d-link route the stride is %d, want %d", n, c.Stride, want)
		}
		check()
	}

	restrides := 0
	for step := 0; step < 4000; step++ {
		before := c.Stride
		switch {
		case step%1500 == 1499:
			c.Reset()
			mirror = mirror[:0]
			if c.Stride != 0 {
				t.Fatalf("a reset index keeps stride %d", c.Stride)
			}
		case len(mirror) == 0 || rng.Float64() < 0.5-0.3*math.Sin(float64(step)/200):
			appendFlow(randomRoute(rng, numLinks))
			if c.Stride > before && len(mirror) > 1 {
				restrides++
			}
		default:
			i, last := rng.Intn(len(mirror)), len(mirror)-1
			c.RemoveSwap(i)
			mirror[i] = mirror[last]
			mirror = mirror[:last]
		}
		if step%29 == 0 || len(mirror) < 3 {
			check()
		}
	}
	check()
	if restrides == 0 || len(mirror) == 0 {
		t.Fatalf("%d re-strides of a non-empty index, %d flows left: the sequence should re-stride and end non-empty", restrides, len(mirror))
	}
	c.Reset()
	for _, f := range mirror {
		c.AppendLog(f.Route, f.Util.(LogUtility).W)
	}
	want := (&Problem{Flows: mirror}).Compiled()
	if c.Stride != want.Stride || !slices.Equal(c.Routes, want.Routes) || !slices.Equal(c.Len, want.Len) {
		t.Fatal("an index reset and refilled differs from one built from the same flows")
	}
}

// referenceNEDStep is the pre-refactor NED iteration: interface dispatch per
// flow and per-flow Route slices, kept here as the oracle for the CSR path.
func referenceNEDStep(p *Problem, st *State, gamma float64) {
	loads := make([]float64, len(p.Capacities))
	hdiag := make([]float64, len(p.Capacities))
	for i, f := range p.Flows {
		ps := st.PathPrice(f.Route)
		if ps < minPathPrice {
			ps = minPathPrice
		}
		u := f.Util
		if u == nil {
			u = LogUtility{W: 1}
		}
		x := u.Rate(ps)
		if p.MaxFlowRate > 0 && x > p.MaxFlowRate {
			x = p.MaxFlowRate
		}
		st.Rates[i] = x
		d := u.RateDeriv(ps)
		for _, l := range f.Route {
			loads[l] += x
			hdiag[l] += d
		}
	}
	for l := range st.Prices {
		g := loads[l] - p.Capacities[l]
		h := hdiag[l]
		if h == 0 {
			st.Prices[l] *= 0.5
			continue
		}
		price := st.Prices[l] - gamma*g/h
		if price < 0 {
			price = 0
		}
		st.Prices[l] = price
	}
}

// buildRandomProblem returns a random multi-link problem; withCustom mixes in
// alpha-fair flows to exercise the generic dispatch path.
func buildRandomProblem(seed int64, numFlows int, withCustom bool) *Problem {
	const numLinks = 12
	const capacity = 10e9
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{MaxFlowRate: capacity}
	for l := 0; l < numLinks; l++ {
		p.Capacities = append(p.Capacities, capacity)
	}
	for f := 0; f < numFlows; f++ {
		fl := Flow{Route: randomRoute(rng, numLinks), Util: LogUtility{W: capacity * (1 + rng.Float64())}}
		if withCustom && f%7 == 0 {
			fl.Util = AlphaFairUtility{W: capacity, Alpha: 2}
		}
		p.Flows = append(p.Flows, fl)
	}
	return p
}

// TestCompiledEquivalenceWithReference runs 200 NED iterations through the
// compiled CSR path and the pre-refactor reference path and requires the
// rates and prices to agree within 1e-9 relative error throughout, both for
// the all-log fast path and for problems mixing custom utilities.
func TestCompiledEquivalenceWithReference(t *testing.T) {
	for _, withCustom := range []bool{false, true} {
		name := "all-log"
		if withCustom {
			name = "mixed-utilities"
		}
		t.Run(name, func(t *testing.T) {
			p := buildRandomProblem(7, 60, withCustom)
			ref := buildRandomProblem(7, 60, withCustom)
			st := NewState(p)
			st.Resize(len(p.Flows))
			stRef := NewState(ref)
			stRef.Resize(len(ref.Flows))
			ned := &NED{Gamma: 0.4}
			for iter := 0; iter < 200; iter++ {
				ned.Step(p, st)
				referenceNEDStep(ref, stRef, 0.4)
				for i := range st.Rates {
					if relDiff(st.Rates[i], stRef.Rates[i]) > 1e-9 {
						t.Fatalf("iter %d flow %d: CSR rate %.15g, reference %.15g", iter, i, st.Rates[i], stRef.Rates[i])
					}
				}
				for l := range st.Prices {
					if relDiff(st.Prices[l], stRef.Prices[l]) > 1e-9 {
						t.Fatalf("iter %d link %d: CSR price %.15g, reference %.15g", iter, l, st.Prices[l], stRef.Prices[l])
					}
				}
			}
		})
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-300)
}

// TestCompiledStalenessDetection: direct Flows mutations that change the flow
// count are picked up without Invalidate; same-count replacement requires it.
func TestCompiledStalenessDetection(t *testing.T) {
	const capacity = 10e9
	p := &Problem{Capacities: []float64{capacity}, MaxFlowRate: capacity}
	p.Flows = append(p.Flows, Flow{Route: []int32{0}, Util: LogUtility{W: capacity}})
	if got := p.Compiled().NumFlows(); got != 1 {
		t.Fatalf("compiled flows = %d, want 1", got)
	}
	// Direct append: count changes, rebuild happens.
	p.Flows = append(p.Flows, Flow{Route: []int32{0}, Util: LogUtility{W: 2 * capacity}})
	if got := p.Compiled().NumFlows(); got != 2 {
		t.Fatalf("after direct append: compiled flows = %d, want 2", got)
	}
	// Same-count replacement: stale until Invalidate.
	p.Flows[0] = Flow{Route: []int32{0}, Util: LogUtility{W: 5 * capacity}}
	p.Invalidate()
	if got := p.Compiled().Weights[0]; got != 5*capacity {
		t.Fatalf("after Invalidate: weight = %g, want %g", got, 5*capacity)
	}
}

// TestCompiledFastPathRestoredAfterCustomRemoval: removing the last
// custom-utility flow must drop the Utils slice so the monomorphized
// log-utility fast path re-engages.
func TestCompiledFastPathRestoredAfterCustomRemoval(t *testing.T) {
	const capacity = 10e9
	p := &Problem{Capacities: []float64{capacity}, MaxFlowRate: capacity}
	p.AppendFlow(Flow{Route: []int32{0}, Util: LogUtility{W: capacity}})
	if !p.Compiled().AllLog() {
		t.Fatal("all-log problem should start on the fast path")
	}
	p.AppendFlow(Flow{Route: []int32{0}, Util: AlphaFairUtility{W: capacity, Alpha: 2}})
	if p.Compiled().AllLog() {
		t.Fatal("custom utility should disable the fast path")
	}
	p.AppendFlow(Flow{Route: []int32{0}, Util: LogUtility{W: 2 * capacity}})
	p.RemoveFlowSwap(1) // remove the alpha-fair flow
	c := p.Compiled()
	if !c.AllLog() {
		t.Fatal("fast path should re-engage once the last custom-utility flow is removed")
	}
	checkCompiledMatchesFlows(t, p)
}

// TestCompiledProblemCopy: a Problem copied by value must not alias the
// original's compiled index — diverging mutations on both copies must each
// see their own flow set.
func TestCompiledProblemCopy(t *testing.T) {
	const capacity = 10e9
	p := &Problem{Capacities: []float64{capacity, capacity}, MaxFlowRate: capacity}
	p.AppendFlow(Flow{Route: []int32{0}, Util: LogUtility{W: capacity}})
	p.Compiled()

	p2 := *p
	p2.Flows = append([]Flow(nil), p.Flows...)
	p2.AppendFlow(Flow{Route: []int32{1}, Util: LogUtility{W: 2 * capacity}})
	p.AppendFlow(Flow{Route: []int32{0}, Util: LogUtility{W: 3 * capacity}})

	checkCompiledMatchesFlows(t, p)
	checkCompiledMatchesFlows(t, &p2)
	if p.Compiled() == p2.Compiled() {
		t.Fatal("copied problem shares the original's compiled index")
	}
}

// TestCompiledSolveEquivalence: a full Solve through the CSR path reaches the
// same converged allocation as the analytical fair share (guards against the
// index corrupting long solver runs).
func TestCompiledSolveEquivalence(t *testing.T) {
	const capacity = 10e9
	p := &Problem{Capacities: []float64{capacity}, MaxFlowRate: capacity}
	for i := 0; i < 5; i++ {
		p.AppendFlow(Flow{Route: []int32{0}, Util: LogUtility{W: capacity}})
	}
	st := NewState(p)
	if _, err := Solve(&NED{Gamma: 1}, p, st, SolveOptions{MaxIterations: 2000}); err != nil {
		t.Fatal(err)
	}
	want := capacity / 5
	for i, r := range st.Rates {
		if relDiff(r, want) > 0.01 {
			t.Errorf("flow %d rate %.4g, want %.4g", i, r, want)
		}
	}
}
