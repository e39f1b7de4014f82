package norm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/num"
)

// prob builds a small problem: 3 links, flows as given.
func prob(capacity float64, routes ...[]int32) *num.Problem {
	p := &num.Problem{Capacities: []float64{capacity, capacity, capacity}}
	for _, r := range routes {
		p.Flows = append(p.Flows, num.Flow{Route: r, Util: num.LogUtility{W: capacity}})
	}
	return p
}

func TestNames(t *testing.T) {
	if NewFNorm().Name() != "F-NORM" {
		t.Error("FNorm name wrong")
	}
	if NewUNorm().Name() != "U-NORM" {
		t.Error("UNorm name wrong")
	}
}

func TestNoOverAllocationPassThrough(t *testing.T) {
	p := prob(10, []int32{0}, []int32{1})
	rates := []float64{4, 5}
	for _, n := range []Normalizer{NewFNorm(), NewUNorm()} {
		out := n.Normalize(p, rates, nil)
		for i := range rates {
			if out[i] != rates[i] {
				t.Errorf("%s modified feasible rates: %v -> %v", n.Name(), rates, out)
			}
		}
	}
}

func TestUNormScalesEverythingByWorstLink(t *testing.T) {
	// Link 0 is 2x over-allocated, link 1 is exactly full.
	p := prob(10, []int32{0}, []int32{1})
	rates := []float64{20, 10}
	out := NewUNorm().Normalize(p, rates, nil)
	if math.Abs(out[0]-10) > 1e-9 {
		t.Errorf("flow on hot link scaled to %g, want 10", out[0])
	}
	if math.Abs(out[1]-5) > 1e-9 {
		t.Errorf("U-NORM should scale the innocent flow to 5, got %g", out[1])
	}
}

func TestFNormScalesOnlyAffectedFlows(t *testing.T) {
	p := prob(10, []int32{0}, []int32{1})
	rates := []float64{20, 10}
	out := NewFNorm().Normalize(p, rates, nil)
	if math.Abs(out[0]-10) > 1e-9 {
		t.Errorf("flow on hot link scaled to %g, want 10", out[0])
	}
	if math.Abs(out[1]-10) > 1e-9 {
		t.Errorf("F-NORM should leave the innocent flow at 10, got %g", out[1])
	}
}

func TestFNormUsesWorstLinkOnPath(t *testing.T) {
	// A two-link flow where link 0 is 1.5x over and link 1 is 3x over: the
	// flow must be scaled by 3x.
	p := &num.Problem{Capacities: []float64{10, 10}}
	p.Flows = []num.Flow{
		{Route: []int32{0, 1}},
		{Route: []int32{0}},
		{Route: []int32{1}},
	}
	rates := []float64{10, 5, 20}
	// loads: link0 = 15 (1.5x), link1 = 30 (3x)
	out := NewFNorm().Normalize(p, rates, nil)
	if math.Abs(out[0]-10.0/3) > 1e-9 {
		t.Errorf("two-link flow scaled to %g, want %g", out[0], 10.0/3)
	}
	if math.Abs(out[1]-5.0/1.5) > 1e-9 {
		t.Errorf("link-0 flow scaled to %g, want %g", out[1], 5.0/1.5)
	}
	if math.Abs(out[2]-20.0/3) > 1e-9 {
		t.Errorf("link-1 flow scaled to %g, want %g", out[2], 20.0/3)
	}
}

func TestFNormThroughputAtLeastUNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		numLinks := 2 + rng.Intn(5)
		p := &num.Problem{}
		for l := 0; l < numLinks; l++ {
			p.Capacities = append(p.Capacities, 1e9*(1+rng.Float64()*9))
		}
		numFlows := 1 + rng.Intn(10)
		rates := make([]float64, numFlows)
		for f := 0; f < numFlows; f++ {
			route := []int32{int32(rng.Intn(numLinks))}
			if rng.Float64() < 0.5 {
				other := int32(rng.Intn(numLinks))
				if other != route[0] {
					route = append(route, other)
				}
			}
			p.Flows = append(p.Flows, num.Flow{Route: route})
			rates[f] = rng.Float64() * 2e9
		}
		fOut := NewFNorm().Normalize(p, rates, nil)
		uOut := NewUNorm().Normalize(p, rates, nil)
		if num.TotalThroughput(fOut) < num.TotalThroughput(uOut)-1e-6 {
			t.Fatalf("trial %d: F-NORM throughput %.4g below U-NORM %.4g",
				trial, num.TotalThroughput(fOut), num.TotalThroughput(uOut))
		}
	}
}

// TestNormalizersFeasibilityProperty: after either normalizer, no link
// exceeds its capacity and no rate increases — and handing the normalizer the
// link loads (NormalizeLoads, what the allocator does with its solver's
// accumulation) gives bit for bit what letting it recompute them gives, with
// or without external loads, the caller's loads left untouched.
func TestNormalizersFeasibilityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numLinks := 2 + rng.Intn(6)
		p := &num.Problem{}
		for l := 0; l < numLinks; l++ {
			p.Capacities = append(p.Capacities, 1e9*(0.5+rng.Float64()*4))
		}
		numFlows := 1 + rng.Intn(12)
		rates := make([]float64, numFlows)
		for f := 0; f < numFlows; f++ {
			start := rng.Intn(numLinks)
			length := 1 + rng.Intn(2)
			var route []int32
			for i := 0; i < length && start+i < numLinks; i++ {
				route = append(route, int32(start+i))
			}
			p.Flows = append(p.Flows, num.Flow{Route: route})
			rates[f] = rng.Float64() * 3e9
		}
		if seed%2 == 0 {
			p.ExternalLoads = make([]float64, numLinks)
			for l := range p.ExternalLoads {
				p.ExternalLoads[l] = rng.Float64() * 2e9
			}
		}
		loads := num.LinkLoads(p, rates, nil)
		for _, n := range []Normalizer{NewFNorm(), NewUNorm()} {
			out := n.Normalize(p, rates, nil)
			if !num.Feasible(p, out, 1e-9) {
				return false
			}
			given := n.NormalizeLoads(p, rates, loads, nil)
			for i := range out {
				if given[i] != out[i] {
					return false
				}
			}
			for l, load := range num.LinkLoads(p, rates, nil) {
				if loads[l] != load {
					return false
				}
			}
			for i := range out {
				if out[i] > rates[i]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

func TestUNormPreservesRelativeShares(t *testing.T) {
	p := prob(10, []int32{0}, []int32{0}, []int32{1})
	rates := []float64{30, 10, 5}
	out := NewUNorm().Normalize(p, rates, nil)
	// Ratio between flows must be preserved by uniform scaling.
	if math.Abs(out[0]/out[1]-3) > 1e-9 {
		t.Errorf("relative shares not preserved: %v", out)
	}
	if math.Abs(out[0]/out[2]-6) > 1e-9 {
		t.Errorf("relative shares not preserved: %v", out)
	}
}

func TestNormalizeReusesBuffer(t *testing.T) {
	p := prob(10, []int32{0})
	buf := make([]float64, 1)
	out := NewFNorm().Normalize(p, []float64{5}, buf)
	if &out[0] != &buf[0] {
		t.Error("F-NORM did not reuse the provided buffer")
	}
}

func TestEmptyProblem(t *testing.T) {
	p := &num.Problem{Capacities: []float64{10}}
	for _, n := range []Normalizer{NewFNorm(), NewUNorm()} {
		out := n.Normalize(p, nil, nil)
		if len(out) != 0 {
			t.Errorf("%s returned %d rates for an empty problem", n.Name(), len(out))
		}
	}
}
