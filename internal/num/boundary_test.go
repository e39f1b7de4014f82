package num

import "testing"

// twoFlowShared builds a 3-link problem where flows A (links 0,1) and B
// (links 2,1) share link 1 — the boundary-link shape of a sharded cluster.
func twoFlowShared() *Problem {
	return &Problem{
		Capacities: []float64{10e9, 10e9, 10e9},
		Flows: []Flow{
			{Route: []int32{0, 1}, Weight: 10e9},
			{Route: []int32{2, 1}, Weight: 10e9},
		},
	}
}

// TestExternalLoadsMatchCombinedStep verifies the exactness property the
// boundary exchange relies on: a NED price update over a partial flow set
// plus the missing flows' load/hdiag supplied as external contributions is
// bit-identical to the price update of the combined problem.
func TestExternalLoadsMatchCombinedStep(t *testing.T) {
	combined := twoFlowShared()
	stC := NewState(combined)
	nedC := &NED{Gamma: 1}
	nedC.Step(combined, stC)

	// Shard view: only flow A, with flow B's first-step contribution on the
	// shared link provided externally. At the initial all-ones prices flow
	// B's rate is w/2 and its sensitivity -w/4, exactly what the combined
	// run accumulated on links 1 and 2.
	shard := &Problem{
		Capacities: []float64{10e9, 10e9, 10e9},
		Flows:      []Flow{{Route: []int32{0, 1}, Weight: 10e9}},
	}
	w := 10e9
	xB := w / 2
	dB := -w / 4
	shard.ExternalLoads = []float64{0, xB, xB}
	shard.ExternalHdiag = []float64{0, dB, dB}
	stS := NewState(shard)
	nedS := &NED{Gamma: 1}
	nedS.Step(shard, stS)

	for l := range stC.Prices {
		if stS.Prices[l] != stC.Prices[l] {
			t.Fatalf("link %d: shard price %v != combined price %v", l, stS.Prices[l], stC.Prices[l])
		}
	}
	if stS.Rates[0] != stC.Rates[0] {
		t.Fatalf("flow A rate %v != combined %v", stS.Rates[0], stC.Rates[0])
	}
}

// TestZeroExternalLoadsAreIdentity pins the byte-identity requirement of
// partition-local traffic: allocating the external arrays but leaving them
// zero must not perturb a single bit of the trajectory.
func TestZeroExternalLoadsAreIdentity(t *testing.T) {
	plain := twoFlowShared()
	stP := NewState(plain)
	nedP := &NED{Gamma: 0.4}

	ext := twoFlowShared()
	ext.ExternalLoads = make([]float64, 3)
	ext.ExternalHdiag = make([]float64, 3)
	ext.PinnedPrices = []float64{-1, -1, -1}
	stE := NewState(ext)
	nedE := &NED{Gamma: 0.4}

	for i := 0; i < 50; i++ {
		nedP.Step(plain, stP)
		nedE.Step(ext, stE)
		for l := range stP.Prices {
			if stP.Prices[l] != stE.Prices[l] {
				t.Fatalf("iter %d link %d: %v != %v", i, l, stP.Prices[l], stE.Prices[l])
			}
		}
		for f := range stP.Rates {
			if stP.Rates[f] != stE.Rates[f] {
				t.Fatalf("iter %d flow %d: %v != %v", i, f, stP.Rates[f], stE.Rates[f])
			}
		}
	}
}

// TestPinnedPricesOverrideLocalUpdate verifies pinned links hold their
// imported price through a Step while unpinned links keep evolving.
func TestPinnedPricesOverrideLocalUpdate(t *testing.T) {
	p := twoFlowShared()
	p.PinnedPrices = []float64{-1, 2.5, -1}
	st := NewState(p)
	ned := &NED{Gamma: 1}
	ned.Step(p, st)
	if st.Prices[1] != 2.5 {
		t.Fatalf("pinned link price = %v, want 2.5", st.Prices[1])
	}
	if st.Prices[0] == 1 {
		t.Fatal("unpinned loaded link price did not move")
	}
	// The pinned price feeds the next rate update: flow A sees path price
	// p0 + 2.5.
	prev := st.Prices[0]
	ned.Step(p, st)
	wantPath := prev + 2.5
	w := 10e9
	if got := st.Rates[0]; got != w/wantPath {
		t.Fatalf("rate after pin = %v, want %v", got, w/wantPath)
	}
}

// TestLastLoadsReportsStepAccumulation checks the Solver.LastLoads contract
// digest building and normalization rely on: after any solver's Step, and on
// every later one, the reported loads are bit for bit the link loads of the
// rates that Step produced; only NED reports a Hessian diagonal.
func TestLastLoadsReportsStepAccumulation(t *testing.T) {
	for _, s := range []Solver{&NED{Gamma: 1}, NewGradient(), NewFGM(), NewNewtonLike()} {
		p := twoFlowShared()
		st := NewState(p)
		for step := 0; step < 3; step++ {
			s.Step(p, st)
			loads, hdiag := s.LastLoads()
			want := LinkLoads(p, st.Rates, nil)
			for l := range want {
				if loads[l] != want[l] {
					t.Fatalf("%s step %d: link %d load %v != %v", s.Name(), step, l, loads[l], want[l])
				}
			}
			if s.Name() != "NED" {
				if hdiag != nil {
					t.Fatalf("%s reports a Hessian diagonal it never computes", s.Name())
				}
			} else if hdiag == nil || hdiag[1] >= 0 {
				t.Fatalf("NED hdiag on shared link = %v, want negative", hdiag)
			}
		}
	}
}
