package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/norm"
	"repro/internal/num"
	"repro/internal/topology"
)

func simTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewTwoTier(topology.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func newTestAllocator(t *testing.T, cfg Config) *Allocator {
	t.Helper()
	if cfg.Topology == nil {
		cfg.Topology = simTopo(t)
	}
	a, err := NewAllocator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAllocatorValidation(t *testing.T) {
	if _, err := NewAllocator(Config{}); err == nil {
		t.Error("allocator without topology accepted")
	}
	if _, err := NewAllocator(Config{Topology: simTopo(t), UpdateThreshold: 1.5}); err == nil {
		t.Error("threshold >= 1 accepted")
	}
	for _, bad := range []Config{{UpdateThreshold: math.NaN()}, {Gamma: math.NaN()}, {Gamma: -1}, {Gamma: math.Inf(1)}} {
		bad.Topology = simTopo(t)
		if _, err := NewAllocator(bad); err == nil {
			t.Errorf("Gamma %v, UpdateThreshold %v accepted", bad.Gamma, bad.UpdateThreshold)
		}
	}
	a := newTestAllocator(t, Config{})
	cfg := a.Config()
	if cfg.Gamma != 0.4 || cfg.UpdateThreshold != 0.01 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestFlowletLifecycle(t *testing.T) {
	a := newTestAllocator(t, Config{})
	if err := a.FlowletStart(1, 0, 17, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.FlowletStart(1, 0, 17, 1); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, ok := a.Rates()[1]; !ok || a.NumFlows() != 1 {
		t.Error("flow not registered")
	}
	if err := a.FlowletEnd(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Rates()[1]; ok || a.NumFlows() != 0 {
		t.Error("flow not removed")
	}
	if err := a.FlowletEnd(1); err == nil {
		t.Error("removing an unknown flow should fail")
	}
	if err := a.FlowletStart(2, 0, 0, 1); err == nil {
		t.Error("flow with src == dst accepted")
	}
}

func TestFairShareSingleBottleneck(t *testing.T) {
	a := newTestAllocator(t, Config{})
	// Three flows into server 17's downlink.
	for id, src := range []int{0, 40, 100} {
		if err := a.FlowletStart(FlowID(id+1), src, 17, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		a.Iterate()
	}
	link := a.Config().Topology.Config().LinkCapacity
	want := link * (1 - a.Config().UpdateThreshold) / 3
	for id := FlowID(1); id <= 3; id++ {
		if got := a.Rate(id); math.Abs(got-want)/want > 0.02 {
			t.Errorf("flow %d rate %.3g, want %.3g", id, got, want)
		}
	}
}

func TestWeightedAllocation(t *testing.T) {
	a := newTestAllocator(t, Config{})
	if err := a.FlowletStart(1, 0, 17, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.FlowletStart(2, 40, 17, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a.Iterate()
	}
	r1, r2 := a.Rate(1), a.Rate(2)
	if math.Abs(r2/r1-3) > 0.1 {
		t.Errorf("weighted shares wrong: r1=%.3g r2=%.3g (want 1:3)", r1, r2)
	}
}

func TestRatesNeverExceedLinkCapacity(t *testing.T) {
	a := newTestAllocator(t, Config{})
	// Heavy incast into one server plus cross traffic.
	id := FlowID(1)
	for src := 1; src <= 20; src++ {
		if err := a.FlowletStart(id, src, 0, 1); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for i := 0; i < 100; i++ {
		a.Iterate()
		// Normalized rates must always respect capacities.
		loads := num.LinkLoads(a.Problem(), normalizedRates(a), nil)
		for l, load := range loads {
			capacity := a.Config().Topology.Link(topology.LinkID(l)).Capacity
			if load > capacity*1.0001 {
				t.Fatalf("iteration %d: link %d over capacity: %.3g > %.3g", i, l, load, capacity)
			}
		}
	}
}

// normalizedRates extracts the allocator's normalized rates in problem order.
func normalizedRates(a *Allocator) []float64 {
	return append([]float64(nil), a.normalized...)
}

func TestReconvergenceAfterChurn(t *testing.T) {
	a := newTestAllocator(t, Config{})
	for id := 1; id <= 4; id++ {
		if err := a.FlowletStart(FlowID(id), id*10, 17, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		a.Iterate()
	}
	if err := a.FlowletEnd(2); err != nil {
		t.Fatal(err)
	}
	// Within a handful of iterations the remaining flows should share the
	// released bandwidth (the paper: convergence within ~20 µs, i.e. a few
	// 10 µs iterations).
	for i := 0; i < 20; i++ {
		a.Iterate()
	}
	link := a.Config().Topology.Config().LinkCapacity
	want := link * (1 - a.Config().UpdateThreshold) / 3
	for _, id := range []FlowID{1, 3, 4} {
		if got := a.Rate(id); math.Abs(got-want)/want > 0.05 {
			t.Errorf("flow %d rate %.3g after churn, want %.3g", id, got, want)
		}
	}
}

func TestUpdateThresholdSuppressesNotifications(t *testing.T) {
	a := newTestAllocator(t, Config{UpdateThreshold: 0.01})
	if err := a.FlowletStart(1, 0, 17, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.FlowletStart(2, 40, 17, 1); err != nil {
		t.Fatal(err)
	}
	var updates, suppressed int
	for i := 0; i < 100; i++ {
		sent := len(a.Iterate())
		updates += sent
		suppressed += a.NumFlows() - sent
	}
	// In steady state the rates stop changing, so almost all iterations
	// suppress their updates.
	if suppressed < 150 {
		t.Errorf("expected most updates to be suppressed in steady state, got %d suppressed / %d sent",
			suppressed, updates)
	}
	if updates < 2 {
		t.Errorf("at least the initial allocations must be notified, got %d", updates)
	}
}

func TestHigherThresholdSendsFewerUpdates(t *testing.T) {
	// 25 flows share one destination link; each additional arrival changes
	// the existing flows' fair share by ~3-4%, which a 0.01 threshold must
	// report but a 0.05 threshold suppresses.
	run := func(threshold float64) int {
		a := newTestAllocator(t, Config{UpdateThreshold: threshold})
		id := FlowID(1)
		for ; id <= 25; id++ {
			_ = a.FlowletStart(id, 1+int(id), 0, 1)
		}
		for i := 0; i < 100; i++ {
			a.Iterate()
		}
		sent := 0
		for ; id <= 30; id++ {
			_ = a.FlowletStart(id, 1+int(id), 0, 1)
			for i := 0; i < 30; i++ {
				sent += len(a.Iterate())
			}
		}
		return sent
	}
	low := run(0.01)
	high := run(0.05)
	if high >= low {
		t.Errorf("threshold 0.05 sent %d updates, threshold 0.01 sent %d; higher threshold should send fewer", high, low)
	}
}

func TestIterateWithNoFlows(t *testing.T) {
	a := newTestAllocator(t, Config{})
	if got := a.Iterate(); got != nil {
		t.Error("Iterate with no flows should return nil")
	}
}

// TestUNormAllocatorStillFeasible checks U-NORM, run on the allocator's raw
// NED rates in place of its F-NORM, also yields a feasible allocation.
func TestUNormAllocatorStillFeasible(t *testing.T) {
	a := newTestAllocator(t, Config{})
	for id := 1; id <= 5; id++ {
		_ = a.FlowletStart(FlowID(id), id, 100, 1)
	}
	for i := 0; i < 50; i++ {
		a.Iterate()
	}
	rates := norm.NewUNorm().Normalize(a.Problem(), a.State().Rates, nil)
	loads := num.LinkLoads(a.Problem(), rates, nil)
	for l, load := range loads {
		capacity := a.Config().Topology.Link(topology.LinkID(l)).Capacity
		if load > capacity*1.0001 {
			t.Fatalf("U-NORM allocator exceeded capacity on link %d", l)
		}
	}
}

func TestRawVsNormalizedRates(t *testing.T) {
	a := newTestAllocator(t, Config{})
	for id := 1; id <= 8; id++ {
		_ = a.FlowletStart(FlowID(id), id, 140, 1)
	}
	a.Iterate()
	raw := a.State().Rates
	for i, r := range normalizedRates(a) {
		if r > raw[i]*1.0001 {
			t.Errorf("flow %d: normalized rate %.3g exceeds raw %.3g", a.ids[i], r, raw[i])
		}
	}
}

func TestRateUnknownFlow(t *testing.T) {
	a := newTestAllocator(t, Config{})
	if got := a.Rate(99); got != 0 {
		t.Errorf("Rate(unknown) = %g, want 0", got)
	}
}

// TestAllocatorChurnIndexConsistency drives randomized FlowletStart and
// FlowletEnd churn and asserts that after every swap-delete the compiled CSR
// index, the allocator's indexByID map, its dense per-flow arrays, and the solver's
// Rates slice stay mutually consistent: every registered ID maps to the slot
// holding its flow, whose compiled route matches the problem's route.
func TestAllocatorChurnIndexConsistency(t *testing.T) {
	a := newTestAllocator(t, Config{})
	rng := rand.New(rand.NewSource(5))
	numServers := a.Config().Topology.NumServers()
	nextID := FlowID(1)
	var live []FlowID
	srcs, dsts := make(map[FlowID]int), make(map[FlowID]int)

	check := func() {
		t.Helper()
		if len(dsts) != len(a.indexByID) || a.NumFlows() != len(a.problem.Flows) {
			t.Fatalf("size mismatch: %d flows, %d ids, %d problem flows",
				len(dsts), len(a.indexByID), len(a.problem.Flows))
		}
		if n := a.NumFlows(); len(a.ids) != n || len(a.normalized) != n || len(a.lastNotified) != n {
			t.Fatalf("dense arrays out of step with %d flows: %d ids, %d normalized, %d lastNotified",
				n, len(a.ids), len(a.normalized), len(a.lastNotified))
		}
		if len(a.state.Rates) != a.NumFlows() {
			t.Fatalf("Rates has %d entries for %d flows", len(a.state.Rates), a.NumFlows())
		}
		c := a.problem.Compiled()
		if c.NumFlows() != a.NumFlows() {
			t.Fatalf("compiled has %d flows, allocator has %d", c.NumFlows(), a.NumFlows())
		}
		for id, idx := range a.indexByID {
			if a.ids[idx] != id {
				t.Fatalf("indexByID[%d] = %d, but slot holds flow %d", id, idx, a.ids[idx])
			}
			// The compiled route must match both the problem's route slice
			// and the topology's route for the flow's endpoints.
			want, err := a.Config().Topology.Route(srcs[id], dsts[id], int(id))
			if err != nil {
				t.Fatal(err)
			}
			got := c.Route(idx)
			probRoute := a.problem.Flows[idx].Route
			if len(got) != len(want) || len(probRoute) != len(want) {
				t.Fatalf("flow %d: route lengths diverge: compiled %v, problem %v, topo %v", id, got, probRoute, want)
			}
			for j := range want {
				if got[j] != int32(want[j]) || probRoute[j] != int32(want[j]) {
					t.Fatalf("flow %d: compiled %v / problem %v, want %v", id, got, probRoute, want)
				}
			}
		}
	}

	for step := 0; step < 1500; step++ {
		if rng.Float64() < 0.55 || len(live) == 0 {
			src := rng.Intn(numServers)
			dst := rng.Intn(numServers - 1)
			if dst >= src {
				dst++
			}
			if err := a.FlowletStart(nextID, src, dst, 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
			live = append(live, nextID)
			srcs[nextID], dsts[nextID] = src, dst
			nextID++
		} else {
			i := rng.Intn(len(live))
			if err := a.FlowletEnd(live[i]); err != nil {
				t.Fatal(err)
			}
			delete(srcs, live[i])
			delete(dsts, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%10 == 0 {
			a.Iterate()
		}
		if step%23 == 0 || len(live) < 2 {
			check()
		}
	}
	check()
}

func TestSignificantChange(t *testing.T) {
	cases := []struct {
		old, new, threshold float64
		want                bool
	}{
		{0, 5, 0.01, true},
		{0, 0, 0.01, false},
		{100, 100.5, 0.01, false},
		{100, 102, 0.01, true},
		{100, 98, 0.01, true},
		{100, 99.5, 0.01, false},
	}
	for _, tc := range cases {
		if got := SignificantRateChange(tc.old, tc.new, tc.threshold); got != tc.want {
			t.Errorf("SignificantRateChange(%g,%g,%g) = %v, want %v", tc.old, tc.new, tc.threshold, got, tc.want)
		}
	}
}
