package experiments

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/transport"
	"repro/internal/workload"
)

// The experiment drivers are exercised here at reduced scale so the test
// suite stays fast; the full-scale parameters are run by cmd/flowtune-bench
// and the root benchmark suite.

func TestScalingTableSmall(t *testing.T) {
	rows, err := ScalingTable([]ScalingCase{
		{Blocks: 1, Nodes: 96, Flows: 200},
		{Blocks: 2, Nodes: 96, Flows: 200},
	}, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TimePerIteration <= 0 || r.OneBlockTimePerIteration <= 0 {
			t.Errorf("non-positive iteration time: %+v", r)
		}
		if r.FlowBlocks != r.Blocks*r.Blocks || r.Workers != min(r.FlowBlocks, runtime.GOMAXPROCS(0)) {
			t.Errorf("%d FlowBlocks on %d workers for %d blocks", r.FlowBlocks, r.Workers, r.Blocks)
		}
		if r.AllocatedTbps <= 0 {
			t.Errorf("non-positive allocated bandwidth")
		}
	}
	out := RenderScalingTable(rows)
	if !strings.Contains(out, "FlowBlocks") || !strings.Contains(out, "Workers") || !strings.Contains(out, "1 block") || !strings.Contains(out, "96") {
		t.Errorf("rendering missing expected fields:\n%s", out)
	}
}

func TestRandomFlowsDistinctEndpoints(t *testing.T) {
	flows := RandomFlows(48, 500, rand.New(rand.NewSource(1)))
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatal("flow with identical endpoints")
		}
		if f.Src < 0 || f.Src >= 48 || f.Dst < 0 || f.Dst >= 48 {
			t.Fatal("endpoint out of range")
		}
	}
}

func TestFastpassComparisonSmall(t *testing.T) {
	cmp, err := MeasureFastpassComparison(96, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.FastpassTbpsPerCore <= 0 || cmp.FlowtuneTbpsPerCore <= 0 {
		t.Fatalf("non-positive throughputs: %+v", cmp)
	}
	// The paper's headline: Flowtune schedules far more bandwidth per core
	// than per-packet Fastpass. The exact ratio is machine-dependent, but
	// it must be substantially above 1.
	if cmp.ThroughputRatio < 2 {
		t.Errorf("Flowtune/Fastpass per-core ratio %.2f, want well above 1", cmp.ThroughputRatio)
	}
	if !strings.Contains(cmp.Render(), "ratio") {
		t.Error("Render missing ratio")
	}
}

func TestConvergenceFlowtuneVsDCTCP(t *testing.T) {
	run := func(s transport.Scheme) *ConvergenceResult {
		cfg := DefaultConvergenceConfig(s)
		cfg.StepInterval = 1.5e-3 // shortened scenario
		res, err := RunConvergence(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Series) != cfg.NumFlows {
			t.Fatalf("%s: %d series, want %d", s, len(res.Series), cfg.NumFlows)
		}
		if out := res.Render(cfg); !strings.Contains(out, s.String()) {
			t.Errorf("render missing scheme name")
		}
		return res
	}
	ft := run(transport.Flowtune)
	dctcp := run(transport.DCTCP)
	// Flowtune must reach the fair share quickly after the last arrival;
	// DCTCP should not converge faster than Flowtune in this scenario.
	if ft.ConvergenceTime == 0 {
		t.Error("Flowtune never converged to the fair allocation")
	}
	if dctcp.ConvergenceTime != 0 && dctcp.ConvergenceTime < ft.ConvergenceTime {
		t.Errorf("DCTCP converged faster (%.0f µs) than Flowtune (%.0f µs)",
			dctcp.ConvergenceTime*1e6, ft.ConvergenceTime*1e6)
	}
}

func TestUpdateTrafficBasic(t *testing.T) {
	res, err := RunUpdateTraffic(UpdateTrafficConfig{
		Workload: workload.Web,
		Load:     0.6,
		Duration: 1.5e-3,
		Warmup:   0.5e-3,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FromAllocatorFraction <= 0 || res.ToAllocatorFraction <= 0 {
		t.Fatalf("control-traffic fractions must be positive: %+v", res)
	}
	// The paper: update traffic is a small fraction of network capacity
	// (about 1% for Web at high load) and well below the load headroom.
	if res.FromAllocatorFraction > 0.05 {
		t.Errorf("from-allocator fraction %.3f implausibly high", res.FromAllocatorFraction)
	}
	if res.ToAllocatorFraction > 0.05 {
		t.Errorf("to-allocator fraction %.3f implausibly high", res.ToAllocatorFraction)
	}
	// With the approximated flow-size CDFs each flowlet receives only a
	// couple of rate updates, so the two directions are the same order of
	// magnitude (the paper's production CDFs make from-allocator dominate;
	// see EXPERIMENTS.md).
	ratio := res.ToAllocatorFraction / res.FromAllocatorFraction
	if ratio > 10 || ratio < 0.1 {
		t.Errorf("to/from ratio %.2f outside the plausible range", ratio)
	}
	if res.FlowletsCompleted == 0 {
		t.Error("no flowlets completed in the fluid simulation")
	}
}

func TestUpdateTrafficThresholdReduces(t *testing.T) {
	base, err := RunUpdateTraffic(UpdateTrafficConfig{Workload: workload.Web, Load: 0.6, Threshold: 0.01, Duration: 1.5e-3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunUpdateTraffic(UpdateTrafficConfig{Workload: workload.Web, Load: 0.6, Threshold: 0.05, Duration: 1.5e-3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if high.FromAllocatorFraction >= base.FromAllocatorFraction {
		t.Errorf("raising the threshold did not reduce update traffic: %.5f -> %.5f",
			base.FromAllocatorFraction, high.FromAllocatorFraction)
	}
}

// TestUpdateTrafficDeterministic runs the fluid model twice: finished
// flowlets end in ID order, not map order, so the allocator's swap-delete
// order — and with it every float sum — is the same in both runs.
func TestUpdateTrafficDeterministic(t *testing.T) {
	cfg := UpdateTrafficConfig{Workload: workload.Web, Load: 0.8, Duration: 1e-3, Seed: 4}
	a, err := RunUpdateTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunUpdateTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestFig5WorkloadOrdering(t *testing.T) {
	points, err := RunFig5([]float64{0.6}, nil, 1.5e-3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	byKind := map[workload.Kind]float64{}
	for _, p := range points {
		byKind[p.Workload] = p.FromAllocator
	}
	// The Web workload has the smallest flows and hence the most churn and
	// the most update traffic; Hadoop the least (§6.4).
	if !(byKind[workload.Web] > byKind[workload.Cache] && byKind[workload.Cache] > byKind[workload.Hadoop]) {
		t.Errorf("update-traffic ordering wrong: web=%.5f cache=%.5f hadoop=%.5f",
			byKind[workload.Web], byKind[workload.Cache], byKind[workload.Hadoop])
	}
	if !strings.Contains(RenderFig5(points), "web") {
		t.Error("rendering missing workload name")
	}
}

func TestFig6ReductionsBounded(t *testing.T) {
	points, err := RunFig6([]float64{0.8}, []workload.Kind{workload.Web}, []float64{0.03, 0.05}, 2e-3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	for _, p := range points {
		// Raising the threshold must never *increase* update traffic by
		// more than measurement noise, and can cut it by at most 100%.
		// (The paper reports 33-69% savings on the production CDFs; with
		// the approximated CDFs most flowlets receive only their initial
		// update, which the threshold cannot suppress, so the measured
		// saving is small — see EXPERIMENTS.md.)
		if p.Reduction < -10 || p.Reduction > 100 {
			t.Errorf("threshold %.2f: reduction %.1f%% out of range", p.Threshold, p.Reduction)
		}
	}
	if !strings.Contains(RenderFig6(points), "threshold") {
		t.Error("rendering missing header")
	}
}

func TestFig7FractionStableWithSize(t *testing.T) {
	points, err := RunFig7([]int{128, 256}, []float64{0.6}, 1e-3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	small, large := points[0].FromAllocator, points[1].FromAllocator
	if small <= 0 || large <= 0 {
		t.Fatal("fractions must be positive")
	}
	// Figure 7: the fraction stays roughly constant as the network grows
	// (no cascading updates). Allow a generous factor of 2.5 at this tiny
	// simulated duration.
	ratio := large / small
	if ratio > 2.5 || ratio < 1/2.5 {
		t.Errorf("update-traffic fraction changed by %.1fx between 128 and 256 servers", ratio)
	}
	if !strings.Contains(RenderFig7(points), "servers") {
		t.Error("rendering missing header")
	}
}

func TestComparisonSmall(t *testing.T) {
	res, err := RunComparison(ComparisonConfig{
		Schemes:  []transport.Scheme{transport.Flowtune, transport.DCTCP},
		Loads:    []float64{0.5},
		Workload: workload.Web,
		Duration: 2e-3,
		Warmup:   0.5e-3,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(res.Runs))
	}
	for _, run := range res.Runs {
		if run.Flows == 0 {
			t.Errorf("%s: no measured flows", run.Scheme)
		}
		if run.CompletionRate < 0.5 {
			t.Errorf("%s: completion rate %.2f too low", run.Scheme, run.CompletionRate)
		}
		if len(run.P99FCTByBucket) == 0 {
			t.Errorf("%s: no FCT buckets", run.Scheme)
		}
	}
	speedups := res.SpeedupOverFlowtune()
	if len(speedups) == 0 {
		t.Fatal("no Figure 8 speedup points")
	}
	for _, p := range speedups {
		if p.Scheme == transport.Flowtune {
			t.Error("speedup table must not contain Flowtune itself")
		}
		if p.Speedup <= 0 {
			t.Errorf("non-positive speedup: %+v", p)
		}
	}
	for _, render := range []string{
		RenderFig8(speedups), res.RenderFig9(), res.RenderFig10(), res.RenderFig11(),
	} {
		if len(render) == 0 {
			t.Error("empty rendering")
		}
	}
}

func TestOverAllocationExperiment(t *testing.T) {
	cfg := NormalizationConfig{Load: 0.5, Duration: 1e-3, Warmup: 0.3e-3, Seed: 7}
	ned, err := RunOverAllocation("NED", cfg)
	if err != nil {
		t.Fatal(err)
	}
	grad, err := RunOverAllocation("Gradient", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ned.MeanOverGbps <= 0 {
		t.Error("NED under churn should over-allocate (that is why F-NORM exists)")
	}
	// §6.6: NED over-allocates more than Gradient because it adjusts prices
	// more aggressively when flowlets arrive and leave.
	if ned.MeanOverGbps <= grad.MeanOverGbps {
		t.Errorf("NED mean over-allocation (%.1f Gbps) should exceed Gradient's (%.1f Gbps)",
			ned.MeanOverGbps, grad.MeanOverGbps)
	}
	if _, err := RunOverAllocation("bogus", cfg); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if !strings.Contains(RenderFig12([]OverAllocationResult{*ned, *grad}), "NED") {
		t.Error("rendering missing algorithm")
	}
}

func TestNormalizationComparisonFNormWins(t *testing.T) {
	cfg := NormalizationConfig{Load: 0.5, Duration: 1.2e-3, Warmup: 0.3e-3, OptimumEvery: 20, Seed: 8}
	results, err := RunNormalizationComparison("NED", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fnorm, unorm float64
	for _, r := range results {
		switch r.Normalizer {
		case "F-NORM":
			fnorm = r.ThroughputFraction
		case "U-NORM":
			unorm = r.ThroughputFraction
		}
	}
	// Figure 13: F-NORM achieves nearly all of the optimal throughput;
	// U-NORM is not competitive.
	if fnorm < 0.9 {
		t.Errorf("F-NORM throughput fraction %.3f, want >= 0.9", fnorm)
	}
	if unorm >= fnorm {
		t.Errorf("U-NORM (%.3f) should be below F-NORM (%.3f)", unorm, fnorm)
	}
	if !strings.Contains(RenderFig13(results), "F-NORM") {
		t.Error("rendering missing normalizer")
	}
}

func TestFig12AlgorithmsList(t *testing.T) {
	algos := Fig12Algorithms()
	want := []string{"NED", "NED-RT", "Gradient", "Gradient-RT", "FGM"}
	if len(algos) != len(want) {
		t.Fatalf("got %v", algos)
	}
	for i := range want {
		if algos[i] != want[i] {
			t.Errorf("algorithm %d = %q, want %q", i, algos[i], want[i])
		}
	}
	for _, a := range algos {
		if _, err := solverByName(a); err != nil {
			t.Errorf("solverByName(%q): %v", a, err)
		}
	}
}
