package flowtune_test

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	flowtune "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fastpass"
	"repro/internal/norm"
	"repro/internal/num"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The benchmarks below regenerate the paper's tables and figures (§6). Each
// benchmark reports its headline quantities through b.ReportMetric so a
// single `go test -bench=. -benchmem` run produces the numbers recorded in
// EXPERIMENTS.md. Simulation-backed figures run shortened (but structurally
// identical) configurations so the whole suite completes in minutes; the
// full-scale sweeps are available through cmd/flowtune-bench.

// ---------------------------------------------------------------------------
// §6.1 table: multicore allocator scaling (E1)

func BenchmarkTable1AllocatorScaling(b *testing.B) {
	cases := experiments.DefaultScalingCases()
	for _, c := range cases {
		name := fmt.Sprintf("cores=%d/nodes=%d/flows=%d", c.Blocks*c.Blocks, c.Nodes, c.Flows)
		b.Run(name, func(b *testing.B) {
			topo, err := topology.NewTwoTier(topology.Config{
				Racks:          c.Nodes / 48,
				ServersPerRack: 48,
				Spines:         16,
				LinkCapacity:   40e9,
				LinkDelay:      1.5e-6,
			})
			if err != nil {
				b.Fatal(err)
			}
			pa, err := core.NewParallelAllocator(core.ParallelConfig{
				Topology: topo, Blocks: c.Blocks, Gamma: 1, Normalize: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pa.Close()
			rng := rand.New(rand.NewSource(1))
			if err := pa.SetFlows(experiments.RandomFlows(topo.NumServers(), c.Flows, rng)); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				pa.Iterate()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pa.Iterate()
			}
			b.StopTimer()
			b.ReportMetric(float64(topo.NumServers())*40e9/1e12, "Tbps-allocated")
		})
	}
}

// ---------------------------------------------------------------------------
// §6.1: Fastpass comparison (E2)

func BenchmarkFastpassTimeslot(b *testing.B) {
	const nodes = 384
	arb, err := fastpass.NewArbiter(nodes)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3072; i++ {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		_ = arb.AddDemand(src, dst, 1<<20)
	}
	b.ResetTimer()
	var admitted int64
	for i := 0; i < b.N; i++ {
		admitted += int64(len(arb.AllocateTimeslot()))
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(admitted)/float64(b.N), "packets/timeslot")
	}
}

func BenchmarkFastpassVsFlowtunePerCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.MeasureFastpassComparison(384, 3072, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.FastpassTbpsPerCore, "fastpass-Tbps/core")
		b.ReportMetric(cmp.FlowtuneTbpsPerCore, "flowtune-Tbps/core")
		b.ReportMetric(cmp.ThroughputRatio, "throughput-ratio")
	}
}

// ---------------------------------------------------------------------------
// Figure 4: convergence to a fair allocation (E3)

func BenchmarkFig4Convergence(b *testing.B) {
	for _, scheme := range transport.AllSchemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.DefaultConvergenceConfig(scheme)
				cfg.StepInterval = 2e-3 // shortened churn interval
				res, err := experiments.RunConvergence(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.ConvergenceTime > 0 {
					b.ReportMetric(res.ConvergenceTime*1e6, "convergence-us")
				} else {
					b.ReportMetric(cfg.StepInterval*1e6, "convergence-us(>churn-interval)")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 5-7: allocator update traffic (E4-E6)

func BenchmarkFig5UpdateTraffic(b *testing.B) {
	for _, kind := range []workload.Kind{workload.Web, workload.Cache, workload.Hadoop} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunUpdateTraffic(experiments.UpdateTrafficConfig{
					Workload: kind, Load: 0.8, Duration: 4e-3, Warmup: 1e-3, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FromAllocatorFraction*100, "from-allocator-%capacity")
				b.ReportMetric(res.ToAllocatorFraction*100, "to-allocator-%capacity")
			}
		})
	}
}

func BenchmarkFig6Threshold(b *testing.B) {
	for _, threshold := range []float64{0.02, 0.05} {
		b.Run(fmt.Sprintf("threshold=%.2f", threshold), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := experiments.RunFig6(
					[]float64{0.8}, []workload.Kind{workload.Web}, []float64{threshold}, 3e-3, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(points[0].Reduction, "%reduction-vs-0.01")
			}
		})
	}
}

func BenchmarkFig7NetworkSize(b *testing.B) {
	for _, servers := range []int{128, 512, 1024} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunUpdateTraffic(experiments.UpdateTrafficConfig{
					Workload: workload.Web, Load: 0.6, Servers: servers,
					Duration: 2e-3, Warmup: 0.5e-3, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FromAllocatorFraction*100, "from-allocator-%capacity")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figures 8-11: scheme comparison (E7-E10). One shared sweep per benchmark
// iteration; each figure's benchmark reports its own metrics.

// runComparisonBench executes the shortened comparison sweep once.
func runComparisonBench(b *testing.B) *experiments.ComparisonResult {
	b.Helper()
	res, err := experiments.RunComparison(experiments.ComparisonConfig{
		Loads:    []float64{0.6},
		Workload: workload.Web,
		Duration: 3e-3,
		Warmup:   1e-3,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkFig8TailFCT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runComparisonBench(b)
		for _, p := range res.SpeedupOverFlowtune() {
			if p.Bucket == "1 packet" {
				b.ReportMetric(p.Speedup, p.Scheme.String()+"-p99-speedup-1pkt")
			}
		}
	}
}

func BenchmarkFig9QueueingDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runComparisonBench(b)
		for _, run := range res.Runs {
			b.ReportMetric(run.P99QueueDelay4Hop*1e6, run.Scheme.String()+"-p99-4hop-us")
		}
	}
}

func BenchmarkFig10Drops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runComparisonBench(b)
		for _, run := range res.Runs {
			b.ReportMetric(run.DroppedGbps, run.Scheme.String()+"-dropped-Gbps")
		}
	}
}

func BenchmarkFig11Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runComparisonBench(b)
		var flowtuneScore float64
		for _, run := range res.Runs {
			if run.Scheme == transport.Flowtune {
				flowtuneScore = run.MeanFairness
			}
		}
		for _, run := range res.Runs {
			if run.Scheme != transport.Flowtune {
				b.ReportMetric(run.MeanFairness-flowtuneScore, run.Scheme.String()+"-fairness-vs-flowtune")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 12-13: normalization (E11-E12)

func BenchmarkFig12OverAllocation(b *testing.B) {
	for _, algo := range experiments.Fig12Algorithms() {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunOverAllocation(algo, experiments.NormalizationConfig{
					Load: 0.6, Duration: 2e-3, Warmup: 0.5e-3, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MeanOverGbps, "mean-over-Gbps")
				b.ReportMetric(res.MaxOverGbps, "max-over-Gbps")
			}
		})
	}
}

func BenchmarkFig13Normalization(b *testing.B) {
	for _, algo := range []string{"NED", "Gradient"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiments.RunNormalizationComparison(algo, experiments.NormalizationConfig{
					Load: 0.6, Duration: 2e-3, Warmup: 0.5e-3, OptimumEvery: 25, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					b.ReportMetric(r.ThroughputFraction, r.Normalizer+"-fraction-of-optimal")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations and micro-benchmarks called out in DESIGN.md

// BenchmarkNEDIteration measures a single sequential NED iteration over the
// default simulation fabric with 5000 flows (the optimizer's hot loop).
func BenchmarkNEDIteration(b *testing.B) {
	topo, err := flowtune.NewTopology(flowtune.DefaultSimTopologyConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	prob := &num.Problem{Capacities: topo.Capacities(), MaxFlowRate: topo.Config().LinkCapacity}
	for i := 0; i < 5000; i++ {
		src := rng.Intn(topo.NumServers())
		dst := rng.Intn(topo.NumServers() - 1)
		if dst >= src {
			dst++
		}
		route, err := topo.Route(src, dst, i)
		if err != nil {
			b.Fatal(err)
		}
		links := make([]int32, len(route))
		for j, l := range route {
			links[j] = int32(l)
		}
		prob.Flows = append(prob.Flows, num.Flow{Route: links, Util: num.LogUtility{W: topo.Config().LinkCapacity}})
	}
	st := num.NewState(prob)
	ned := &num.NED{Gamma: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ned.Step(prob, st)
	}
}

// BenchmarkSolverComparison compares one iteration of each price-update
// algorithm on the same problem (the §6.6 ablation).
func BenchmarkSolverComparison(b *testing.B) {
	topo, err := flowtune.NewTopology(flowtune.DefaultSimTopologyConfig())
	if err != nil {
		b.Fatal(err)
	}
	build := func() (*num.Problem, *num.State) {
		rng := rand.New(rand.NewSource(1))
		prob := &num.Problem{Capacities: topo.Capacities(), MaxFlowRate: topo.Config().LinkCapacity}
		for i := 0; i < 2000; i++ {
			src := rng.Intn(topo.NumServers())
			dst := rng.Intn(topo.NumServers() - 1)
			if dst >= src {
				dst++
			}
			route, _ := topo.Route(src, dst, i)
			links := make([]int32, len(route))
			for j, l := range route {
				links[j] = int32(l)
			}
			prob.Flows = append(prob.Flows, num.Flow{Route: links, Util: num.LogUtility{W: topo.Config().LinkCapacity}})
		}
		return prob, num.NewState(prob)
	}
	solvers := map[string]num.Solver{
		"NED":         &num.NED{Gamma: 1},
		"NED-RT":      &num.NED{Gamma: 1, RT: true},
		"Gradient":    num.NewGradient(),
		"FGM":         num.NewFGM(),
		"Newton-like": num.NewNewtonLike(),
	}
	for name, solver := range solvers {
		b.Run(name, func(b *testing.B) {
			prob, st := build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solver.Step(prob, st)
			}
		})
	}
}

// BenchmarkPartitioningAblation compares the FlowBlock/LinkBlock parallel
// iteration against the single-block (sequential) iteration on the same
// fabric and flow set, the design choice §5 motivates.
func BenchmarkPartitioningAblation(b *testing.B) {
	for _, blocks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			topo, err := topology.NewTwoTier(topology.Config{
				Racks: 32, ServersPerRack: 48, Spines: 16, LinkCapacity: 40e9, LinkDelay: 1.5e-6,
			})
			if err != nil {
				b.Fatal(err)
			}
			pa, err := core.NewParallelAllocator(core.ParallelConfig{Topology: topo, Blocks: blocks, Gamma: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer pa.Close()
			rng := rand.New(rand.NewSource(1))
			if err := pa.SetFlows(experiments.RandomFlows(topo.NumServers(), 12288, rng)); err != nil {
				b.Fatal(err)
			}
			pa.Iterate()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pa.Iterate()
			}
		})
	}
}

// leafSpineConfig is the repository benchmark's 1 024-host leaf-spine
// (bench/workloads.go closFabric), the fabric the ns/flow rows are quoted on.
var leafSpineConfig = flowtune.TopologyConfig{Racks: 32, ServersPerRack: 32, Spines: 16, LinkCapacity: 10e9}

// leafSpineAllocator registers the given number of uniformly random flows
// (seed 1) with a sequential allocator on the leaf-spine fabric.
func leafSpineAllocator(b *testing.B, flows int) *flowtune.Allocator {
	b.Helper()
	topo, err := flowtune.NewTopology(leafSpineConfig)
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := flowtune.NewAllocator(flowtune.AllocatorConfig{Topology: topo})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range experiments.RandomFlows(topo.NumServers(), flows, rand.New(rand.NewSource(1))) {
		if err := alloc.FlowletStart(f.ID, f.Src, f.Dst, f.Weight); err != nil {
			b.Fatal(err)
		}
	}
	return alloc
}

// BenchmarkAllocatorIterate measures a steady-state allocator iteration (NED
// step + F-NORM + update generation) with no churn; it must report 0
// allocs/op — the solver scratch, normalizer scratch, compiled CSR index, and
// the returned update slice are all reused across calls. sim-5k is the
// historical row (5 000 flows on the default simulation fabric); the flows=N
// rows run on the repository benchmark's leaf-spine and report the cost per
// flow against problem size — the per-link work over 3 072 links is the serial
// part that dominates at 1k —, fattree-k16 is the scaling experiment's
// 1 024-host fat-tree, where 94% of the routes are 6 links rather than 4 (the
// row the kernels' 6-link arm answers to; fattree-k16/blocks=1 is the same
// problem on the one-block multicore engine every daemon runs, the scaling
// sweep's flows-* cells), and the blocks=N rows are the
// multicore engine on the same leaf-spine flows — blocks=1 is one FlowBlock
// run by the calling goroutine (one worker, no goroutine) with the sequential
// engine's kernels, the row that says what replacing core.Allocator with it
// would cost; -cpu 1,2 runs blocks=2 and 4 on one worker and on two, the
// crossover table in ARCHITECTURE.md.
func BenchmarkAllocatorIterate(b *testing.B) {
	b.Run("sim-5k", func(b *testing.B) {
		topo, err := flowtune.NewTopology(flowtune.DefaultSimTopologyConfig())
		if err != nil {
			b.Fatal(err)
		}
		alloc, err := flowtune.NewAllocator(flowtune.AllocatorConfig{Topology: topo})
		if err != nil {
			b.Fatal(err)
		}
		n := topo.NumServers()
		for i := 0; i < 5000; i++ {
			if err := alloc.FlowletStart(flowtune.FlowID(i), i%n, (i+7)%n, 1); err != nil {
				b.Fatal(err)
			}
		}
		benchIterate(b, 5000, func() { alloc.Iterate() })
	})
	for _, flows := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("flows=%dk", flows/1000), func(b *testing.B) {
			alloc := leafSpineAllocator(b, flows)
			benchIterate(b, flows, func() { alloc.Iterate() })
		})
	}
	b.Run("fattree-k16/flows=10k", func(b *testing.B) {
		const flows = 10000
		topo, err := flowtune.NewFatTree(flowtune.FatTreeConfig{K: 16, LinkCapacity: 10e9})
		if err != nil {
			b.Fatal(err)
		}
		alloc, err := flowtune.NewAllocator(flowtune.AllocatorConfig{Topology: topo})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range experiments.RandomFlows(topo.NumServers(), flows, rand.New(rand.NewSource(1))) {
			if err := alloc.FlowletStart(f.ID, f.Src, f.Dst, f.Weight); err != nil {
				b.Fatal(err)
			}
		}
		benchIterate(b, flows, func() { alloc.Iterate() })
	})
	b.Run("fattree-k16/blocks=1/flows=10k", func(b *testing.B) {
		const flows = 10000
		topo, err := flowtune.NewFatTree(flowtune.FatTreeConfig{K: 16, LinkCapacity: 10e9})
		if err != nil {
			b.Fatal(err)
		}
		pa, err := flowtune.NewParallelAllocator(flowtune.ParallelAllocatorConfig{
			Topology: topo, Blocks: 1, Gamma: 0.4, Headroom: 0.01, Normalize: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer pa.Close()
		if err := pa.SetFlows(experiments.RandomFlows(topo.NumServers(), flows, rand.New(rand.NewSource(1)))); err != nil {
			b.Fatal(err)
		}
		var ups []flowtune.RateUpdate
		benchIterate(b, flows, func() {
			pa.Iterate()
			ups = pa.AppendUpdates(0.01, ups[:0])
		})
	})
	for _, c := range []struct{ blocks, flows int }{
		{1, 1000}, {1, 10000}, {1, 100000},
		{2, 1000}, {2, 10000}, {2, 100000},
		{4, 1000}, {4, 10000}, {4, 100000},
	} {
		b.Run(fmt.Sprintf("blocks=%d/flows=%dk", c.blocks, c.flows/1000), func(b *testing.B) {
			topo, err := flowtune.NewTopology(leafSpineConfig)
			if err != nil {
				b.Fatal(err)
			}
			pa, err := flowtune.NewParallelAllocator(flowtune.ParallelAllocatorConfig{
				Topology: topo, Blocks: c.blocks, Gamma: 0.4, Headroom: 0.01, Normalize: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pa.Close()
			if err := pa.SetFlows(experiments.RandomFlows(topo.NumServers(), c.flows, rand.New(rand.NewSource(1)))); err != nil {
				b.Fatal(err)
			}
			var ups []flowtune.RateUpdate
			benchIterate(b, c.flows, func() {
				pa.Iterate()
				ups = pa.AppendUpdates(0.01, ups[:0])
			})
		})
	}
}

// benchIterate warms the solver up (prices converge, scratch grows to size),
// then times iterate and reports its cost per flow.
func benchIterate(b *testing.B, flows int, iterate func()) {
	for i := 0; i < 50; i++ {
		iterate()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iterate()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(flows), "ns/flow")
}

// BenchmarkFNormLoads measures F-NORM alone — the per-link ratio pass plus
// the per-flow worst-ratio sweep over the CSR — on the 10k-flow leaf-spine
// problem, against loads the solver already summed (the allocator's call).
func BenchmarkFNormLoads(b *testing.B) {
	const flows = 10000
	alloc := leafSpineAllocator(b, flows)
	for i := 0; i < 50; i++ {
		alloc.Iterate()
	}
	prob, rates := alloc.Problem(), alloc.State().Rates
	loads := num.LinkLoads(prob, rates, nil)
	fnorm := norm.NewFNorm()
	out := fnorm.NormalizeLoads(prob, rates, loads, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = fnorm.NormalizeLoads(prob, rates, loads, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/flows, "ns/flow")
}

// BenchmarkAllocatorChurn measures flowlet start/end handling plus one
// iteration, the allocator's per-event cost.
func BenchmarkAllocatorChurn(b *testing.B) {
	topo, err := flowtune.NewTopology(flowtune.DefaultSimTopologyConfig())
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := flowtune.NewAllocator(flowtune.AllocatorConfig{Topology: topo})
	if err != nil {
		b.Fatal(err)
	}
	// Steady-state population.
	for i := 0; i < 2000; i++ {
		_ = alloc.FlowletStart(flowtune.FlowID(i), i%144, (i+7)%144, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := flowtune.FlowID(10000 + i)
		_ = alloc.FlowletStart(id, i%144, (i+11)%144, 1)
		alloc.Iterate()
		_ = alloc.FlowletEnd(id)
	}
}

// BenchmarkParallelChurn measures a daemon-realistic iteration boundary of
// the multicore allocator — a burst of flowlet starts and ends folded in,
// then one parallel iteration — through the facade's incremental
// FlowletStart/FlowletEnd path versus a full SetFlows rebuild of the live
// set (what the daemon engine did before the incremental CSR maintenance).
// The canonical, larger-scale comparison lives in internal/core.
func BenchmarkParallelChurn(b *testing.B) {
	const (
		baseFlows  = 2048
		churnBurst = 8
	)
	topo, err := topology.NewTwoTier(topology.Config{
		Racks: 8, ServersPerRack: 16, Spines: 4, LinkCapacity: 10e9, LinkDelay: 1e-6,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := topo.NumServers()
	endpoints := func(id int64) (src, dst int) {
		src = int(id*7) % n
		dst = int(id*7+11) % n
		if dst == src {
			dst = (dst + 1) % n
		}
		return src, dst
	}
	setup := func(b *testing.B) (*flowtune.ParallelAllocator, []flowtune.ParallelFlow) {
		b.Helper()
		pa, err := flowtune.NewParallelAllocator(flowtune.ParallelAllocatorConfig{
			Topology: topo, Blocks: 2, Gamma: 1, Normalize: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		flows := make([]flowtune.ParallelFlow, baseFlows)
		for i := range flows {
			src, dst := endpoints(int64(i))
			flows[i] = flowtune.ParallelFlow{ID: flowtune.FlowID(i), Src: src, Dst: dst, Weight: 1}
		}
		if err := pa.SetFlows(flows); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			pa.Iterate()
		}
		return pa, flows
	}

	b.Run("incremental", func(b *testing.B) {
		pa, _ := setup(b)
		defer pa.Close()
		oldest, next := int64(0), int64(baseFlows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < churnBurst; k++ {
				if err := pa.FlowletEnd(flowtune.FlowID(oldest)); err != nil {
					b.Fatal(err)
				}
				oldest++
				src, dst := endpoints(next)
				if err := pa.FlowletStart(flowtune.FlowID(next), src, dst, 1); err != nil {
					b.Fatal(err)
				}
				next++
			}
			pa.Iterate()
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		pa, flows := setup(b)
		defer pa.Close()
		index := make(map[flowtune.FlowID]int, len(flows))
		for i, f := range flows {
			index[f.ID] = i
		}
		oldest, next := int64(0), int64(baseFlows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < churnBurst; k++ {
				idx := index[flowtune.FlowID(oldest)]
				last := len(flows) - 1
				if idx != last {
					flows[idx] = flows[last]
					index[flows[idx].ID] = idx
				}
				flows = flows[:last]
				delete(index, flowtune.FlowID(oldest))
				oldest++
				src, dst := endpoints(next)
				index[flowtune.FlowID(next)] = len(flows)
				flows = append(flows, flowtune.ParallelFlow{ID: flowtune.FlowID(next), Src: src, Dst: dst, Weight: 1})
				next++
			}
			if err := pa.SetFlows(flows); err != nil {
				b.Fatal(err)
			}
			pa.Iterate()
		}
	})
}

// BenchmarkPacketSimulator measures raw simulator throughput (events/s) with
// a DCTCP incast, to document the substrate's capacity.
func BenchmarkPacketSimulator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, err := transport.NewEngine(transport.EngineConfig{Scheme: transport.DCTCP, Horizon: 2e-3})
		if err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 16; f++ {
			if err := eng.AddFlowlet(workload.Flowlet{
				ID: int64(f), Arrival: 0, Src: 16 + f, Dst: 0, SizeBytes: 200_000,
			}); err != nil {
				b.Fatal(err)
			}
		}
		eng.Run(2e-3)
		b.ReportMetric(float64(eng.Sim().Processed()), "events")
	}
}

// readCountingConn counts the Read calls the daemon's session reader issues.
type readCountingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c readCountingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// benchLeafSpine is the repository benchmark's fabric: a 1 024-host leaf-spine
// (32 racks × 32 servers, 16 spines, 10 Gbit/s).
func benchLeafSpine(b *testing.B) *topology.Topology {
	topo, err := topology.NewTwoTier(topology.Config{
		Racks: 32, ServersPerRack: 32, Spines: 16, LinkCapacity: 10e9,
	})
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// randomFlowlets returns a function that buffers the start of a flowlet
// between two distinct servers drawn uniformly (fixed seed) from n.
func randomFlowlets(b *testing.B, client *transport.AllocClient, n int) func(core.FlowID) {
	rng := rand.New(rand.NewSource(1))
	return func(id core.FlowID) {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		if err := client.FlowletStart(id, src, dst, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerChurnStep measures one heavy-churn control-loop round trip
// through a real daemon over loopback TCP — the repository benchmark's
// churn-20k workload as a microbenchmark: 20 000 resident flowlets on a
// 1 024-host leaf-spine, and per op 2 000 ends + 2 000 starts + one Step,
// whose reply carries a rate for nearly every flow. ns/event is the whole
// round trip per notification (client encode and decode included),
// reads/step is how many Read calls the daemon needed to take the 4 001-frame
// burst in, and allocs/op covers both ends of the connection.
func BenchmarkServerChurnStep(b *testing.B) {
	const (
		resident = 20000
		churn    = 2000
	)
	topo := benchLeafSpine(b)
	srv, err := server.New(server.Config{Topology: topo})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	var reads atomic.Int64
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		srv.ServeConn(readCountingConn{Conn: conn, reads: &reads})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	client, err := transport.NewAllocClient(conn, 1)
	if err != nil {
		b.Fatal(err)
	}
	next := int64(0)
	startNext := randomFlowlets(b, client, topo.NumServers())
	start := func() {
		startNext(core.FlowID(next))
		next++
	}
	step := func() {
		if _, err := client.Step(); err != nil {
			b.Fatal(err)
		}
	}
	for next < resident {
		start()
	}
	step()
	op := func() {
		for k := 0; k < churn; k++ {
			if err := client.FlowletEnd(core.FlowID(next - resident)); err != nil {
				b.Fatal(err)
			}
			start()
		}
		step()
	}
	for i := 0; i < 5; i++ {
		op()
	}
	b.ReportAllocs()
	reads.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*churn), "ns/event")
	b.ReportMetric(float64(reads.Load())/float64(b.N), "reads/step")
	client.Close()
	<-served
}

// BenchmarkServerFreerunProbe measures what a flowlet start waits for on a
// free-running daemon — the repository benchmark's freerun-1k workload as a
// closed-loop microbenchmark: loopback TCP, 1 000 resident flowlets on a
// 1 024-host leaf-spine, Interval 1 ms, and per op one probe: end the oldest
// flowlet, start a new one, Flush, Recv until the new flowlet's rate arrives.
// us/probe is a few iterations' worth when the daemon iterates on arrival and
// about one Interval when it waits for its ticker; iterations/probe counts
// arrival and ticker iterations alike; allocs/op covers both ends of the
// connection.
func BenchmarkServerFreerunProbe(b *testing.B) {
	const resident = 1000
	topo := benchLeafSpine(b)
	srv, err := server.New(server.Config{Topology: topo, Interval: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln) // returns when srv.Close closes the listener
	client, err := transport.DialAlloc(ln.Addr().String(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	next := int64(0)
	startNext := randomFlowlets(b, client, topo.NumServers())
	start := func() {
		startNext(core.FlowID(next))
		next++
	}
	probe := func() {
		if err := client.FlowletEnd(core.FlowID(next - resident)); err != nil {
			b.Fatal(err)
		}
		start()
		if err := client.Flush(); err != nil {
			b.Fatal(err)
		}
		for want := core.FlowID(next - 1); ; {
			updates, _, err := client.Recv(time.Second)
			if err != nil {
				b.Fatal(err)
			}
			for _, u := range updates {
				if u.Flow == want {
					return
				}
			}
		}
	}
	for next < resident {
		start()
	}
	// One full turnover of the resident set: the first probe also folds the
	// resident set in, and the flows registered together at a cold start
	// fan out far more per probe than ones added into a settled fabric.
	for i := 0; i < resident; i++ {
		probe()
	}
	b.ReportAllocs()
	iterations := srv.Iterations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/probe")
	b.ReportMetric(float64(srv.Iterations()-iterations)/float64(b.N), "iterations/probe")
}
