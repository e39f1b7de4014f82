package experiments

import (
	"fmt"
	"strings"

	"repro/internal/norm"
	"repro/internal/num"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// NormalizationConfig configures the normalization experiments (Figures 12
// and 13): an online fluid simulation of the optimizer under flowlet churn,
// measuring how much the raw allocations exceed link capacities and how much
// throughput the two normalization schemes retain relative to the optimum.
type NormalizationConfig struct {
	// Load is the target server load.
	Load float64
	// Workload selects the flowlet size distribution (default Web).
	Workload workload.Kind
	// Duration is the simulated time.
	Duration float64
	// Warmup precedes measurement. The optimizer iterates once per
	// transport.AllocatorPeriod (10 µs) of simulated time.
	Warmup float64
	// OptimumEvery controls how often (in iterations) the reference
	// optimal allocation is recomputed for Figure 13 (it requires running
	// NED to convergence, which is expensive). Default 50.
	OptimumEvery int
	// Seed seeds the workload generator.
	Seed int64
}

func (c NormalizationConfig) withDefaults() NormalizationConfig {
	if c.Load == 0 {
		c.Load = 0.6
	}
	if c.Duration == 0 {
		c.Duration = 4e-3
	}
	if c.Warmup == 0 {
		c.Warmup = 1e-3
	}
	if c.OptimumEvery == 0 {
		c.OptimumEvery = 50
	}
	return c
}

// OverAllocationResult is one Figure 12 point: the mean total over-capacity
// allocation of one algorithm under churn.
type OverAllocationResult struct {
	Algorithm string
	Load      float64
	// MeanOverGbps is the time-averaged sum of over-capacity allocations.
	MeanOverGbps float64
	// MaxOverGbps is the worst iteration observed.
	MaxOverGbps float64
}

// NormalizationResult is one Figure 13 point: throughput of a normalization
// scheme as a fraction of the optimal allocation's throughput.
type NormalizationResult struct {
	Algorithm  string
	Normalizer string
	Load       float64
	// ThroughputFraction is mean normalized throughput / optimal.
	ThroughputFraction float64
}

// churnState drives the shared fluid churn simulation.
type churnState struct {
	cfg   NormalizationConfig
	topo  *topology.Topology
	prob  num.Problem
	ids   []int64 // flow IDs parallel to prob.Flows
	bytes []float64
	next  int
	flows []workload.Flowlet
}

// newChurnState prepares the workload trace and empty problem.
func newChurnState(cfg NormalizationConfig) (*churnState, error) {
	topo, err := topology.NewTwoTier(topology.DefaultSimConfig())
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Kind:               cfg.Workload,
		NumServers:         topo.NumServers(),
		ServerLinkCapacity: topo.Config().LinkCapacity,
		Load:               cfg.Load,
		Seed:               cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	cs := &churnState{
		cfg:   cfg,
		topo:  topo,
		flows: gen.GenerateUntil(cfg.Warmup + cfg.Duration),
	}
	cs.prob.Capacities = topo.Capacities()
	cs.prob.MaxFlowRate = topo.Config().LinkCapacity
	return cs, nil
}

// admit adds flowlets that have arrived by time now.
func (cs *churnState) admit(now float64) error {
	for cs.next < len(cs.flows) && cs.flows[cs.next].Arrival <= now {
		f := cs.flows[cs.next]
		cs.next++
		route, err := cs.topo.Route(f.Src, f.Dst, int(f.ID))
		if err != nil {
			return err
		}
		links := make([]int32, len(route))
		for i, l := range route {
			links[i] = int32(l)
		}
		// Weights are scaled by link capacity so optimal prices are O(1),
		// matching the allocator's convention. AppendFlow keeps the
		// compiled CSR index in sync across churn.
		cs.prob.AppendFlow(num.Flow{Route: links, Weight: cs.topo.Config().LinkCapacity})
		cs.ids = append(cs.ids, f.ID)
		cs.bytes = append(cs.bytes, float64(f.SizeBytes))
	}
	return nil
}

// drain reduces remaining bytes at the given rates and removes finished
// flows, keeping the state slices and the solver's rate slice consistent.
func (cs *churnState) drain(st *num.State, rates []float64, interval float64) {
	for i := 0; i < len(cs.prob.Flows); {
		cs.bytes[i] -= rates[i] / 8 * interval
		if cs.bytes[i] <= 0 {
			last := len(cs.prob.Flows) - 1
			cs.ids[i] = cs.ids[last]
			cs.bytes[i] = cs.bytes[last]
			st.Rates[i] = st.Rates[last]
			rates[i] = rates[last]
			// RemoveFlowSwap applies the same swap-delete to the problem
			// and its compiled CSR index.
			cs.prob.RemoveFlowSwap(i)
			cs.ids = cs.ids[:last]
			cs.bytes = cs.bytes[:last]
			st.Resize(last)
			rates = rates[:last]
			continue
		}
		i++
	}
}

// solverByName constructs the algorithms compared in Figures 12 and 13.
func solverByName(name string) (num.Solver, error) {
	switch name {
	case "NED":
		return &num.NED{Gamma: 1}, nil
	case "NED-RT":
		return &num.NED{Gamma: 1, RT: true}, nil
	case "Gradient":
		return num.NewGradient(), nil
	case "Gradient-RT":
		g := num.NewGradient()
		g.RT = true
		return g, nil
	case "FGM":
		return num.NewFGM(), nil
	case "Newton-like":
		return num.NewNewtonLike(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", name)
	}
}

// Fig12Algorithms lists the algorithms compared in Figure 12.
func Fig12Algorithms() []string {
	return []string{"NED", "NED-RT", "Gradient", "Gradient-RT", "FGM"}
}

// RunOverAllocation measures one algorithm's over-capacity allocations under
// churn (Figure 12). Rates used for draining are F-NORM normalized so flow
// lifetimes are realistic; the over-allocation metric uses the raw rates.
func RunOverAllocation(algorithm string, cfg NormalizationConfig) (*OverAllocationResult, error) {
	cfg = cfg.withDefaults()
	solver, err := solverByName(algorithm)
	if err != nil {
		return nil, err
	}
	cs, err := newChurnState(cfg)
	if err != nil {
		return nil, err
	}
	st := num.NewState(&cs.prob)
	fnorm := norm.NewFNorm()
	horizon := cfg.Warmup + cfg.Duration
	var sumOver, maxOver float64
	var samples int64
	var normalized []float64
	for now := 0.0; now < horizon; now += transport.AllocatorPeriod {
		if err := cs.admit(now); err != nil {
			return nil, err
		}
		if len(cs.prob.Flows) == 0 {
			continue
		}
		st.Resize(len(cs.prob.Flows))
		solver.Step(&cs.prob, st)
		over := num.OverAllocation(&cs.prob, st.Rates)
		if now >= cfg.Warmup {
			sumOver += over
			if over > maxOver {
				maxOver = over
			}
			samples++
		}
		normalized = fnorm.Normalize(&cs.prob, st.Rates, normalized)
		cs.drain(st, normalized, transport.AllocatorPeriod)
	}
	res := &OverAllocationResult{Algorithm: algorithm, Load: cfg.Load, MaxOverGbps: maxOver / 1e9}
	if samples > 0 {
		res.MeanOverGbps = sumOver / float64(samples) / 1e9
	}
	return res, nil
}

// RunFig12 sweeps the Figure 12 algorithms over loads.
func RunFig12(loads []float64, cfg NormalizationConfig) ([]OverAllocationResult, error) {
	if len(loads) == 0 {
		loads = []float64{0.2, 0.4, 0.6, 0.8}
	}
	var out []OverAllocationResult
	for _, algo := range Fig12Algorithms() {
		for _, load := range loads {
			c := cfg
			c.Load = load
			r, err := RunOverAllocation(algo, c)
			if err != nil {
				return nil, err
			}
			out = append(out, *r)
		}
	}
	return out, nil
}

// RenderFig12 prints the Figure 12 series.
func RenderFig12(points []OverAllocationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-6s %-22s %-22s\n", "algorithm", "load", "mean over-alloc (Gbps)", "max over-alloc (Gbps)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12s %-6.2f %-22.2f %-22.2f\n", p.Algorithm, p.Load, p.MeanOverGbps, p.MaxOverGbps)
	}
	return b.String()
}

// RunNormalizationComparison measures U-NORM and F-NORM throughput as a
// fraction of the optimal allocation for one algorithm (Figure 13).
func RunNormalizationComparison(algorithm string, cfg NormalizationConfig) ([]NormalizationResult, error) {
	cfg = cfg.withDefaults()
	solver, err := solverByName(algorithm)
	if err != nil {
		return nil, err
	}
	cs, err := newChurnState(cfg)
	if err != nil {
		return nil, err
	}
	st := num.NewState(&cs.prob)
	fnorm := norm.NewFNorm()
	unorm := norm.NewUNorm()
	horizon := cfg.Warmup + cfg.Duration

	var sumF, sumU, sumOpt float64
	var samples int64
	var fRates, uRates []float64
	iter := 0
	for now := 0.0; now < horizon; now += transport.AllocatorPeriod {
		if err := cs.admit(now); err != nil {
			return nil, err
		}
		if len(cs.prob.Flows) == 0 {
			continue
		}
		st.Resize(len(cs.prob.Flows))
		solver.Step(&cs.prob, st)
		fRates = fnorm.Normalize(&cs.prob, st.Rates, fRates)
		uRates = unorm.Normalize(&cs.prob, st.Rates, uRates)
		iter++
		if now >= cfg.Warmup && iter%cfg.OptimumEvery == 0 {
			// Reference optimum: a fresh NED run to convergence on the
			// current flow set.
			opt := computeOptimalThroughput(&cs.prob)
			if opt > 0 {
				sumF += num.TotalThroughput(fRates) / opt
				sumU += num.TotalThroughput(uRates) / opt
				sumOpt += 1
				samples++
			}
		}
		cs.drain(st, fRates, transport.AllocatorPeriod)
	}
	if samples == 0 {
		return nil, fmt.Errorf("experiments: no samples collected (duration too short)")
	}
	return []NormalizationResult{
		{Algorithm: algorithm, Normalizer: "F-NORM", Load: cfg.Load, ThroughputFraction: sumF / float64(samples)},
		{Algorithm: algorithm, Normalizer: "U-NORM", Load: cfg.Load, ThroughputFraction: sumU / float64(samples)},
	}, nil
}

// computeOptimalThroughput runs NED to convergence with fresh state (leaving
// the online solver's prices untouched) and returns the converged (feasible,
// F-NORM-ed) total throughput. The problem itself is not mutated, so its
// compiled index is shared with the online iteration.
func computeOptimalThroughput(p *num.Problem) float64 {
	st := num.NewState(p)
	solver := &num.NED{Gamma: 1}
	_, _ = num.Solve(solver, p, st, num.SolveOptions{MaxIterations: 300, Tolerance: 1e-6})
	rates := norm.NewFNorm().Normalize(p, st.Rates, nil)
	return num.TotalThroughput(rates)
}

// RunFig13 compares U-NORM and F-NORM for NED and Gradient over loads.
func RunFig13(loads []float64, cfg NormalizationConfig) ([]NormalizationResult, error) {
	if len(loads) == 0 {
		loads = []float64{0.2, 0.4, 0.6, 0.8}
	}
	var out []NormalizationResult
	for _, algo := range []string{"NED", "Gradient"} {
		for _, load := range loads {
			c := cfg
			c.Load = load
			rs, err := RunNormalizationComparison(algo, c)
			if err != nil {
				return nil, err
			}
			out = append(out, rs...)
		}
	}
	return out, nil
}

// RenderFig13 prints the Figure 13 series.
func RenderFig13(points []NormalizationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %-6s %-26s\n", "algorithm", "norm", "load", "throughput (frac of optimal)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %-8s %-6.2f %-26.3f\n", p.Algorithm, p.Normalizer, p.Load, p.ThroughputFraction)
	}
	return b.String()
}
