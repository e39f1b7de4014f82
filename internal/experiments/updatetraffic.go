package experiments

import (
	"container/heap"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// UpdateTrafficConfig configures the rate-update traffic experiments
// (Figures 5, 6 and 7). The experiment runs the allocator in a fluid-flow
// simulation: flowlets arrive as a Poisson process, drain at their currently
// allocated (normalized) rates, and notify the allocator when they finish;
// what is measured is the volume of control traffic to and from the
// allocator.
type UpdateTrafficConfig struct {
	// Workload selects the flowlet size distribution.
	Workload workload.Kind
	// Load is the target server load.
	Load float64
	// Threshold is the rate-update notification threshold.
	Threshold float64
	// Servers is the number of servers (0 means the default 144-server
	// simulation fabric; other values build racks of 16 servers).
	Servers int
	// Duration is the simulated time in seconds.
	Duration float64
	// Warmup is simulated time excluded from measurement.
	Warmup float64
	// Seed seeds the workload generator.
	Seed int64
}

// withDefaults fills unset fields.
func (c UpdateTrafficConfig) withDefaults() UpdateTrafficConfig {
	if c.Load == 0 {
		c.Load = 0.6
	}
	if c.Threshold == 0 {
		c.Threshold = 0.01
	}
	if c.Duration == 0 {
		c.Duration = 10e-3
	}
	if c.Warmup == 0 {
		c.Warmup = c.Duration / 5
	}
	return c
}

// UpdateTrafficResult is the outcome of one fluid allocator run.
type UpdateTrafficResult struct {
	Config UpdateTrafficConfig
	// ToAllocatorFraction and FromAllocatorFraction are control traffic as
	// fractions of total network capacity (Figure 5).
	ToAllocatorFraction   float64
	FromAllocatorFraction float64
	// RateUpdatesSent and RateUpdatesSuppressed count notifications.
	RateUpdatesSent       int64
	RateUpdatesSuppressed int64
	// FlowletsCompleted counts flowlets that finished during measurement.
	FlowletsCompleted int64
	// MeanConcurrentFlows is the average number of flows in the system.
	MeanConcurrentFlows float64
}

// departure is a pending flowlet completion in the fluid simulation.
type departure struct {
	flow      core.FlowID
	remaining float64 // bytes remaining
	// earliestEnd is the earliest physically possible completion time:
	// even at line rate a flowlet cannot finish before its serialization
	// time plus one round trip, so the fluid model keeps it in the system
	// at least that long.
	earliestEnd float64
}

// flowletHeap orders pending arrivals by time.
type flowletHeap []workload.Flowlet

func (h flowletHeap) Len() int            { return len(h) }
func (h flowletHeap) Less(i, j int) bool  { return h[i].Arrival < h[j].Arrival }
func (h flowletHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *flowletHeap) Push(x interface{}) { *h = append(*h, x.(workload.Flowlet)) }
func (h *flowletHeap) Pop() interface{} {
	old := *h
	n := len(old)
	f := old[n-1]
	*h = old[:n-1]
	return f
}

// updateTrafficTopology builds the fabric for the experiment.
func updateTrafficTopology(servers int) (*topology.Topology, error) {
	if servers == 0 || servers == 144 {
		return topology.NewTwoTier(topology.DefaultSimConfig())
	}
	const perRack = 16
	if servers%perRack != 0 {
		return nil, fmt.Errorf("experiments: servers must be a multiple of %d, got %d", perRack, servers)
	}
	cfg := topology.DefaultSimConfig()
	cfg.Racks = servers / perRack
	return topology.NewTwoTier(cfg)
}

// RunUpdateTraffic runs the fluid allocator simulation and measures control
// traffic. The allocator is the one every flowtuned runs (a one-block
// ParallelAllocator, γ 0.4, the threshold as headroom), stepped every 10 µs
// (§6.2) as a daemon steps it: one iteration, then the notify filter.
func RunUpdateTraffic(cfg UpdateTrafficConfig) (*UpdateTrafficResult, error) {
	cfg = cfg.withDefaults()
	topo, err := updateTrafficTopology(cfg.Servers)
	if err != nil {
		return nil, err
	}
	alloc, err := core.NewParallelAllocator(core.ParallelConfig{
		Topology:  topo,
		Blocks:    1,
		Gamma:     0.4,
		Headroom:  cfg.Threshold,
		Normalize: true,
	})
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

	const interval = transport.AllocatorPeriod
	horizon := cfg.Warmup + cfg.Duration
	arrivals := flowletHeap(gen.GenerateUntil(horizon))
	heap.Init(&arrivals)

	active := make(map[core.FlowID]*departure)
	res := &UpdateTrafficResult{Config: cfg}
	var concurrentSum float64
	var samples, starts, ends int64
	var updates []core.RateUpdate
	var finished []core.FlowID

	for now := 0.0; now < horizon; now += interval {
		measuring := now >= cfg.Warmup
		// Admit flowlets that arrived during this interval.
		for len(arrivals) > 0 && arrivals[0].Arrival <= now {
			f := heap.Pop(&arrivals).(workload.Flowlet)
			id := core.FlowID(f.ID)
			if err := alloc.FlowletStart(id, f.Src, f.Dst, 1); err != nil {
				return nil, err
			}
			active[id] = &departure{
				flow:        id,
				remaining:   float64(f.SizeBytes),
				earliestEnd: f.Arrival + topo.BaseRTT(f.Src, f.Dst) + float64(f.SizeBytes*8)/topo.Config().LinkCapacity,
			}
			if measuring {
				starts++
			}
		}
		// One allocator iteration; rates drain flowlets until the next one.
		alloc.Iterate()
		updates = alloc.AppendUpdates(cfg.Threshold, updates[:0])
		if measuring && alloc.NumFlows() > 0 {
			res.RateUpdatesSent += int64(len(updates))
			res.RateUpdatesSuppressed += int64(alloc.NumFlows() - len(updates))
		}
		finished = finished[:0]
		alloc.ForEachRate(func(id core.FlowID, rate float64) {
			d := active[id]
			d.remaining -= rate / 8 * interval
			if d.remaining <= 0 && now >= d.earliestEnd {
				finished = append(finished, id)
			}
		})
		// Ending in ID order fixes the allocator's swap-delete order, and
		// with it the float summation order of later iterations.
		slices.Sort(finished)
		for _, id := range finished {
			if err := alloc.FlowletEnd(id); err != nil {
				return nil, err
			}
			delete(active, id)
			if measuring {
				ends++
				res.FlowletsCompleted++
			}
		}
		if measuring {
			concurrentSum += float64(len(active))
			samples++
		}
	}

	// Control messages are the §6.2 payloads plus each one's amortized share
	// of TCP/IP/Ethernet framing, assuming endpoints and the allocator batch
	// them into MTU-sized packets; total network capacity is the sum of the
	// server link capacities (the paper's convention).
	const perMessageOverheadBytes = 4
	toBytes := starts*(core.FlowletStartBytes+perMessageOverheadBytes) + ends*(core.FlowletEndBytes+perMessageOverheadBytes)
	fromBytes := res.RateUpdatesSent * (core.RateUpdateBytes + perMessageOverheadBytes)
	capacityBits := float64(topo.NumServers()) * topo.Config().LinkCapacity
	res.ToAllocatorFraction = float64(toBytes*8) / cfg.Duration / capacityBits
	res.FromAllocatorFraction = float64(fromBytes*8) / cfg.Duration / capacityBits
	if samples > 0 {
		res.MeanConcurrentFlows = concurrentSum / float64(samples)
	}
	return res, nil
}

// Fig5Point is one point of Figure 5: control-traffic fraction per workload
// and load.
type Fig5Point struct {
	Workload      workload.Kind
	Load          float64
	ToAllocator   float64
	FromAllocator float64
}

// RunFig5 sweeps workloads and loads at the default 0.01 threshold.
func RunFig5(loads []float64, kinds []workload.Kind, duration float64, seed int64) ([]Fig5Point, error) {
	if len(loads) == 0 {
		loads = []float64{0.2, 0.4, 0.6, 0.8}
	}
	if len(kinds) == 0 {
		kinds = []workload.Kind{workload.Web, workload.Cache, workload.Hadoop}
	}
	var out []Fig5Point
	for _, k := range kinds {
		for _, l := range loads {
			r, err := RunUpdateTraffic(UpdateTrafficConfig{Workload: k, Load: l, Duration: duration, Seed: seed})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig5Point{
				Workload:      k,
				Load:          l,
				ToAllocator:   r.ToAllocatorFraction,
				FromAllocator: r.FromAllocatorFraction,
			})
		}
	}
	return out, nil
}

// RenderFig5 prints the Figure 5 series.
func RenderFig5(points []Fig5Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-6s %-22s %-22s\n", "workload", "load", "from allocator (frac)", "to allocator (frac)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s %-6.2f %-22.5f %-22.5f\n", p.Workload, p.Load, p.FromAllocator, p.ToAllocator)
	}
	return b.String()
}

// Fig6Point is one point of Figure 6: percentage reduction in from-allocator
// traffic when raising the notification threshold above 0.01.
type Fig6Point struct {
	Workload  workload.Kind
	Load      float64
	Threshold float64
	Reduction float64 // percent, relative to the 0.01 threshold
}

// RunFig6 sweeps thresholds per workload and load.
func RunFig6(loads []float64, kinds []workload.Kind, thresholds []float64, duration float64, seed int64) ([]Fig6Point, error) {
	if len(loads) == 0 {
		loads = []float64{0.2, 0.4, 0.6, 0.8}
	}
	if len(kinds) == 0 {
		kinds = []workload.Kind{workload.Web, workload.Cache, workload.Hadoop}
	}
	if len(thresholds) == 0 {
		thresholds = []float64{0.02, 0.03, 0.04, 0.05}
	}
	var out []Fig6Point
	for _, k := range kinds {
		for _, l := range loads {
			base, err := RunUpdateTraffic(UpdateTrafficConfig{Workload: k, Load: l, Threshold: 0.01, Duration: duration, Seed: seed})
			if err != nil {
				return nil, err
			}
			for _, th := range thresholds {
				r, err := RunUpdateTraffic(UpdateTrafficConfig{Workload: k, Load: l, Threshold: th, Duration: duration, Seed: seed})
				if err != nil {
					return nil, err
				}
				reduction := 0.0
				if base.FromAllocatorFraction > 0 {
					reduction = 100 * (1 - r.FromAllocatorFraction/base.FromAllocatorFraction)
				}
				out = append(out, Fig6Point{Workload: k, Load: l, Threshold: th, Reduction: reduction})
			}
		}
	}
	return out, nil
}

// RenderFig6 prints the Figure 6 series.
func RenderFig6(points []Fig6Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-6s %-10s %-12s\n", "workload", "load", "threshold", "% reduction")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s %-6.2f %-10.2f %-12.1f\n", p.Workload, p.Load, p.Threshold, p.Reduction)
	}
	return b.String()
}

// Fig7Point is one point of Figure 7: from-allocator traffic fraction as the
// network grows.
type Fig7Point struct {
	Servers       int
	Load          float64
	FromAllocator float64
}

// RunFig7 sweeps network sizes at several loads with the Web workload.
func RunFig7(sizes []int, loads []float64, duration float64, seed int64) ([]Fig7Point, error) {
	if len(sizes) == 0 {
		sizes = []int{128, 256, 512, 1024, 2048}
	}
	if len(loads) == 0 {
		loads = []float64{0.4, 0.6, 0.8}
	}
	var out []Fig7Point
	for _, n := range sizes {
		for _, l := range loads {
			r, err := RunUpdateTraffic(UpdateTrafficConfig{
				Workload: workload.Web,
				Load:     l,
				Servers:  n,
				Duration: duration,
				Seed:     seed,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig7Point{Servers: n, Load: l, FromAllocator: r.FromAllocatorFraction})
		}
	}
	return out, nil
}

// RenderFig7 prints the Figure 7 series.
func RenderFig7(points []Fig7Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-6s %-22s\n", "servers", "load", "from allocator (frac)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8d %-6.2f %-22.5f\n", p.Servers, p.Load, p.FromAllocator)
	}
	return b.String()
}
