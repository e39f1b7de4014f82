package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fastpass"
	"repro/internal/topology"
)

// ScalingCase is one row of the §6.1 multicore benchmark table.
type ScalingCase struct {
	// Blocks is the number of rack blocks (FlowBlocks = Blocks²).
	Blocks int
	// Nodes is the number of servers.
	Nodes int
	// Flows is the number of concurrently allocated flows.
	Flows int
}

// ScalingRow is one measured row of the table.
type ScalingRow struct {
	ScalingCase
	// FlowBlocks is Blocks², the paper's "cores" column; Workers is the
	// number of cores the allocator actually ran them on,
	// min(FlowBlocks, GOMAXPROCS).
	FlowBlocks, Workers int
	// TimePerIteration is the measured wall-clock time of one full
	// allocator iteration.
	TimePerIteration time.Duration
	// OneBlockTimePerIteration is the one-block engine's iteration time on
	// the same fabric and flow set — the allocator every flowtuned runs by
	// default, one FlowBlock on the caller alone (W = 1), timed with the
	// notify filter the multi-block figure leaves out: the number the
	// multicore engine has to beat on the machine at hand.
	OneBlockTimePerIteration time.Duration
	// AllocatedTbps is the fabric bandwidth being scheduled, in Tbit/s
	// (number of servers × server link rate), the figure of merit the
	// paper quotes (e.g. "4 cores allocate 15.36 Tbit/s in 8.29 µs").
	AllocatedTbps float64
}

// DefaultScalingCases returns the seven rows of the paper's §6.1 table.
func DefaultScalingCases() []ScalingCase {
	return []ScalingCase{
		{Blocks: 2, Nodes: 384, Flows: 3072},
		{Blocks: 4, Nodes: 768, Flows: 6144},
		{Blocks: 8, Nodes: 1536, Flows: 12288},
		{Blocks: 8, Nodes: 1536, Flows: 24576},
		{Blocks: 8, Nodes: 1536, Flows: 49152},
		{Blocks: 8, Nodes: 3072, Flows: 49152},
		{Blocks: 8, Nodes: 4608, Flows: 49152},
	}
}

// benchTopologyConfig returns the fabric used for the allocator scaling
// benchmark: racks of 48 servers with 40 Gbit/s links, mirroring the
// Facebook-fabric-pod scale networks the paper's benchmark targets.
func benchTopologyConfig(nodes int) topology.Config {
	const serversPerRack = 48
	return topology.Config{
		Racks:          nodes / serversPerRack,
		ServersPerRack: serversPerRack,
		Spines:         16,
		LinkCapacity:   40e9,
		LinkDelay:      1.5e-6,
		HostDelay:      2e-6,
	}
}

// RandomFlows draws flows with uniformly random distinct endpoints.
func RandomFlows(numServers, count int, rng *rand.Rand) []core.ParallelFlow {
	flows := make([]core.ParallelFlow, count)
	for i := range flows {
		src := rng.Intn(numServers)
		dst := rng.Intn(numServers - 1)
		if dst >= src {
			dst++
		}
		flows[i] = core.ParallelFlow{ID: core.FlowID(i), Src: src, Dst: dst, Weight: 1}
	}
	return flows
}

// measureScalingCase builds the fabric and flow set for one case and measures
// the mean time of an allocator iteration over iters iterations (after a
// warmup of warmup iterations).
func measureScalingCase(c ScalingCase, warmup, iters int, seed int64) (ScalingRow, error) {
	cfg := benchTopologyConfig(c.Nodes)
	topo, err := topology.NewTwoTier(cfg)
	if err != nil {
		return ScalingRow{}, err
	}
	pa, err := core.NewParallelAllocator(core.ParallelConfig{
		Topology:  topo,
		Blocks:    c.Blocks,
		Gamma:     1,
		Normalize: true,
	})
	if err != nil {
		return ScalingRow{}, err
	}
	defer pa.Close()
	const threshold = 0.01
	one, err := core.NewParallelAllocator(core.ParallelConfig{
		Topology:  topo,
		Blocks:    1,
		Gamma:     1,
		Headroom:  threshold,
		Normalize: true,
	})
	if err != nil {
		return ScalingRow{}, err
	}
	flows := RandomFlows(topo.NumServers(), c.Flows, rand.New(rand.NewSource(seed)))
	if err := pa.SetFlows(flows); err != nil {
		return ScalingRow{}, err
	}
	if err := one.SetFlows(flows); err != nil {
		return ScalingRow{}, err
	}
	var updates []core.RateUpdate
	measure := func(iterate func()) time.Duration {
		for i := 0; i < warmup; i++ {
			iterate()
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			iterate()
		}
		return time.Since(start) / time.Duration(iters)
	}
	return ScalingRow{
		ScalingCase:      c,
		FlowBlocks:       c.Blocks * c.Blocks,
		Workers:          pa.NumWorkers(),
		TimePerIteration: measure(pa.Iterate),
		OneBlockTimePerIteration: measure(func() {
			one.Iterate()
			updates = one.AppendUpdates(threshold, updates[:0])
		}),
		AllocatedTbps: float64(topo.NumServers()) * cfg.LinkCapacity / 1e12,
	}, nil
}

// ScalingTable runs all cases and returns the measured rows.
func ScalingTable(cases []ScalingCase, warmup, iters int, seed int64) ([]ScalingRow, error) {
	if len(cases) == 0 {
		cases = DefaultScalingCases()
	}
	rows := make([]ScalingRow, 0, len(cases))
	for _, c := range cases {
		row, err := measureScalingCase(c, warmup, iters, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling case %+v: %w", c, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderScalingTable prints the rows in the paper's table format.
func RenderScalingTable(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-7s %-7s %-7s %-14s %-14s %-10s\n", "FlowBlocks", "Workers", "Nodes", "Flows", "Time/iter", "1 block", "Tbit/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %-7d %-7d %-7d %-14s %-14s %-10.2f\n",
			r.FlowBlocks, r.Workers, r.Nodes, r.Flows, r.TimePerIteration, r.OneBlockTimePerIteration, r.AllocatedTbps)
	}
	return b.String()
}

// FastpassComparison is the result of the Flowtune-vs-Fastpass throughput
// comparison (§6.1): both allocators run on one core, and the comparison is
// the network bandwidth each can keep scheduled.
type FastpassComparison struct {
	// FastpassTbpsPerCore is the bandwidth one core of the Fastpass-style
	// per-packet arbiter can schedule (timeslot matchings per second ×
	// admitted packets × packet size).
	FastpassTbpsPerCore float64
	// FlowtuneTbpsPerCore is the bandwidth one Flowtune core schedules:
	// the fabric bandwidth divided by the number of cores, provided an
	// iteration completes within the allocator's iteration budget.
	FlowtuneTbpsPerCore float64
	// ThroughputRatio is Flowtune's per-core advantage.
	ThroughputRatio float64
}

// MeasureFastpassComparison measures the per-core allocation throughput of a
// Fastpass-style arbiter and of Flowtune's allocator on the same fabric.
func MeasureFastpassComparison(nodes, flows int, seed int64) (FastpassComparison, error) {
	const packetBits = 1500 * 8
	// Fastpass: how many timeslot matchings per second can one core
	// compute for this many nodes with a dense backlog?
	arb, err := fastpass.NewArbiter(nodes)
	if err != nil {
		return FastpassComparison{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < flows; i++ {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		if err := arb.AddDemand(src, dst, 1000); err != nil {
			return FastpassComparison{}, err
		}
	}
	const slots = 2000
	start := time.Now()
	var admitted int64
	for i := 0; i < slots; i++ {
		admitted += int64(len(arb.AllocateTimeslot()))
	}
	elapsed := time.Since(start).Seconds()
	fastpassBitsPerSec := float64(admitted) * packetBits / elapsed

	// Flowtune: one core (1 block => 1 FlowBlock) iterating over the same
	// number of flows. The bandwidth it schedules is the whole fabric's,
	// as long as the iteration finishes within the 10 µs iteration budget;
	// otherwise it scales down proportionally.
	cfg := benchTopologyConfig(384)
	topo, err := topology.NewTwoTier(cfg)
	if err != nil {
		return FastpassComparison{}, err
	}
	pa, err := core.NewParallelAllocator(core.ParallelConfig{Topology: topo, Blocks: 1, Gamma: 1})
	if err != nil {
		return FastpassComparison{}, err
	}
	defer pa.Close()
	if err := pa.SetFlows(RandomFlows(topo.NumServers(), flows, rng)); err != nil {
		return FastpassComparison{}, err
	}
	pa.Iterate()
	const iters = 200
	start = time.Now()
	for i := 0; i < iters; i++ {
		pa.Iterate()
	}
	iterTime := time.Since(start).Seconds() / iters
	fabricBits := float64(topo.NumServers()) * cfg.LinkCapacity
	const iterationBudget = 10e-6
	flowtuneBits := fabricBits
	if iterTime > iterationBudget {
		flowtuneBits = fabricBits * iterationBudget / iterTime
	}

	cmp := FastpassComparison{
		FastpassTbpsPerCore: fastpassBitsPerSec / 1e12,
		FlowtuneTbpsPerCore: flowtuneBits / 1e12,
	}
	if cmp.FastpassTbpsPerCore > 0 {
		cmp.ThroughputRatio = cmp.FlowtuneTbpsPerCore / cmp.FastpassTbpsPerCore
	}
	return cmp, nil
}

// Render prints the comparison.
func (c FastpassComparison) Render() string {
	return fmt.Sprintf("Fastpass: %.3f Tbit/s per core\nFlowtune: %.3f Tbit/s per core\nFlowtune/Fastpass throughput ratio: %.1fx\n",
		c.FastpassTbpsPerCore, c.FlowtuneTbpsPerCore, c.ThroughputRatio)
}
