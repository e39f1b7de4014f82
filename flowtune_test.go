package flowtune_test

import (
	"fmt"
	"math"
	"net"
	"testing"

	flowtune "repro"
)

func defaultTopo(t *testing.T) *flowtune.Topology {
	t.Helper()
	topo, err := flowtune.NewTopology(flowtune.DefaultSimTopologyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestPublicAllocatorEndToEnd(t *testing.T) {
	topo := defaultTopo(t)
	alloc, err := flowtune.NewAllocator(flowtune.AllocatorConfig{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.FlowletStart(1, 0, 17, 1); err != nil {
		t.Fatal(err)
	}
	if err := alloc.FlowletStart(2, 3, 17, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		alloc.Iterate()
	}
	want := topo.Config().LinkCapacity * 0.99 / 2
	for _, id := range []flowtune.FlowID{1, 2} {
		if got := alloc.Rate(id); math.Abs(got-want)/want > 0.02 {
			t.Errorf("flow %d rate %.3g, want %.3g", id, got, want)
		}
	}
}

func TestPublicParallelAllocator(t *testing.T) {
	topo, err := flowtune.NewTopology(flowtune.TopologyConfig{
		Racks: 8, ServersPerRack: 8, Spines: 4, LinkCapacity: 10e9, LinkDelay: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := flowtune.NewParallelAllocator(flowtune.ParallelAllocatorConfig{
		Topology: topo, Blocks: 2, Normalize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	flows := []flowtune.ParallelFlow{
		{ID: 1, Src: 0, Dst: 32},
		{ID: 2, Src: 8, Dst: 32},
	}
	if err := pa.SetFlows(flows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		pa.Iterate()
	}
	rates := pa.Rates()
	if len(rates) != 2 {
		t.Fatalf("got %d rates", len(rates))
	}
	for id, r := range rates {
		if r <= 0 || r > topo.Config().LinkCapacity*1.001 {
			t.Errorf("flow %d rate %.3g out of range", id, r)
		}
	}
}

func TestPublicSolverAndNormalizer(t *testing.T) {
	const capacity = 10e9
	p := &flowtune.Problem{
		Capacities:  []float64{capacity},
		MaxFlowRate: capacity,
		Flows: []flowtune.Flow{
			{Route: []int32{0}, Weight: capacity},
			{Route: []int32{0}, Weight: capacity},
		},
	}
	st := flowtune.NewState(p)
	if _, err := flowtune.Solve(flowtune.NED(1), p, st, flowtune.SolveOptions{MaxIterations: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, r := range st.Rates {
		if math.Abs(r-capacity/2)/(capacity/2) > 0.01 {
			t.Errorf("rate %.3g, want %.3g", r, capacity/2)
		}
	}
	// Baseline solvers are constructible through the public API.
	for _, s := range []flowtune.Solver{flowtune.GradientSolver(), flowtune.FGMSolver(), flowtune.NewtonLikeSolver()} {
		if s.Name() == "" {
			t.Error("solver with empty name")
		}
	}
	// Normalizers scale an over-allocation back into the feasible region.
	over := []float64{8e9, 8e9}
	for _, n := range []flowtune.Normalizer{flowtune.FNorm(), flowtune.UNorm()} {
		out := n.Normalize(p, over, nil)
		if out[0]+out[1] > capacity*1.001 {
			t.Errorf("%s left the link over capacity", n.Name())
		}
	}
}

func TestPublicWorkloadGenerator(t *testing.T) {
	gen, err := flowtune.NewWorkloadGenerator(flowtune.WorkloadConfig{
		Kind: flowtune.Web, NumServers: 64, ServerLinkCapacity: 10e9, Load: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if f := gen.Next(); f.ID != i || f.Src == f.Dst {
			t.Fatalf("flowlet %d: %+v", i, f)
		}
	}
	for _, k := range []flowtune.WorkloadKind{flowtune.Web, flowtune.Cache, flowtune.Hadoop} {
		if k.String() == "" {
			t.Error("workload kind with empty name")
		}
	}
}

func TestPublicSimulation(t *testing.T) {
	topo := defaultTopo(t)
	sim, err := flowtune.NewSimulation(flowtune.SimulationConfig{
		Scheme: flowtune.SchemeDCTCP, Topology: topo, Horizon: 3e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddFlowlet(flowtune.Flowlet{ID: 1, Arrival: 0, Src: 0, Dst: 30, SizeBytes: 20000}); err != nil {
		t.Fatal(err)
	}
	sim.Run(3e-3)
	recs := sim.Records()
	if len(recs) != 1 || !recs[0].Finished() {
		t.Fatalf("flow did not finish: %+v", recs)
	}
}

func TestPercentileExported(t *testing.T) {
	if got := flowtune.Percentile([]float64{1, 2, 3, 4}, 100); got != 4 {
		t.Errorf("Percentile = %g", got)
	}
}

// Example_quickstart mirrors the package-level documentation example.
func Example_quickstart() {
	topo, err := flowtune.NewTopology(flowtune.DefaultSimTopologyConfig())
	if err != nil {
		panic(err)
	}
	alloc, err := flowtune.NewAllocator(flowtune.AllocatorConfig{Topology: topo})
	if err != nil {
		panic(err)
	}
	_ = alloc.FlowletStart(1, 0, 17, 1)
	_ = alloc.FlowletStart(2, 3, 17, 1)
	for i := 0; i < 100; i++ {
		alloc.Iterate()
	}
	fmt.Printf("flow 1: %.2f Gbit/s\n", alloc.Rate(1)/1e9)
	fmt.Printf("flow 2: %.2f Gbit/s\n", alloc.Rate(2)/1e9)
	// Output:
	// flow 1: 4.95 Gbit/s
	// flow 2: 4.95 Gbit/s
}

func TestPublicDaemon(t *testing.T) {
	topo := defaultTopo(t)
	daemon, err := flowtune.NewDaemon(flowtune.DaemonConfig{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()
	clientEnd, serverEnd := net.Pipe()
	go daemon.ServeConn(serverEnd)
	cli, err := flowtune.NewDaemonClient(clientEnd, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.FlowletStart(1, 0, 17, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlowletStart(2, 3, 17, 1); err != nil {
		t.Fatal(err)
	}
	var last map[flowtune.FlowID]float64
	for i := 0; i < 100; i++ {
		updates, err := cli.Step()
		if err != nil {
			t.Fatal(err)
		}
		if last == nil {
			last = make(map[flowtune.FlowID]float64)
		}
		for _, u := range updates {
			last[u.Flow] = u.Rate
		}
	}
	// Two flows sharing server 17's downlink settle at half line rate each
	// (minus the 1% update-threshold headroom), exactly as in process.
	want := topo.Config().LinkCapacity * 0.99 / 2
	for _, id := range []flowtune.FlowID{1, 2} {
		if got := last[id]; math.Abs(got-want)/want > 0.02 {
			t.Errorf("flow %d rate %.3g, want %.3g", id, got, want)
		}
	}
	var stats flowtune.LoopStats = daemon.LoopStats()
	if stats.Iterations != 100 {
		t.Errorf("daemon ran %d iterations, want 100", stats.Iterations)
	}
	var ds flowtune.DaemonStats = daemon.Stats()
	if ds.SessionsAccepted != 1 || ds.EventsReceived != 2 {
		t.Errorf("daemon stats = %+v", ds)
	}
}

// The DaemonClient must satisfy the simulation engine's backend seam.
var _ flowtune.AllocatorBackend = (*flowtune.DaemonClient)(nil)

// TestPublicShardedCluster drives the sharded-cluster surface through the
// facade: shard map, in-process cluster, sharded client, fair shares on a
// cross-shard bottleneck.
func TestPublicShardedCluster(t *testing.T) {
	topo, err := flowtune.NewTopology(flowtune.TopologyConfig{
		Racks: 4, ServersPerRack: 4, Spines: 2, LinkCapacity: 10e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	smap, err := flowtune.NewShardMap(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	if smap.NumShards() != 2 || smap.ShardOfFlow(0, 15) != 0 {
		t.Fatalf("shard map wiring: shards=%d owner=%d", smap.NumShards(), smap.ShardOfFlow(0, 15))
	}
	cl, err := flowtune.NewCluster(flowtune.ClusterConfig{Topology: topo, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cli, err := cl.Client(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Two flows into server 12: one cross-shard (owned by shard 0), one
	// local to shard 1. The boundary exchange must split the downlink.
	if err := cli.FlowletStart(1, 0, 12, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlowletStart(2, 13, 12, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := cli.Step(); err != nil {
			t.Fatal(err)
		}
	}
	rates := cl.Rates()
	want := topo.Config().LinkCapacity * 0.99 / 2
	for _, id := range []int64{1, 2} {
		if got := rates[id]; math.Abs(got-want)/want > 0.05 {
			t.Errorf("flow %d rate %.4g, want ≈ %.4g (fair share of the shared downlink)", id, got, want)
		}
	}
}

// The ShardedClient must satisfy the simulation engine's backend seam too.
var _ flowtune.AllocatorBackend = (*flowtune.ShardedClient)(nil)
