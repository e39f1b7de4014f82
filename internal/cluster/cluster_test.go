package cluster

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/transport"
)

// testTopo is the 4-rack fabric the cluster tests shard in halves.
func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewTwoTier(topology.Config{
		Racks: 4, ServersPerRack: 4, Spines: 2, LinkCapacity: 10e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// startSingle builds the unsharded reference daemon with one client.
func startSingle(t *testing.T, topo *topology.Topology) (*server.Server, *transport.AllocClient) {
	t.Helper()
	srv, err := server.New(server.Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	cli, err := transport.NewAllocClient(clientEnd, 99)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// churnEvent is one scripted flowlet event.
type churnEvent struct {
	end      bool
	id       core.FlowID
	src, dst int
	weight   float64
}

// partitionLocalChurn scripts a seeded churn sequence whose flows never
// leave their source shard. Retirements pop the most recently started flow:
// that keeps the allocators' swap-delete bookkeeping a no-op in both the
// single daemon and the shards, so per-link load accumulation visits the
// surviving flows in the same order everywhere. (With arbitrary interleaved
// retirements the single daemon's swap-deletes relocate flows across shard
// boundaries in its flow array, reordering floating-point summation and
// perturbing rates at ULP scale — a float-associativity artifact, not a
// divergence of the exchange; TestCrossShardConvergence bounds that regime.)
func partitionLocalChurn(smap *topology.ShardMap, seed int64, n int) []churnEvent {
	rng := rand.New(rand.NewSource(seed))
	numServers := smap.Topology().NumServers()
	var events []churnEvent
	live := make([]churnEvent, 0, n)
	next := core.FlowID(1)
	for len(events) < n {
		if len(live) > 0 && rng.Intn(3) == 0 {
			events = append(events, churnEvent{end: true, id: live[len(live)-1].id})
			live = live[:len(live)-1]
			continue
		}
		src := rng.Intn(numServers)
		// Pick dst inside the same shard.
		dst := rng.Intn(numServers)
		for smap.ShardOfServer(dst) != smap.ShardOfServer(src) || dst == src {
			dst = rng.Intn(numServers)
		}
		ev := churnEvent{id: next, src: src, dst: dst, weight: 1 + float64(rng.Intn(3))}
		next++
		events = append(events, ev)
		live = append(live, ev)
	}
	return events
}

// backend is the common surface of AllocClient and ShardedClient the
// equivalence test drives.
type backend interface {
	FlowletStart(id core.FlowID, src, dst int, weight float64) error
	FlowletEnd(id core.FlowID) error
	Step() ([]core.RateUpdate, error)
}

// TestPartitionLocalByteIdentical is the sharded-cluster acceptance check:
// on partition-local traffic a 2-shard cluster (with its price exchange
// running) must produce exactly the single daemon's rates — same update
// sets, bit-identical floats — at every step of a seeded churn sequence.
func TestPartitionLocalByteIdentical(t *testing.T) {
	topo := testTopo(t)
	single, singleCli := startSingle(t, topo)

	cl, err := New(Config{Topology: topo, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	clusterCli, err := cl.Client(99)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clusterCli.Close() })

	events := partitionLocalChurn(cl.smap, 42, 400)
	apply := func(b backend, ev churnEvent) error {
		if ev.end {
			return b.FlowletEnd(ev.id)
		}
		return b.FlowletStart(ev.id, ev.src, ev.dst, ev.weight)
	}
	const perStep = 8
	for start := 0; start < len(events); start += perStep {
		end := min(start+perStep, len(events))
		for _, ev := range events[start:end] {
			if err := apply(singleCli, ev); err != nil {
				t.Fatal(err)
			}
			if err := apply(clusterCli, ev); err != nil {
				t.Fatal(err)
			}
		}
		wantUps, err := singleCli.Step()
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[core.FlowID]float64, len(wantUps))
		for _, u := range wantUps {
			want[u.Flow] = u.Rate
		}
		gotUps, err := clusterCli.Step()
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[core.FlowID]float64, len(gotUps))
		for _, u := range gotUps {
			got[u.Flow] = u.Rate
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %d cluster updates, single daemon sent %d", start/perStep, len(got), len(want))
		}
		for id, rate := range want {
			if gr, ok := got[id]; !ok || gr != rate {
				t.Fatalf("step %d flow %d: cluster rate %v (present %v), single %v", start/perStep, id, gr, ok, rate)
			}
		}
	}
	// Full engine state agrees too, bit for bit.
	want := single.Rates()
	got := cl.Rates()
	if len(got) != len(want) {
		t.Fatalf("final flow counts differ: cluster %d, single %d", len(got), len(want))
	}
	for id, rate := range want {
		if got[int64(id)] != rate {
			t.Fatalf("final flow %d: cluster %v, single %v", id, got[int64(id)], rate)
		}
	}
	// The equivalence must hold with the exchange actually exercised.
	for i := 0; i < cl.NumShards(); i++ {
		if cl.Server(i).Stats().ExchangeFolds == 0 {
			t.Fatalf("shard %d never folded a peer bundle", i)
		}
	}
}

// TestCrossShardConvergence seeds cross-shard traffic and bounds the
// cluster's distance from the global allocator: the exchange's one-iteration
// lag must not keep it from converging to (nearly) the same allocation and
// objective on a static flow set.
func TestCrossShardConvergence(t *testing.T) {
	topo := testTopo(t)
	single, singleCli := startSingle(t, topo)
	cl, err := New(Config{Topology: topo, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	clusterCli, err := cl.Client(7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clusterCli.Close() })

	rng := rand.New(rand.NewSource(7))
	n := topo.NumServers()
	flows := 0
	for id := core.FlowID(1); flows < 48; id++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if dst == src {
			continue
		}
		if err := singleCli.FlowletStart(id, src, dst, 1); err != nil {
			t.Fatal(err)
		}
		if err := clusterCli.FlowletStart(id, src, dst, 1); err != nil {
			t.Fatal(err)
		}
		flows++
	}
	for i := 0; i < 400; i++ {
		if _, err := singleCli.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := clusterCli.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want := single.Rates()
	got := cl.Rates()
	if len(got) != len(want) {
		t.Fatalf("flow counts differ: cluster %d, single %d", len(got), len(want))
	}
	var objWant, objGot, worst float64
	for id, rw := range want {
		rg := got[int64(id)]
		if rg <= 0 || rw <= 0 {
			t.Fatalf("flow %d: non-positive rates %g/%g", id, rg, rw)
		}
		objWant += math.Log(rw)
		objGot += math.Log(rg)
		if dev := math.Abs(rg-rw) / rw; dev > worst {
			worst = dev
		}
	}
	// Objective gap: the proportional-fairness objective of the sharded
	// allocation must sit within 1% of the global allocator's.
	if gap := math.Abs(objGot-objWant) / math.Abs(objWant); gap > 0.01 {
		t.Fatalf("objective gap %.4f (cluster %g vs global %g)", gap, objGot, objWant)
	}
	// And no individual flow may be wildly misallocated.
	if worst > 0.25 {
		t.Fatalf("worst per-flow rate deviation %.3f", worst)
	}
	t.Logf("objective gap %.5f, worst per-flow deviation %.4f",
		math.Abs(objGot-objWant)/math.Abs(objWant), worst)
}

// TestFourShardDeterminism re-runs a 4-shard cluster (3 peers per shard, so
// external contributions are a 3-term float sum) over cross-shard traffic
// and requires bit-identical rates: peer digests must be summed in shard
// order, never map-iteration order.
func TestFourShardDeterminism(t *testing.T) {
	topo, err := topology.NewTwoTier(topology.Config{
		Racks: 8, ServersPerRack: 2, Spines: 2, LinkCapacity: 10e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() map[int64]float64 {
		cl, err := New(Config{Topology: topo, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cli, err := cl.Client(3)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		rng := rand.New(rand.NewSource(11))
		n := topo.NumServers()
		for id := core.FlowID(1); id <= 32; id++ {
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			if err := cli.FlowletStart(id, src, dst, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			if _, err := cli.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return cl.Rates()
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) || len(a) != 32 {
		t.Fatalf("flow counts differ or wrong: %d vs %d", len(a), len(b))
	}
	for id, ra := range a {
		if rb := b[id]; rb != ra {
			t.Fatalf("flow %d: run A %v != run B %v", id, ra, rb)
		}
	}
}

// TestShardedClientRoutingAndReconnect pins flow→shard routing and the
// per-shard reconnect path: killing one shard's session breaks only that
// shard, and Reconnect restores it with its flows re-registered while the
// other shard's session is untouched.
func TestShardedClientRoutingAndReconnect(t *testing.T) {
	topo := testTopo(t)
	cl, err := New(Config{Topology: topo, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	cli, err := cl.Client(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	// Servers 0-7 are shard 0, 8-15 shard 1 (4 racks × 4 servers).
	if err := cli.FlowletStart(1, 0, 9, 1); err != nil { // owned by shard 0
		t.Fatal(err)
	}
	if err := cli.FlowletStart(2, 9, 0, 1); err != nil { // owned by shard 1
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if got := cl.Server(0).NumFlows(); got != 1 {
		t.Fatalf("shard 0 flows = %d, want 1", got)
	}
	if got := cl.Server(1).NumFlows(); got != 1 {
		t.Fatalf("shard 1 flows = %d, want 1", got)
	}

	// Kill shard 1's session; the next Step must fail naming shard 1.
	cli.Client(1).Conn().Close()
	_, err = cli.Step()
	var se *transport.ShardError
	if err == nil || !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("step after kill = %v, want ShardError{Shard: 1}", err)
	}

	// Per-shard reconnect: only shard 1's session is re-established and
	// re-registered; the cluster allocates both flows again.
	clientEnd, serverEnd := net.Pipe()
	go cl.Server(1).ServeConn(serverEnd)
	if err := cli.Reconnect(1, clientEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if got := cl.Server(1).NumFlows(); got != 1 {
		t.Fatalf("shard 1 flows after reconnect = %d, want 1", got)
	}
	rates := cl.Rates()
	if rates[1] <= 0 || rates[2] <= 0 {
		t.Fatalf("rates after reconnect: %v", rates)
	}
}

// TestMulticorePartitionLocalByteIdentical is the multicore-shard acceptance
// check: a 2-shard cluster whose daemons run the parallel engine (Blocks: 2)
// must still produce exactly the single sequential daemon's rates on
// partition-local traffic — the boundary fold-in and digest export of the
// ParallelAllocator keep the wire bytes bit-identical to the sequential
// engine's. Both sides run server.New's default Gamma (0.4).
func TestMulticorePartitionLocalByteIdentical(t *testing.T) {
	topo := testTopo(t)
	single, singleCli := startSingle(t, topo)

	cl, err := New(Config{Topology: topo, Shards: 2, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	clusterCli, err := cl.Client(99)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clusterCli.Close() })

	events := partitionLocalChurn(cl.smap, 42, 400)
	apply := func(b backend, ev churnEvent) error {
		if ev.end {
			return b.FlowletEnd(ev.id)
		}
		return b.FlowletStart(ev.id, ev.src, ev.dst, ev.weight)
	}
	const perStep = 8
	for start := 0; start < len(events); start += perStep {
		end := min(start+perStep, len(events))
		for _, ev := range events[start:end] {
			if err := apply(singleCli, ev); err != nil {
				t.Fatal(err)
			}
			if err := apply(clusterCli, ev); err != nil {
				t.Fatal(err)
			}
		}
		wantUps, err := singleCli.Step()
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[core.FlowID]float64, len(wantUps))
		for _, u := range wantUps {
			want[u.Flow] = u.Rate
		}
		gotUps, err := clusterCli.Step()
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[core.FlowID]float64, len(gotUps))
		for _, u := range gotUps {
			got[u.Flow] = u.Rate
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %d multicore-cluster updates, single daemon sent %d", start/perStep, len(got), len(want))
		}
		for id, rate := range want {
			if gr, ok := got[id]; !ok || gr != rate {
				t.Fatalf("step %d flow %d: multicore cluster rate %v (present %v), single %v", start/perStep, id, gr, ok, rate)
			}
		}
	}
	want := single.Rates()
	got := cl.Rates()
	if len(got) != len(want) {
		t.Fatalf("final flow counts differ: cluster %d, single %d", len(got), len(want))
	}
	for id, rate := range want {
		if got[int64(id)] != rate {
			t.Fatalf("final flow %d: multicore cluster %v, single %v", id, got[int64(id)], rate)
		}
	}
	for i := 0; i < cl.NumShards(); i++ {
		if cl.Server(i).Stats().ExchangeFolds == 0 {
			t.Fatalf("shard %d never folded a peer bundle", i)
		}
	}
}

// TestMulticoreCrossShardConvergence bounds the multicore cluster's distance
// from the global sequential allocator on cross-shard traffic, exactly as
// TestCrossShardConvergence does for sequential shards: the combination of
// exchange lag and the parallel engine's merge-tree summation order must not
// move the objective more than 1% or any flow more than 25%.
func TestMulticoreCrossShardConvergence(t *testing.T) {
	topo := testTopo(t)
	single, singleCli := startSingle(t, topo)
	cl, err := New(Config{Topology: topo, Shards: 2, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	clusterCli, err := cl.Client(7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clusterCli.Close() })

	rng := rand.New(rand.NewSource(7))
	n := topo.NumServers()
	flows := 0
	for id := core.FlowID(1); flows < 48; id++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if dst == src {
			continue
		}
		if err := singleCli.FlowletStart(id, src, dst, 1); err != nil {
			t.Fatal(err)
		}
		if err := clusterCli.FlowletStart(id, src, dst, 1); err != nil {
			t.Fatal(err)
		}
		flows++
	}
	for i := 0; i < 400; i++ {
		if _, err := singleCli.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := clusterCli.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want := single.Rates()
	got := cl.Rates()
	if len(got) != len(want) {
		t.Fatalf("flow counts differ: cluster %d, single %d", len(got), len(want))
	}
	var objWant, objGot, worst float64
	for id, rw := range want {
		rg := got[int64(id)]
		if rg <= 0 || rw <= 0 {
			t.Fatalf("flow %d: non-positive rates %g/%g", id, rg, rw)
		}
		objWant += math.Log(rw)
		objGot += math.Log(rg)
		if dev := math.Abs(rg-rw) / rw; dev > worst {
			worst = dev
		}
	}
	if gap := math.Abs(objGot-objWant) / math.Abs(objWant); gap > 0.01 {
		t.Fatalf("objective gap %.4f (multicore cluster %g vs global %g)", gap, objGot, objWant)
	}
	if worst > 0.25 {
		t.Fatalf("worst per-flow rate deviation %.3f", worst)
	}
	t.Logf("objective gap %.5f, worst per-flow deviation %.4f",
		math.Abs(objGot-objWant)/math.Abs(objWant), worst)
}

// TestKillTakeoverFailover is the survivable-control-plane check at cluster
// level: kill one daemon mid-run, the survivor adopts its rack block from the
// replicated flow state, and the frozen client fails over onto it — with the
// whole sequence deterministic run to run.
func TestKillTakeoverFailover(t *testing.T) {
	testKillTakeoverFailover(t, 0)
}

// TestKillTakeoverFailoverMulticore runs the same kill/takeover/failover
// sequence with every daemon on the parallel engine (Blocks: 2): the adopted
// flows are replayed into a multicore allocator's FlowBlocks and the adopted
// boundary links come under its LinkBlocks' control, and the whole sequence
// must stay deterministic run to run.
func TestKillTakeoverFailoverMulticore(t *testing.T) {
	testKillTakeoverFailover(t, 2)
}

func testKillTakeoverFailover(t *testing.T, blocks int) {
	topo := testTopo(t)
	runOnce := func() map[int64]float64 {
		cl, err := New(Config{Topology: topo, Shards: 2, Blocks: blocks, Takeover: true})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cli, err := cl.Client(1)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		cli.SetFreezeOnFailure(true)

		// Servers 0-7 are shard 0, 8-15 shard 1.
		if err := cli.FlowletStart(1, 0, 9, 1); err != nil { // shard 0
			t.Fatal(err)
		}
		if err := cli.FlowletStart(2, 9, 0, 1); err != nil { // shard 1
			t.Fatal(err)
		}
		if err := cli.FlowletStart(3, 8, 15, 2); err != nil { // shard 1
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := cli.Step(); err != nil {
				t.Fatal(err)
			}
		}

		cl.Kill(1)
		// Freeze-on-failure: the dead shard's session freezes instead of
		// failing the cluster step; the survivor detects the death at its
		// exchange push and adopts at the next iteration boundary.
		for i := 0; i < 4 && !cl.Server(0).ServesShard(1); i++ {
			if _, err := cli.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if !cl.Server(0).ServesShard(1) {
			t.Fatal("survivor never adopted the dead shard")
		}
		if !cli.Frozen(1) {
			t.Fatal("dead shard's session did not freeze")
		}
		if got := cl.Server(0).Stats().Takeovers; got != 1 {
			t.Fatalf("Takeovers = %d, want 1", got)
		}
		// The replica seeded the dead daemon's flows into the survivor.
		if got := cl.Server(0).NumFlows(); got != 3 {
			t.Fatalf("survivor NumFlows = %d after adoption, want 3", got)
		}

		adopter := cli.Successor(1)
		if adopter != 0 {
			t.Fatalf("Successor(1) = %d, want 0", adopter)
		}
		if err := cli.Failover(1, adopter); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Step(); err != nil {
			t.Fatal(err)
		}
		// The re-registrations were adopted in place: zero engine churn.
		if got := cl.Server(0).Stats().AdoptedFlows; got != 2 {
			t.Fatalf("AdoptedFlows = %d, want 2", got)
		}
		// New flows hashed to the dead daemon's shard route to the adopter.
		if err := cli.FlowletStart(4, 10, 2, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, err := cli.Step(); err != nil {
				t.Fatal(err)
			}
		}
		rates := cl.Rates()
		for id := int64(1); id <= 4; id++ {
			if rates[id] <= 0 {
				t.Fatalf("flow %d not allocated after failover: %v", id, rates)
			}
		}
		return rates
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("flow counts differ across runs: %d vs %d", len(a), len(b))
	}
	for id, ra := range a {
		if rb := b[id]; rb != ra {
			t.Fatalf("flow %d: run A %v != run B %v (failover not deterministic)", id, ra, rb)
		}
	}
}
