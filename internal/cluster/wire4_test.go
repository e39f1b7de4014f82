package cluster

import (
	"errors"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// wire4Rates folds one Step's updates into the client-side rate view.
func wire4Rates(view map[core.FlowID]float64, ups []core.RateUpdate) {
	for _, u := range ups {
		view[u.Flow] = u.Rate
	}
}

// checkView asserts the client-side rate view is within the engines'
// notification threshold of the daemons' live rates: the wire v4 delta
// suppression must never leave an endpoint holding a stale allocation. The
// daemons notify when a rate moves more than UpdateThreshold (default 1%)
// from the last value they sent, so 2% of slack covers one in-flight change.
func checkView(t *testing.T, cl *Cluster, view map[core.FlowID]float64, label string, dead ...int) {
	t.Helper()
	// Merge the live daemons' rate maps by hand: Cluster.Rates consults
	// every daemon, and a killed one still reports the stale rates it held
	// at death — the adopter's fresh values are what the client must track.
	live := make(map[int64]float64)
	for i := 0; i < cl.NumShards(); i++ {
		if len(dead) > 0 && i == dead[0] {
			continue
		}
		for id, rate := range cl.Server(i).Rates() {
			live[int64(id)] = rate
		}
	}
	for id, want := range live {
		got, ok := view[core.FlowID(id)]
		if !ok {
			t.Fatalf("%s: flow %d allocated %v by the daemons but never reached the client", label, id, want)
		}
		if diff := got - want; diff < -0.02*want || diff > 0.02*want {
			t.Fatalf("%s: flow %d client rate %v, daemon rate %v (stale beyond threshold)", label, id, got, want)
		}
	}
}

// reconnectShard re-dials one shard's session over a fresh in-memory pipe.
func reconnectShard(t *testing.T, cl *Cluster, cli *transport.ShardedClient, shard int) {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	go cl.Server(shard).ServeConn(serverEnd)
	if err := cli.Reconnect(shard, clientEnd); err != nil {
		t.Fatalf("reconnect shard %d: %v", shard, err)
	}
}

// TestDeltaWireSurvivesResync runs the full disruption gauntlet against the
// wire v4 delta state: a client reconnect (a fresh session), a daemon epoch
// bump (the client re-registers), and a daemon kill with peer takeover
// (exchange shadows resynced via reset frames). After each
// event the endpoint's view must track the cluster's live allocation — a
// desynchronized delta baseline would strand it on stale rates. Run under
// -race in CI.
func TestDeltaWireSurvivesResync(t *testing.T) {
	topo := testTopo(t)
	cl, err := New(Config{Topology: topo, Shards: 4, Takeover: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	cli, err := cl.Client(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	cli.SetFreezeOnFailure(true)

	view := make(map[core.FlowID]float64)
	step := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ups, err := cli.Step()
			if err != nil {
				t.Fatal(err)
			}
			wire4Rates(view, ups)
		}
	}

	// Incast into server 0: every flow shares the bottleneck, so any churn
	// moves every rate — lost updates cannot hide behind a quiet flow.
	// Racks hold servers [0..3], [4..7], [8..11], [12..15]; one shard each.
	next := core.FlowID(1)
	for src := 1; src < topo.NumServers(); src++ {
		if err := cli.FlowletStart(next, src, 0, 1); err != nil {
			t.Fatal(err)
		}
		next++
	}
	step(30)
	checkView(t, cl, view, "steady state")

	// Client reconnect: the replacement session must receive every rate
	// the allocator surfaces for the flows it re-registered.
	reconnectShard(t, cl, cli, 2)
	if err := cli.FlowletStart(next, 9, 0, 2); err != nil { // churn: shift all rates
		t.Fatal(err)
	}
	next++
	step(30)
	checkView(t, cl, view, "after reconnect")

	// Epoch bump: the daemon pushes EpochNotify; the client surfaces
	// ErrEpochChanged and re-registers over a fresh session.
	if err := cl.Server(1).BumpEpoch(cli.Epoch(1) + 1); err != nil {
		t.Fatal(err)
	}
	bumped := false
	for i := 0; i < 50 && !bumped; i++ {
		ups, err := cli.Step()
		switch {
		case err == nil:
			wire4Rates(view, ups)
		case errors.Is(err, transport.ErrEpochChanged):
			bumped = true
			reconnectShard(t, cl, cli, 1)
		default:
			t.Fatal(err)
		}
	}
	if !bumped {
		t.Fatal("epoch bump never surfaced to the client")
	}
	if err := cli.FlowletStart(next, 5, 0, 1); err != nil { // churn again
		t.Fatal(err)
	}
	next++
	step(30)
	checkView(t, cl, view, "after epoch bump")

	// Kill + takeover: the survivors drop the dead peer's exchange state,
	// resync each other with reset delta frames, and the adopter's sessions
	// re-baseline the failed-over flows.
	cl.Kill(3)
	for i := 0; i < 6 && !cl.Server(0).ServesShard(3); i++ {
		if _, err := cli.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !cl.Server(0).ServesShard(3) {
		t.Fatal("survivor never adopted the dead shard")
	}
	adopter := cli.Successor(3)
	if adopter != 0 {
		t.Fatalf("Successor(3) = %d, want 0", adopter)
	}
	if err := cli.Failover(3, adopter); err != nil {
		t.Fatal(err)
	}
	// Churn hard enough that every rate moves well past the notification
	// threshold relative to anything allocated during the frozen window —
	// rates that changed while the dead shard's session was frozen were
	// lost by design (the client froze at last-known rates), and only a
	// fresh above-threshold change re-notifies them.
	for _, src := range []int{13, 14, 3, 6} {
		if err := cli.FlowletStart(next, src, 0, 1); err != nil {
			t.Fatal(err)
		}
		next++
	}
	step(30)
	checkView(t, cl, view, "after takeover", 3)

	// The disruptions must have exercised the delta wire, and the delta
	// encoding must never cost more than the fixed v3 frames it replaces.
	w := cl.WireStats()
	if w.FanoutBytes == 0 || w.ExchangeBytes == 0 {
		t.Fatalf("wire counters silent: %+v", w)
	}
	if w.FanoutBytes > w.FanoutBytesFixed {
		t.Fatalf("delta fan-out cost %d bytes > fixed %d", w.FanoutBytes, w.FanoutBytesFixed)
	}
	if w.ExchangeBytes > w.ExchangeBytesFixed {
		t.Fatalf("delta exchange cost %d bytes > fixed %d", w.ExchangeBytes, w.ExchangeBytesFixed)
	}
}
