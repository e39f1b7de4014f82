package server

import (
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
)

// startDaemon builds one unsharded step-driven daemon over boundaryTopo-like
// fabric plus one piped client.
func startDaemon(t *testing.T, topo *topology.Topology) (*Server, *transport.AllocClient) {
	t.Helper()
	srv, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, pipeClient(t, srv, 1)
}

func pipeClient(t *testing.T, srv *Server, id uint64) *transport.AllocClient {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	cli, err := transport.NewAllocClient(clientEnd, id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func failoverTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewTwoTier(topology.Config{
		Racks: 2, ServersPerRack: 2, Spines: 1, LinkCapacity: 10e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestDrainRefusesNewFlowlets pins drain-mode admission: existing flows keep
// their allocation, new registrations are counted and dropped.
func TestDrainRefusesNewFlowlets(t *testing.T) {
	srv, cli := startDaemon(t, failoverTopo(t))
	if err := cli.FlowletStart(1, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if err := cli.FlowletStart(2, 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if got := srv.NumFlows(); got != 1 {
		t.Fatalf("NumFlows = %d after draining add, want 1", got)
	}
	if st := srv.Stats(); st.DrainRejects != 1 {
		t.Fatalf("DrainRejects = %d, want 1", st.DrainRejects)
	}
	// The surviving flow is still allocated.
	if r := srv.Rates()[core.FlowID(1)]; r <= 0 {
		t.Fatalf("drained daemon stopped allocating: rate = %g", r)
	}
}

// TestDrainPreservesDisconnectedSessionFlows pins the orphan-sweep bugfix: a
// draining daemon must keep a disconnected client's flows registered — they
// are headed for the snapshot and may already be mid-adoption at a peer —
// instead of retiring them in the cleanup sweep.
func TestDrainPreservesDisconnectedSessionFlows(t *testing.T) {
	topo := failoverTopo(t)
	srv, cli := startDaemon(t, topo)
	cli2 := pipeClient(t, srv, 2)
	if err := cli.FlowletStart(1, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	cli.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().SessionsActive != 1 {
		if time.Now().After(deadline) {
			t.Fatal("session removal never observed")
		}
		time.Sleep(time.Millisecond)
	}
	// Fold an iteration through the second session: without the fix this is
	// where the orphan sweep would retire flow 1.
	if _, err := cli2.Step(); err != nil {
		t.Fatal(err)
	}
	if got := srv.NumFlows(); got != 1 {
		t.Fatalf("draining daemon retired a disconnected session's flow: NumFlows = %d", got)
	}
	// The preserved flow makes it into the snapshot.
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := fresh.NumFlows(); got != 1 {
		t.Fatalf("restored daemon has %d flows, want 1", got)
	}
}

// TestShutdownNotifiesDrainingClients pins the final drain-flagged
// EpochNotify: a connected client's read surfaces ErrDaemonDraining, with
// the epoch value preserved (the flag is stripped client-side).
func TestShutdownNotifiesDrainingClients(t *testing.T) {
	srv, cli := startDaemon(t, failoverTopo(t))
	if err := cli.FlowletStart(1, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	before := cli.Epoch()
	snapc := make(chan []byte, 1)
	go func() {
		snap, err := srv.Shutdown(time.Second)
		if err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		snapc <- snap
	}()
	_, _, err := cli.Recv(5 * time.Second)
	if !errors.Is(err, transport.ErrDaemonDraining) {
		t.Fatalf("Recv during shutdown = %v, want ErrDaemonDraining", err)
	}
	if got := cli.Epoch(); got != before {
		t.Fatalf("drain notify changed the epoch: %d → %d", before, got)
	}
	snap := <-snapc
	if len(snap) == 0 {
		t.Fatal("Shutdown produced an empty snapshot")
	}
	// The daemon is gone afterwards.
	if _, err := cli.Step(); err == nil {
		t.Fatal("Step succeeded against a shut-down daemon")
	}
}

// TestRestoreWarmByteEquivalence is the daemon-level warm-restart guarantee:
// shut a daemon down mid-run, restore its snapshot into a fresh one, resume
// the client with bare adds (adopted without churn), and every subsequent
// iteration matches an uninterrupted reference daemon bit for bit.
func TestRestoreWarmByteEquivalence(t *testing.T) {
	topo := failoverTopo(t)
	flows := []struct {
		id       core.FlowID
		src, dst int
		w        float64
	}{{1, 0, 3, 1}, {2, 1, 2, 2}, {3, 2, 0, 1}}

	// Reference: an uninterrupted daemon stepped in lockstep.
	ref, refCli := startDaemon(t, topo)
	victim, cli := startDaemon(t, topo)
	for _, f := range flows {
		if err := refCli.FlowletStart(f.id, f.src, f.dst, f.w); err != nil {
			t.Fatal(err)
		}
		if err := cli.FlowletStart(f.id, f.src, f.dst, f.w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := refCli.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Step(); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := victim.Shutdown(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}

	restored, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := restored.NumFlows(); got != len(flows) {
		t.Fatalf("restored %d flows, want %d", got, len(flows))
	}

	// The client fails over: bare re-adds, adopted in place.
	clientEnd, serverEnd := net.Pipe()
	go restored.ServeConn(serverEnd)
	if err := cli.ResumeReconnect(clientEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.AdoptedFlows != int64(len(flows)) {
		t.Fatalf("AdoptedFlows = %d, want %d", st.AdoptedFlows, len(flows))
	}
	if _, err := refCli.Step(); err != nil { // keep the reference in lockstep
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		if _, err := refCli.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Step(); err != nil {
			t.Fatal(err)
		}
		want, got := ref.Rates(), restored.Rates()
		for id, r := range want {
			if got[id] != r {
				t.Fatalf("iter %d flow %d: restored rate %v != reference %v", i, id, got[id], r)
			}
		}
	}
	// Warm restart cost zero engine churn: no retire/re-add pairs.
	if st := restored.Stats(); st.DuplicateAdds != 0 {
		t.Fatalf("restore caused %d duplicate adds", st.DuplicateAdds)
	}
}

// TestRestoreRequiresEmptyDaemon pins the restore precondition.
func TestRestoreRequiresEmptyDaemon(t *testing.T) {
	topo := failoverTopo(t)
	srv, cli := startDaemon(t, topo)
	if err := cli.FlowletStart(1, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Restore(snap); err == nil {
		t.Fatal("Restore into a non-empty daemon accepted")
	}
}

// TestRestoreRejectsInvalidPrices pins Restore's price check: a snapshot
// whose PriceSnapshot carries a NaN, infinite or negative price is refused
// instead of seeding a link the dual ascent could never recover.
func TestRestoreRejectsInvalidPrices(t *testing.T) {
	topo := failoverTopo(t)
	src, _ := startDaemon(t, topo)
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, price := range []float64{math.NaN(), math.Inf(1), -1} {
		bad := wire.AppendPriceSnapshotHeader(append([]byte(nil), snap...), 1, 0, 0, 1)
		bad = wire.AppendSnapshotEntry(bad, wire.SnapshotEntry{Link: 0, Price: price})
		dst, err := New(Config{Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(bad); err == nil {
			t.Errorf("Restore accepted link price %v", price)
		}
		dst.Close()
	}
}

// startTakeoverPair is startShardPair with peer failover enabled.
func startTakeoverPair(t *testing.T) (srvs [2]*Server, clis [2]*transport.AllocClient) {
	t.Helper()
	topo := clusterTopo(t)
	for i := 0; i < 2; i++ {
		srv, err := New(Config{Topology: topo, NumShards: 2, ShardIndex: i, Takeover: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
	}
	for i := 0; i < 2; i++ {
		out, in := net.Pipe()
		go srvs[1-i].ServeConn(in)
		if _, err := srvs[i].ConnectPeer(out); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		clis[i] = pipeClient(t, srvs[i], uint64(i))
	}
	return srvs, clis
}

// TestTakeoverAdoptsDeadShard is the end-to-end failover check: kill one
// daemon of a two-shard cluster and the survivor adopts its rack block —
// flows seeded from the replica, admission re-pointed — and the dead
// daemon's client re-registers onto the survivor without engine churn.
func TestTakeoverAdoptsDeadShard(t *testing.T) {
	srvs, clis := startTakeoverPair(t)
	// Flow 1 lives in shard 0 (server 0), flow 2 in shard 1 (server 5); they
	// share the tor2→server4 downward link.
	if err := clis[0].FlowletStart(1, 0, 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := clis[1].FlowletStart(2, 5, 4, 1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < 2; i++ {
			if _, err := clis[i].Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Kill shard 1. Shard 0 notices at its next exchange push and adopts at
	// the iteration boundary after that.
	srvs[1].Close()
	for round := 0; round < 3 && !srvs[0].ServesShard(1); round++ {
		if _, err := clis[0].Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !srvs[0].ServesShard(1) {
		t.Fatal("survivor never adopted the dead shard")
	}
	st := srvs[0].Stats()
	if st.Takeovers != 1 {
		t.Fatalf("Takeovers = %d, want 1", st.Takeovers)
	}
	// The replica seeded flow 2 into the survivor's engine.
	if got := srvs[0].NumFlows(); got != 2 {
		t.Fatalf("survivor NumFlows = %d after adoption, want 2", got)
	}

	// The dead daemon's client fails over: a bare re-add is adopted in place.
	cli2 := pipeClient(t, srvs[0], 7)
	if err := cli2.FlowletStart(2, 5, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli2.Step(); err != nil {
		t.Fatal(err)
	}
	st = srvs[0].Stats()
	if st.AdoptedFlows != 1 {
		t.Fatalf("AdoptedFlows = %d, want 1", st.AdoptedFlows)
	}
	if st.RejectedAdds != 0 {
		t.Fatalf("survivor rejected the failover registration (%d rejects)", st.RejectedAdds)
	}

	// The survivor now prices the shared link from both flows' demand.
	for round := 0; round < 200; round++ {
		if _, err := clis[0].Step(); err != nil {
			t.Fatal(err)
		}
	}
	rates := srvs[0].Rates()
	r1, r2 := rates[core.FlowID(1)], rates[core.FlowID(2)]
	const cap = 10e9
	if r1 <= 0 || r2 <= 0 {
		t.Fatalf("rates not allocated after takeover: r1=%g r2=%g", r1, r2)
	}
	if sum := r1 + r2; sum > 1.02*cap {
		t.Fatalf("combined allocation %g overshoots the shared link after takeover", sum)
	}
}

// TestTakeoverRejectedRegistrationBeforeAdoption pins the transient: before
// adoption completes, the survivor still refuses the dead shard's flows (no
// double allocation), and admits them after.
func TestTakeoverRejectedRegistrationBeforeAdoption(t *testing.T) {
	srvs, clis := startTakeoverPair(t)
	if err := clis[0].FlowletStart(1, 0, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := clis[0].Step(); err != nil {
		t.Fatal(err)
	}
	// Shard 1's flow registered on shard 0 while daemon 1 is alive: rejected.
	if err := clis[0].FlowletEnd(1); err != nil {
		t.Fatal(err)
	}
	if err := clis[0].FlowletStart(9, 5, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := clis[0].Step(); err != nil {
		t.Fatal(err)
	}
	if st := srvs[0].Stats(); st.RejectedAdds != 1 {
		t.Fatalf("RejectedAdds = %d, want 1", st.RejectedAdds)
	}

	srvs[1].Close()
	for round := 0; round < 3 && !srvs[0].ServesShard(1); round++ {
		if _, err := clis[0].Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !srvs[0].ServesShard(1) {
		t.Fatal("survivor never adopted the dead shard")
	}
	// The same registration from a failing-over client now lands.
	cli3 := pipeClient(t, srvs[0], 8)
	if err := cli3.FlowletStart(9, 5, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli3.Step(); err != nil {
		t.Fatal(err)
	}
	if got := srvs[0].Rates()[core.FlowID(9)]; got <= 0 {
		t.Fatalf("adopted-shard flow not allocated: rate = %g", got)
	}
}

// TestResumeReconnectAdoptsDrainOrphans: a client that loses its session to a
// draining daemon and ResumeReconnects to the same daemon claims the flows the
// drain kept for it. Each bare add is adopted in place — no duplicate, no
// churn — and the client receives the flows' rates again.
func TestResumeReconnectAdoptsDrainOrphans(t *testing.T) {
	srv, cli := startDaemon(t, failoverTopo(t))
	flows := []core.FlowID{1, 2, 3}
	for i, ep := range [][2]int{{0, 3}, {1, 2}, {2, 0}} {
		if err := cli.FlowletStart(flows[i], ep[0], ep[1], float64(1+i%2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	cli.Conn().Close() // the session dies; a draining daemon keeps its flows
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().SessionsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session removal never observed")
		}
		time.Sleep(time.Millisecond)
	}

	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	if err := cli.ResumeReconnect(clientEnd); err != nil {
		t.Fatal(err)
	}
	got := make(map[core.FlowID]float64)
	for i := 0; i < 10; i++ {
		ups, err := cli.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			got[u.Flow] = u.Rate
		}
	}
	st := srv.Stats()
	if st.AdoptedFlows != int64(len(flows)) || st.DuplicateAdds != 0 {
		t.Fatalf("AdoptedFlows = %d, DuplicateAdds = %d; want %d and 0", st.AdoptedFlows, st.DuplicateAdds, len(flows))
	}
	for _, id := range flows {
		if got[id] <= 0 {
			t.Fatalf("flow %d: no rate reached the reconnected client (got %v)", id, got)
		}
	}
	if n := srv.NumFlows(); n != len(flows) {
		t.Fatalf("NumFlows = %d, want %d", n, len(flows))
	}
}

// ackingPeer plays shard `shard` of a 4-shard cluster on the accepting end of
// srv's outbound peer connection: it answers the PeerHello and acks every
// snapshot chunk, so srv's pushes to it never fail.
func ackingPeer(t *testing.T, srv *Server, shard uint32) {
	t.Helper()
	out, in := net.Pipe()
	t.Cleanup(func() { in.Close() })
	go func() {
		sc := wire.NewScanner(in)
		if typ, _, err := sc.Next(); err != nil || typ != wire.TypePeerHello {
			return
		}
		if _, err := in.Write(wire.AppendPeerHello(nil, wire.PeerHello{Version: wire.Version, Shard: shard, NumShards: 4, Epoch: 1})); err != nil {
			return
		}
		var sd wire.PriceSnapshotDelta
		for {
			typ, payload, err := sc.Next()
			if err != nil {
				return
			}
			if typ != wire.TypePriceSnapshotDelta {
				continue
			}
			if wire.DecodePriceSnapshotDelta(payload, &sd) != nil {
				return
			}
			if _, err := in.Write(wire.AppendExchangeAck(nil, sd.Seq)); err != nil {
				return
			}
		}
	}()
	if _, err := srv.ConnectPeer(out); err != nil {
		t.Fatal(err)
	}
}

// silentPeer opens shard `shard`'s inbound peer session to srv, writes frame
// (if any), and then holds the connection open without another word.
func silentPeer(t *testing.T, srv *Server, shard uint32, frame []byte) {
	t.Helper()
	conn, in := net.Pipe()
	t.Cleanup(func() { conn.Close() })
	go srv.ServeConn(in)
	if _, err := conn.Write(wire.AppendPeerHello(nil, wire.PeerHello{Version: wire.Version, Shard: shard, NumShards: 4, Epoch: 1})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.NewScanner(conn).Next(); err != nil || typ != wire.TypePeerHello {
		t.Fatalf("peer handshake: %s, %v", typ, err)
	}
	if frame != nil {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeartbeatStalenessDeclaresDeath drives Config.HeartbeatTimeout: two
// free-running takeover daemons (shards 0 and 2 of 4) and two scripted peers
// that ack every push, so no push ever fails. Shard 3 sends one replica frame
// and goes silent: once it is stale, its successor, daemon 0, adopts it and
// the replica's flow. Shard 1 is never heard from at all, which is not
// staleness: its successor, daemon 2, must not adopt it.
func TestHeartbeatStalenessDeclaresDeath(t *testing.T) {
	const grace = 500 * time.Millisecond
	topo := clusterTopo(t)
	var srvs [2]*Server
	for i, shard := range []int{0, 2} {
		srv, err := New(Config{
			Topology: topo, NumShards: 4, ShardIndex: shard, Takeover: true,
			Interval: time.Millisecond, HeartbeatTimeout: grace,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
	}
	for i := range srvs {
		out, in := net.Pipe()
		go srvs[1-i].ServeConn(in)
		if _, err := srvs[i].ConnectPeer(out); err != nil {
			t.Fatal(err)
		}
	}
	replica := wire.AppendFlowStateHeader(nil, 1, 1, 3, 1)
	replica = wire.AppendFlowStateEntry(replica, wire.FlowStateEntry{Flow: 42, Src: 6, Dst: 0, Weight: 1})
	for _, srv := range srvs {
		ackingPeer(t, srv, 1)
		ackingPeer(t, srv, 3)
		silentPeer(t, srv, 1, nil)
		silentPeer(t, srv, 3, replica)
	}

	heir := srvs[0]
	deadline := time.Now().Add(10 * time.Second)
	for !heir.ServesShard(3) {
		if time.Now().After(deadline) {
			t.Fatal("the stale peer was never adopted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Give a wrong staleness verdict on the silent shard 1 time to happen.
	time.Sleep(3 * grace)
	if st := heir.Stats(); st.Takeovers != 1 {
		t.Fatalf("heir Takeovers = %d, want 1 (shard 3 only)", st.Takeovers)
	}
	if got := heir.NumFlows(); got != 1 {
		t.Fatalf("heir NumFlows = %d, want the replica's one flow", got)
	}
	if srvs[1].ServesShard(1) {
		t.Fatal("daemon 2 adopted shard 1, which was never heard from")
	}
	if st := srvs[1].Stats(); st.Takeovers != 0 {
		t.Fatalf("daemon 2 Takeovers = %d, want 0", st.Takeovers)
	}
}
