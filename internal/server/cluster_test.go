package server

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
)

// clusterTopo is a 4-rack fabric sharded in halves by the cluster tests.
func clusterTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewTwoTier(topology.Config{
		Racks: 4, ServersPerRack: 2, Spines: 2, LinkCapacity: 10e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// startShardPair builds a 2-shard cluster over in-memory pipes: two sharded
// daemons, peer connections in both directions, and one client per shard.
func startShardPair(t *testing.T) (srvs [2]*Server, clis [2]*transport.AllocClient) {
	t.Helper()
	topo := clusterTopo(t)
	for i := 0; i < 2; i++ {
		srv, err := New(Config{Topology: topo, NumShards: 2, ShardIndex: i})
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
		clientEnd, serverEnd := net.Pipe()
		go srvs[i].ServeConn(serverEnd)
		cli, err := transport.NewAllocClient(clientEnd, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		clis[i] = cli
	}
	return srvs, clis
}

// TestBoundaryExchangeSharesCongestion is the end-to-end check of the price
// exchange: a cross-shard flow (shard 0 → a server in shard 1) and a local
// flow inside shard 1 share one downward link. Without the exchange each
// daemon would hand its flow the full link; with it, the owner prices the
// link from cluster-wide demand, the remote shard imports that price, and
// the two flows converge to fair shares that fit the link.
func TestBoundaryExchangeSharesCongestion(t *testing.T) {
	srvs, clis := startShardPair(t)
	if got := srvs[0].Peers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("shard 0 peers = %v, want [1]", got)
	}

	// Flow 1: server 0 (rack 0, shard 0) → server 4 (rack 2, shard 1).
	// Flow 2: server 5 → server 4, intra-rack inside shard 1.
	// Shared bottleneck: the tor2→server4 downward link (10 Gbit/s).
	if err := clis[0].FlowletStart(1, 0, 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := clis[1].FlowletStart(2, 5, 4, 1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		if _, err := clis[0].Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := clis[1].Step(); err != nil {
			t.Fatal(err)
		}
	}
	r1 := srvs[0].Rates()[core.FlowID(1)]
	r2 := srvs[1].Rates()[core.FlowID(2)]
	const cap = 10e9
	if r1 <= 0 || r2 <= 0 {
		t.Fatalf("rates not allocated: r1=%g r2=%g", r1, r2)
	}
	if sum := r1 + r2; sum > 1.02*cap {
		t.Fatalf("combined allocation %g overshoots the shared link (%g): the exchange is not pricing remote demand", sum, cap)
	}
	// Proportional fairness on one shared link: roughly equal shares.
	if r1 < 0.3*cap || r2 < 0.3*cap {
		t.Fatalf("shares too skewed: r1=%g r2=%g", r1, r2)
	}
	for i, srv := range srvs {
		st := srv.Stats()
		if st.ExchangeFolds == 0 {
			t.Fatalf("shard %d folded no peer exchanges", i)
		}
		if st.PeerRejected != 0 {
			t.Fatalf("shard %d rejected %d peer entries", i, st.PeerRejected)
		}
	}
}

// TestShardRejectsForeignFlow pins flow ownership: a sharded daemon refuses
// flowlets sourced in a peer's racks instead of double-allocating them.
func TestShardRejectsForeignFlow(t *testing.T) {
	srvs, clis := startShardPair(t)
	// Server 4 belongs to shard 1; registering its flow on shard 0 must be
	// dropped at the fold.
	if err := clis[0].FlowletStart(3, 4, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := clis[0].Step(); err != nil {
		t.Fatal(err)
	}
	if got := srvs[0].NumFlows(); got != 0 {
		t.Fatalf("foreign flow registered: NumFlows = %d", got)
	}
	if st := srvs[0].Stats(); st.RejectedAdds != 1 {
		t.Fatalf("RejectedAdds = %d, want 1", st.RejectedAdds)
	}
}

// TestPeerHandshakeValidation pins the cluster-shape checks of the peer
// handshake.
func TestPeerHandshakeValidation(t *testing.T) {
	topo := clusterTopo(t)
	sharded, err := New(Config{Topology: topo, NumShards: 2, ShardIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	unsharded, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer unsharded.Close()

	// ConnectPeer is meaningless on an unsharded daemon.
	a, b := net.Pipe()
	defer b.Close()
	if _, err := unsharded.ConnectPeer(a); err == nil {
		t.Fatal("unsharded ConnectPeer accepted")
	}

	// A peer believing in a different shard count is refused.
	other, err := New(Config{Topology: topo, NumShards: 4, ShardIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	// The acceptor rejects the mismatched hello and closes the connection,
	// so the dialer sees its handshake fail (typically as EOF).
	out, in := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- sharded.ServeConn(in) }()
	if _, err := other.ConnectPeer(out); err == nil {
		t.Fatal("mismatched cluster accepted by dialer")
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("acceptor ended with %v, want shard-count error", err)
	}

	// A peer claiming our own shard index is refused by the acceptor.
	same, err := New(Config{Topology: topo, NumShards: 2, ShardIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer same.Close()
	out2, in2 := net.Pipe()
	go sharded.ServeConn(in2)
	if _, err := same.ConnectPeer(out2); err == nil {
		t.Fatal("duplicate shard index accepted")
	}
}

// TestConnectPeerTimesOutOnSilentPeer pins the outbound-handshake deadline:
// a peer that accepts TCP but never replies must fail the dial attempt
// within the exchange timeout instead of wedging the retry loop forever.
func TestConnectPeerTimesOutOnSilentPeer(t *testing.T) {
	topo := clusterTopo(t)
	srv, err := New(Config{Topology: topo, NumShards: 2, ShardIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, never reply
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.ConnectPeer(conn)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("silent peer handshake succeeded")
		}
	case <-time.After(peerExchangeTimeout + 5*time.Second):
		t.Fatal("ConnectPeer wedged past the handshake deadline")
	}
}

// scriptedPeer plays shard 1 of a 2-shard cluster toward srv's inbound side
// over net.Pipe: it completes the PeerHello handshake and returns a function
// that writes one bundle (ending in a PriceSnapshotDelta) and waits for its
// ack, by which point srv has queued the bundle for its next fold.
func scriptedPeer(t *testing.T, srv *Server) func(bundle []byte) {
	t.Helper()
	conn, in := net.Pipe()
	t.Cleanup(func() { conn.Close() })
	go srv.ServeConn(in)
	if _, err := conn.Write(wire.AppendPeerHello(nil, wire.PeerHello{Version: wire.Version, Shard: 1, NumShards: 2})); err != nil {
		t.Fatal(err)
	}
	sc := wire.NewScanner(conn)
	if typ, _, err := sc.Next(); err != nil || typ != wire.TypePeerHello {
		t.Fatalf("peer handshake: %s, %v", typ, err)
	}
	return func(bundle []byte) {
		t.Helper()
		if _, err := conn.Write(bundle); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := sc.Next(); err != nil || typ != wire.TypeExchangeAck {
			t.Fatalf("bundle ack: %s, %v", typ, err)
		}
	}
}

// TestPeerBoundaryValuesValidated is the regression test for non-finite
// boundary values: a peer bundle carrying a NaN, infinite or negative price
// and a non-finite load or Hessian must be refused entry by entry at the fold
// (counted in PeerRejected), leaving every rate and price bit-identical to a
// twin daemon that never saw the bundle. Folded, one NaN poisons the link's
// price and every rate on it for good.
func TestPeerBoundaryValuesValidated(t *testing.T) {
	topo := clusterTopo(t)
	var srvs [2]*Server
	var clis [2]*transport.AllocClient
	var peers [2]func([]byte)
	for i := range srvs {
		srv, err := New(Config{Topology: topo, NumShards: 2, ShardIndex: 0})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i], clis[i], peers[i] = srv, pipeClient(t, srv, 1), scriptedPeer(t, srv)
	}
	own := srvs[0].shard.boundary                 // shard 0's downlinks: the peer's digest covers them
	remote := srvs[0].shard.smap.BoundaryLinks(1) // shard 1's: the peer's snapshot prices them
	links := func(ls []topology.LinkID) []uint32 {
		out := make([]uint32, 3)
		for i := range out {
			out[i] = uint32(ls[i])
		}
		return out
	}
	valid := wire.AppendPriceDigestDelta(nil, 0, 1, false, links(own), []float64{2e9, 3e9, 4e9}, []float64{-1e9, -2e9, -3e9})
	valid = wire.AppendPriceSnapshotDelta(valid, 0, 0, 1, false, links(remote), []float64{1.5, 0.5, 2})
	bad := wire.AppendPriceDigestDelta(nil, 0, 1, false, links(own), []float64{math.NaN(), 3e9, math.Inf(-1)}, []float64{-1e9, math.Inf(1), -3e9})
	bad = wire.AppendPriceSnapshotDelta(bad, 0, 0, 1, false, links(remote), []float64{math.NaN(), -1, math.Inf(1)})

	for i, cli := range clis {
		// Cross-rack flows of shard 0, onto both shards' downlinks.
		for f, ep := range [][2]int{{0, 4}, {1, 5}, {2, 0}, {3, 1}, {0, 2}} {
			if err := cli.FlowletStart(core.FlowID(f+1), ep[0], ep[1], 1); err != nil {
				t.Fatal(err)
			}
		}
		peers[i](valid)
	}
	allLinks := make([]topology.LinkID, topo.NumLinks())
	for i := range allLinks {
		allLinks[i] = topology.LinkID(i)
	}
	prices := func(srv *Server) []float64 {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		out := make([]float64, len(allLinks))
		srv.alloc.LinkPrices(allLinks, out)
		return out
	}
	for round := 0; round < 60; round++ {
		if round == 20 {
			peers[0](bad)
		}
		if round%10 == 5 {
			peers[0](valid)
			peers[1](valid)
		}
		for _, cli := range clis {
			if _, err := cli.Step(); err != nil {
				t.Fatal(err)
			}
		}
		want, got := srvs[1].Rates(), srvs[0].Rates()
		for id, w := range want {
			if math.Float64bits(got[id]) != math.Float64bits(w) || math.IsNaN(w) {
				t.Fatalf("round %d flow %d: rate %v, twin %v", round, id, got[id], w)
			}
		}
		wantP, gotP := prices(srvs[1]), prices(srvs[0])
		for l := range wantP {
			if math.Float64bits(gotP[l]) != math.Float64bits(wantP[l]) {
				t.Fatalf("round %d link %d: price %v, twin %v", round, l, gotP[l], wantP[l])
			}
		}
	}
	if got := srvs[0].Stats().PeerRejected; got != 6 {
		t.Fatalf("PeerRejected = %d, want the 6 invalid entries", got)
	}
	if got := srvs[1].Stats().PeerRejected; got != 0 {
		t.Fatalf("twin PeerRejected = %d, want 0", got)
	}
}

// TestShardedConfigValidation pins the sharded-config checks — and that the
// multicore engine is accepted (the old sequential-only restriction is gone).
func TestShardedConfigValidation(t *testing.T) {
	topo := clusterTopo(t)
	srv, err := New(Config{Topology: topo, NumShards: 2, ShardIndex: 0, Blocks: 2})
	if err != nil {
		t.Fatalf("sharded multicore daemon rejected: %v", err)
	}
	srv.Close()
	if _, err := New(Config{Topology: topo, NumShards: 2, ShardIndex: 5}); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if _, err := New(Config{Topology: topo, NumShards: 3, ShardIndex: 0}); err == nil {
		t.Fatal("3 shards over 4 racks accepted")
	}
}
