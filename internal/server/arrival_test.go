package server

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The daemons below free-run with Interval time.Hour: the ticker cannot fire
// inside a test, so every iteration they run was triggered by an arrival.

// recvRate reads asynchronous fan-out until flow's rate arrives, failing the
// test if that takes more than a second.
func recvRate(t *testing.T, cli *transport.AllocClient, flow core.FlowID) float64 {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		updates, _, err := cli.Recv(time.Until(deadline))
		if err != nil {
			t.Fatalf("waiting for flow %d's rate: %v", flow, err)
		}
		for _, u := range updates {
			if u.Flow == flow {
				return u.Rate
			}
		}
	}
}

// TestArrivalIteratesWithoutTick: a started flowlet gets its rate from an
// iteration its own arrival triggered.
func TestArrivalIteratesWithoutTick(t *testing.T) {
	srv, cli := startPipeDaemon(t, Config{Topology: testTopology(t), Interval: time.Hour})
	if err := cli.FlowletStart(1, 0, 9, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	if rate := recvRate(t, cli, 1); rate <= 0 {
		t.Fatalf("flow 1 rate = %g; want positive", rate)
	}
	if it, st := srv.Iterations(), srv.Stats(); it != 1 || st.ArrivalIterations != 1 {
		t.Fatalf("%d iterations, %d of them on arrival; want 1 and 1", it, st.ArrivalIterations)
	}
}

// TestBurstFoldsInOneIteration: an End and a Start written in one Flush are
// one burst — one wake, one iteration, and both events in that iteration's
// fold.
func TestBurstFoldsInOneIteration(t *testing.T) {
	srv, cli := startPipeDaemon(t, Config{Topology: testTopology(t), Interval: time.Hour})
	rec := telemetry.NewFlightRecorder(8)
	srv.AttachFlightRecorder(rec)
	if err := cli.FlowletStart(1, 0, 9, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	recvRate(t, cli, 1)
	before := srv.Iterations()

	if err := cli.FlowletEnd(1); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlowletStart(2, 3, 9, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	recvRate(t, cli, 2)
	time.Sleep(20 * time.Millisecond) // a second wake would have run by now
	if got := srv.Iterations() - before; got != 1 {
		t.Fatalf("End+Start in one Flush ran %d iterations; want exactly 1", got)
	}
	samples := rec.Snapshot()
	if last := samples[len(samples)-1]; last.ChurnEvents != 2 {
		t.Fatalf("the burst's iteration folded %d events; want both", last.ChurnEvents)
	}
	if n := srv.NumFlows(); n != 1 {
		t.Fatalf("NumFlows = %d; want 1", n)
	}
}

// TestArrivalWakesCoalesce: sessions writing one frame at a time, with the
// loop busy in between, never lose a wake (every flow ends up rated with no
// tick to rescue a stranded event) and never need one iteration per frame
// once bursts land while an iteration is in flight.
func TestArrivalWakesCoalesce(t *testing.T) {
	const sessions, frames = 4, 50
	srv, err := New(Config{Topology: testTopology(t), Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	var conns [sessions]net.Conn
	for k := range conns {
		cli, err := transport.DialAlloc(ln.Addr().String(), uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		conns[k] = cli.Conn()
		go io.Copy(io.Discard, conns[k]) // rate fan-out; ends when the conn closes
	}
	for i := 0; i < frames; i++ {
		for k, conn := range conns {
			id := int64(k*frames + i)
			frame := wire.AppendFlowletAdd(nil, wire.FlowletAdd{Flow: id, Src: int32(id % 16), Dst: int32((id + 5) % 16), Weight: 1})
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, func() bool {
		rated := 0
		for _, rate := range srv.Rates() {
			if rate > 0 {
				rated++
			}
		}
		return rated == sessions*frames
	})
	st := srv.Stats()
	if st.EventsReceived != sessions*frames {
		t.Fatalf("EventsReceived = %d; want %d", st.EventsReceived, sessions*frames)
	}
	if it := srv.Iterations(); it == 0 || it > sessions*frames || uint64(st.ArrivalIterations) != it {
		t.Fatalf("%d iterations (%d on arrival) for %d single-frame bursts; want at most one each, all on arrival", it, st.ArrivalIterations, sessions*frames)
	}
}

// TestPeerFramesDoNotWakeLoop: boundary-exchange traffic waits for the next
// tick or client arrival. If receiving a bundle triggered an iteration, whose
// last act is to push a bundle to every peer, two free-running shards would
// ping-pong iterations forever.
func TestPeerFramesDoNotWakeLoop(t *testing.T) {
	srv, err := New(Config{Topology: clusterTopo(t), NumShards: 2, ShardIndex: 0, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer, in := net.Pipe()
	defer peer.Close()
	go srv.ServeConn(in)
	hello := wire.AppendPeerHello(nil, wire.PeerHello{Version: wire.Version, Shard: 1, NumShards: 2, Epoch: 1})
	if _, err := peer.Write(hello); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.NewScanner(peer).Next(); err != nil || typ != wire.TypePeerHello {
		t.Fatalf("peer handshake reply: %s, %v", typ, err)
	}
	bundle := wire.AppendHeartbeat(nil, wire.Heartbeat{Seq: 1, Shard: 1})
	bundle = wire.AppendPriceDigestDelta(bundle, 1, 1, true, []uint32{0}, []float64{1e9}, []float64{-1})
	if _, err := peer.Write(bundle); err != nil {
		t.Fatal(err)
	}
	queued := func() int {
		srv.shard.inMu.Lock()
		defer srv.shard.inMu.Unlock()
		return len(srv.shard.pending)
	}
	waitFor(t, func() bool { return queued() == 1 })
	time.Sleep(20 * time.Millisecond) // a wake would have run by now
	if it := srv.Iterations(); it != 0 {
		t.Fatalf("peer heartbeat and digest ran %d iterations on their own; want 0", it)
	}

	// A client arrival does wake the loop, and that iteration folds the
	// waiting digest in.
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	cli, err := transport.NewAllocClient(clientEnd, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.FlowletStart(1, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	recvRate(t, cli, 1)
	if it, q := srv.Iterations(), queued(); it != 1 || q != 0 {
		t.Fatalf("after a client arrival: %d iterations, %d peer frames still queued; want 1 and 0", it, q)
	}
}

// TestUnpublishedBurstAtDisconnect: a session that dies mid-burst — here on a
// malformed header behind two valid adds in the same write — has those adds
// published ahead of its clean-up, and a burst published after the clean-up
// (the reader of a session its writer tore down) registers nothing. Either
// way no flow outlives the session.
func TestUnpublishedBurstAtDisconnect(t *testing.T) {
	for _, interval := range []time.Duration{0, 200 * time.Microsecond} {
		srv, err := New(Config{Topology: testTopology(t), Interval: interval})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		clientEnd, serverEnd := net.Pipe()
		ended := make(chan error, 1)
		go func() { ended <- srv.ServeConn(serverEnd) }()
		cli, err := transport.NewAllocClient(clientEnd, 7)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		var sess *session
		srv.mu.Lock()
		for s := range srv.sessions {
			sess = s
		}
		srv.mu.Unlock()

		burst := wire.AppendFlowletAdd(nil, wire.FlowletAdd{Flow: 1, Src: 0, Dst: 9, Weight: 1})
		burst = wire.AppendFlowletAdd(burst, wire.FlowletAdd{Flow: 2, Src: 3, Dst: 9, Weight: 1})
		burst = append(burst, 0xEE, 0, 0, 0)
		go io.Copy(io.Discard, clientEnd) // a free-running daemon may fan rates out first
		if _, err := clientEnd.Write(burst); err != nil {
			t.Fatal(err)
		}
		if err := <-ended; err == nil {
			t.Fatal("session survived a malformed header")
		}
		if got := srv.Stats().EventsReceived; got != 2 {
			t.Fatalf("interval %v: EventsReceived = %d; want the 2 adds ahead of the bad header", interval, got)
		}
		settled := func() bool {
			if interval == 0 {
				if err := srv.iterate(nil, 0); err != nil {
					t.Fatal(err)
				}
			}
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return len(srv.inbox) == 0 && numRecsLocked(srv) == 0 && srv.alloc.NumFlows() == 0
		}
		waitFor(t, settled)

		rejected := srv.Stats().RejectedAdds
		srv.publish([]event{{flow: 3, src: 0, dst: 9, weight: 1, sess: sess}})
		waitFor(t, func() bool { return settled() && srv.Stats().RejectedAdds == rejected+1 })
	}
}
