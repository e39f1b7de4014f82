package server

import (
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testTopology is a small two-tier fabric (16 servers) shared by the tests.
func testTopology(t *testing.T) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultSimConfig()
	cfg.Racks = 4
	cfg.ServersPerRack = 4
	cfg.Spines = 2
	topo, err := topology.NewTwoTier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// testChurn generates a deterministic add/remove event stream.
func testChurn(t *testing.T, topo *topology.Topology, horizon float64, seed int64) []workload.Event {
	t.Helper()
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Kind:               workload.Web,
		NumServers:         topo.NumServers(),
		ServerLinkCapacity: topo.Config().LinkCapacity,
		Load:               0.6,
		Seed:               seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	flows := gen.GenerateUntil(horizon)
	return workload.ChurnEvents(flows, workload.IdealHold(topo.Config().LinkCapacity, 4))
}

// startPipeDaemon creates a step-driven daemon served over an in-memory pipe
// and a handshaken client on the other end.
func startPipeDaemon(t *testing.T, cfg Config) (*Server, *transport.AllocClient) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	cli, err := transport.NewAllocClient(clientEnd, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// TestConcurrentStepReplies steps three sessions of one daemon from their own
// goroutines, so one session's iteration runs while another's step reply —
// encoded from the update list under the loop lock — is being written outside
// it. Every update a session receives must be for a flow it registered: a
// reply holding entries of another session's share of an iteration, or of a
// later iteration's update list, would carry other sessions' flows.
func TestConcurrentStepReplies(t *testing.T) {
	topo := testTopology(t)
	srv, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const clients, resident, steps, idSpan = 3, 60, 80, 1 << 20
	n := topo.NumServers()
	var wg sync.WaitGroup
	for c := 1; c <= clients; c++ {
		clientEnd, serverEnd := net.Pipe()
		go srv.ServeConn(serverEnd)
		cli, err := transport.NewAllocClient(clientEnd, uint64(c))
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := core.FlowID(c * idSpan)
			oldest, next := base, base
			start := func() {
				src := int(next) % n
				if err := cli.FlowletStart(next, src, (src+1+int(next)/n)%n, 1); err != nil {
					t.Error(err)
				}
				next++
			}
			for next < base+resident {
				start()
			}
			for i := 0; i < steps; i++ {
				if err := cli.FlowletEnd(oldest); err != nil {
					t.Error(err)
				}
				oldest++
				start()
				ups, err := cli.Step()
				if err != nil {
					t.Errorf("client %d step %d: %v", c, i, err)
					return
				}
				for _, u := range ups {
					if u.Flow < base || u.Flow >= next {
						t.Errorf("client %d step %d: received a rate for flow %d, not one of its own", c, i, u.Flow)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestStepRepliesNeverTrailFanout steps three sessions of one daemon from
// their own goroutines, each ending its oldest flowlet and starting one per
// step, so every iteration queues rates for the sessions that did not ask for
// it. Once all are done and each client has read what is left on its
// connection, every client must hold, for each live flowlet, a rate within
// the notification threshold of the daemon's: a fan-out of a later iteration
// that overtook a step reply would leave it holding the reply's older rate.
func TestStepRepliesNeverTrailFanout(t *testing.T) {
	topo := testTopology(t)
	srv, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const clients, resident, steps, idSpan = 3, 60, 200, 1 << 20
	n := topo.NumServers()
	clis := make([]*transport.AllocClient, clients)
	got := make([]map[core.FlowID]float64, clients)
	note := func(c int, ups []core.RateUpdate) {
		for _, u := range ups {
			if _, live := got[c][u.Flow]; live {
				got[c][u.Flow] = u.Rate
			}
		}
	}
	var wg sync.WaitGroup
	for c := range clis {
		clientEnd, serverEnd := net.Pipe()
		go srv.ServeConn(serverEnd)
		cli, err := transport.NewAllocClient(clientEnd, uint64(c+1))
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		clis[c], got[c] = cli, make(map[core.FlowID]float64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := core.FlowID((c + 1) * idSpan)
			for i := 0; i < resident+steps; i++ {
				if i >= resident {
					if err := cli.FlowletEnd(next - resident); err != nil {
						t.Error(err)
					}
					delete(got[c], next-resident)
				}
				src := int(next) % n
				if err := cli.FlowletStart(next, src, (src+1+int(next)/n)%n, 1); err != nil {
					t.Error(err)
				}
				got[c][next] = 0
				next++
				if i < resident {
					continue
				}
				ups, err := cli.Step()
				if err != nil {
					t.Errorf("client %d step %d: %v", c, i, err)
					return
				}
				note(c, ups)
			}
		}()
	}
	wg.Wait()
	for c, cli := range clis {
		for {
			ups, _, err := cli.Recv(50 * time.Millisecond)
			if err != nil {
				break
			}
			note(c, ups)
		}
	}
	rates := srv.Rates()
	for c := range got {
		for f, r := range got[c] {
			if core.SignificantRateChange(r, rates[f], srv.cfg.UpdateThreshold) {
				t.Errorf("client %d holds %v for flow %d, the daemon computes %v", c, r, f, rates[f])
			}
		}
	}
}

// TestDaemonMatchesInProcessAllocator is the end-to-end determinism check:
// the same churn stream, folded in at the same iteration boundaries, must
// produce bit-identical rate updates whether the allocator runs in process
// or behind the wire protocol in a daemon.
func TestDaemonMatchesInProcessAllocator(t *testing.T) {
	topo := testTopology(t)
	const horizon = 2e-3
	const interval = 10e-6
	events := testChurn(t, topo, horizon, 1)

	srv, cli := startPipeDaemon(t, Config{Topology: topo})
	if cli.Epoch() != 1 {
		t.Fatalf("epoch = %d; want the default 1", cli.Epoch())
	}

	ref, err := core.NewAllocator(core.Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}

	added := make(map[int64]bool)
	next := 0
	steps := 0
	for now := interval; now <= horizon; now += interval {
		for next < len(events) && events[next].At <= now {
			ev := events[next]
			next++
			if ev.Kind == workload.FlowletAdd {
				added[ev.Flow.ID] = true
				if err := cli.FlowletStart(core.FlowID(ev.Flow.ID), ev.Flow.Src, ev.Flow.Dst, 1); err != nil {
					t.Fatal(err)
				}
				if err := ref.FlowletStart(core.FlowID(ev.Flow.ID), ev.Flow.Src, ev.Flow.Dst, 1); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := cli.FlowletEnd(core.FlowID(ev.Flow.ID)); err != nil {
					t.Fatal(err)
				}
				if err := ref.FlowletEnd(core.FlowID(ev.Flow.ID)); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := cli.Step()
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Iterate()
		steps++
		if len(got) != len(want) {
			t.Fatalf("step %d: daemon sent %d updates, in-process produced %d", steps, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d update %d: daemon %+v != in-process %+v", steps, i, got[i], want[i])
			}
		}
	}
	// Removal events whose hold time extends past the horizon drain in one
	// final iteration.
	for ; next < len(events); next++ {
		ev := events[next]
		if ev.Kind != workload.FlowletRemove || !added[ev.Flow.ID] {
			continue
		}
		if err := cli.FlowletEnd(core.FlowID(ev.Flow.ID)); err != nil {
			t.Fatal(err)
		}
		if err := ref.FlowletEnd(core.FlowID(ev.Flow.ID)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	ref.Iterate()
	steps++
	if steps < 100 {
		t.Fatalf("only %d steps ran; horizon/interval mismatch", steps)
	}

	// Final rate state must agree too.
	gotRates := srv.Rates()
	wantRates := ref.Rates()
	if len(gotRates) != len(wantRates) {
		t.Fatalf("daemon tracks %d flows, in-process %d", len(gotRates), len(wantRates))
	}
	for id, want := range wantRates {
		if got, ok := gotRates[id]; !ok || got != want {
			t.Fatalf("flow %d: daemon rate %g, in-process %g", id, got, want)
		}
	}
	if n := srv.Iterations(); n != uint64(steps) {
		t.Fatalf("daemon ran %d iterations; %d steps sent", n, steps)
	}
	if s := srv.LoopStats(); s.Iterations != int64(steps) || s.LatencySec.Count == 0 {
		t.Fatalf("loop stats = %+v; want %d iterations with latency samples", s, steps)
	}
}

// TestDaemonParallelEngineMatchesInProcess drives the daemon's multicore
// engine and an in-process ParallelAllocator through the same churn/iterate
// sequence and requires identical rates.
func TestDaemonParallelEngineMatchesInProcess(t *testing.T) {
	topo := testTopology(t)
	const horizon = 1e-3
	const interval = 10e-6
	events := testChurn(t, topo, horizon, 2)

	srv, cli := startPipeDaemon(t, Config{Topology: topo, Blocks: 2})

	pa, err := core.NewParallelAllocator(core.ParallelConfig{
		Topology:  topo,
		Blocks:    2,
		Gamma:     0.4,  // the daemon's default Gamma
		Headroom:  0.01, // and UpdateThreshold
		Normalize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()

	// Mirror the daemon engine exactly: both sides fold churn in through
	// the allocator's incremental FlowletStart/FlowletEnd path.
	next := 0
	for now := interval; now <= horizon; now += interval {
		for next < len(events) && events[next].At <= now {
			ev := events[next]
			next++
			id := core.FlowID(ev.Flow.ID)
			if ev.Kind == workload.FlowletAdd {
				if err := cli.FlowletStart(id, ev.Flow.Src, ev.Flow.Dst, 1); err != nil {
					t.Fatal(err)
				}
				if err := pa.FlowletStart(id, ev.Flow.Src, ev.Flow.Dst, 1); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := cli.FlowletEnd(id); err != nil {
					t.Fatal(err)
				}
				if err := pa.FlowletEnd(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := cli.Step(); err != nil {
			t.Fatal(err)
		}
		pa.Iterate()
	}

	gotRates := srv.Rates()
	wantRates := pa.Rates()
	if len(gotRates) != len(wantRates) || len(gotRates) == 0 {
		t.Fatalf("daemon tracks %d flows, in-process %d (want equal and non-zero)", len(gotRates), len(wantRates))
	}
	for id, want := range wantRates {
		if got := gotRates[id]; got != want {
			t.Fatalf("flow %d: daemon rate %g, in-process %g", id, got, want)
		}
	}
}

// TestDaemonOverTCP exercises the daemon over real loopback sockets with two
// sessions: updates are routed to the session that registered the flow, and
// a disconnecting session's flowlets are retired at the next iteration.
func TestDaemonOverTCP(t *testing.T) {
	topo := testTopology(t)
	srv, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	a, err := transport.DialAlloc(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.DialAlloc(ln.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// A owns flows 1 and 2, B owns flow 3.
	if err := a.FlowletStart(1, 0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.FlowletStart(2, 1, 6, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.FlowletStart(3, 2, 7, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	// A's adds travel with its Step frame, but B's flushed add races it
	// over a separate socket; wait until the daemon has queued B's event
	// so the first iteration folds in all three flows.
	waitFor(t, func() bool { return srv.Stats().EventsReceived == 1 })

	got, err := a.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Flow != 1 || got[1].Flow != 2 {
		t.Fatalf("A received %+v; want updates for flows 1 and 2 only", got)
	}
	for _, u := range got {
		if u.Rate <= 0 {
			t.Fatalf("flow %d allocated non-positive rate %g", u.Flow, u.Rate)
		}
	}
	// B's update arrives through its asynchronous writer.
	bu, seq, err := b.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(bu) != 1 || bu[0].Flow != 3 || bu[0].Rate <= 0 {
		t.Fatalf("B received %+v; want one update for flow 3", bu)
	}
	if seq != srv.Iterations() {
		t.Fatalf("B's batch seq = %d; daemon iteration = %d", seq, srv.Iterations())
	}
	if n := srv.NumFlows(); n != 3 {
		t.Fatalf("NumFlows = %d; want 3", n)
	}

	// Disconnect B: flow 3 must be retired at a subsequent iteration.
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.NumFlows() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("flow 3 not cleaned up after B disconnected; NumFlows = %d", srv.NumFlows())
		}
		if _, err := a.Step(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}

	st := srv.Stats()
	if st.SessionsAccepted != 2 || st.SessionsActive != 1 {
		t.Fatalf("session stats = %+v; want 2 accepted, 1 active", st)
	}
}

// TestFreeRunningDaemon runs the daemon with its internal ticker and checks
// updates flow without Step frames.
func TestFreeRunningDaemon(t *testing.T) {
	topo := testTopology(t)
	srv, err := New(Config{Topology: topo, Interval: 200 * time.Microsecond, Epoch: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	cli, err := transport.DialAlloc(ln.Addr().String(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Epoch() != 9 {
		t.Fatalf("epoch = %d; want 9", cli.Epoch())
	}
	if cli.Interval() != 200*time.Microsecond {
		t.Fatalf("interval = %v; want 200µs", cli.Interval())
	}

	if err := cli.FlowletStart(1, 0, 9, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlowletStart(2, 3, 9, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[core.FlowID]float64)
	deadline := time.Now().Add(5 * time.Second)
	for len(seen) < 2 && time.Now().Before(deadline) {
		updates, _, err := cli.Recv(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range updates {
			seen[u.Flow] = u.Rate
		}
	}
	if len(seen) != 2 || seen[1] <= 0 || seen[2] <= 0 {
		t.Fatalf("received rates %v; want positive rates for flows 1 and 2", seen)
	}
	if s := srv.LoopStats(); s.Iterations == 0 || s.IterationsPerSec <= 0 {
		t.Fatalf("loop stats = %+v; want free-running iterations", s)
	}
}

// TestDaemonDefensiveCounters checks duplicate adds, unknown ends, and
// rejected routes are dropped and counted rather than breaking the loop.
func TestDaemonDefensiveCounters(t *testing.T) {
	topo := testTopology(t)
	srv, cli := startPipeDaemon(t, Config{Topology: topo})

	send := func(frame []byte) {
		t.Helper()
		// Raw frames bypass the client's own dup defense.
		if _, err := cliConn(cli).Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	send(wire.AppendFlowletAdd(nil, wire.FlowletAdd{Flow: 1, Src: 0, Dst: 5, Weight: 1}))
	send(wire.AppendFlowletAdd(nil, wire.FlowletAdd{Flow: 1, Src: 0, Dst: 5, Weight: 1}))   // duplicate
	send(wire.AppendFlowletAdd(nil, wire.FlowletAdd{Flow: 2, Src: 0, Dst: 999, Weight: 1})) // bad route
	send(wire.AppendFlowletEnd(nil, wire.FlowletEnd{Flow: 77}))                             // unknown
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if n := srv.NumFlows(); n != 1 {
		t.Fatalf("NumFlows = %d; want 1", n)
	}
	st := srv.Stats()
	if st.DuplicateAdds != 1 || st.RejectedAdds != 1 || st.UnknownEnds != 1 {
		t.Fatalf("stats = %+v; want 1 duplicate, 1 rejected, 1 unknown", st)
	}
}

// TestServerRejectsBadHandshake covers a session that does not open with a
// Hello (TestHandshakeRefusesOtherVersions covers one of the wrong version).
func TestServerRejectsBadHandshake(t *testing.T) {
	topo := testTopology(t)
	srv, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// First frame is not a Hello.
	c1, s1 := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeConn(s1) }()
	go c1.Write(wire.AppendStep(nil, wire.Step{Seq: 1}))
	if err := <-errc; err == nil {
		t.Fatal("ServeConn accepted a session without a Hello")
	}
	c1.Close()
}

// waitFor polls cond until true or the test deadline budget is spent.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// cliConn extracts the client's connection for raw-frame tests.
func cliConn(c *transport.AllocClient) net.Conn { return c.Conn() }

// TestBatchChunking shrinks the per-frame entry limit and checks both the
// step-reply path and the asynchronous writer split oversized update sets
// into multiple valid rate frames that clients reassemble.
func TestBatchChunking(t *testing.T) {
	old := maxRateDeltaEntries
	maxRateDeltaEntries = 3
	defer func() { maxRateDeltaEntries = old }()

	topo := testTopology(t)
	srv, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	a, err := transport.DialAlloc(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.DialAlloc(ln.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// A owns 8 flows (stepper path), B owns 5 (writer path); all get a
	// first-iteration rate update, exceeding the 3-entry frame limit.
	for i := 0; i < 8; i++ {
		if err := a.FlowletStart(core.FlowID(i), i%8, 8+i%8, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 8; i < 13; i++ {
		if err := b.FlowletStart(core.FlowID(i), i%8, 8+i%8, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Stats().EventsReceived == 5 })

	got, err := a.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("A received %d updates; want all 8 across chunked frames", len(got))
	}
	seen := make(map[core.FlowID]bool)
	for len(seen) < 5 {
		updates, _, err := b.Recv(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range updates {
			seen[u.Flow] = true
		}
	}
	st := srv.Stats()
	// 8 stepper entries in exactly ceil(8/3)=3 frames; the writer delivers
	// B's 5 entries in 2 frames when it drains them in one wake, more if
	// its wakeups interleave with queueing — but never in a single frame.
	if st.UpdatesSent != 13 {
		t.Fatalf("stats = %+v; want 13 update entries sent", st)
	}
	if st.BatchesSent < 5 || st.BatchesSent > 8 {
		t.Fatalf("stats = %+v; want 5..8 chunked frames", st)
	}
}

// TestAddFromDisconnectedSessionDropped covers the phantom-flow case: an add
// still in the inbox when its session disconnects must not be registered.
func TestAddFromDisconnectedSessionDropped(t *testing.T) {
	topo := testTopology(t)
	srv, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	a, err := transport.DialAlloc(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ghost, err := transport.DialAlloc(ln.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ghost.FlowletStart(100, 0, 9, 1); err != nil {
		t.Fatal(err)
	}
	if err := ghost.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait for the add to be queued, then disconnect before any iteration.
	waitFor(t, func() bool { return srv.Stats().EventsReceived == 1 })
	ghost.Close()
	waitFor(t, func() bool { return srv.Stats().SessionsActive == 1 })

	if _, err := a.Step(); err != nil {
		t.Fatal(err)
	}
	if n := srv.NumFlows(); n != 0 {
		t.Fatalf("phantom flow registered: NumFlows = %d; want 0", n)
	}
	if st := srv.Stats(); st.RejectedAdds != 1 {
		t.Fatalf("stats = %+v; want the orphaned add counted as rejected", st)
	}
}

// TestCloseUnblocksPreHandshakeConn ensures Close does not hang on a peer
// that connected but never sent its Hello.
func TestCloseUnblocksPreHandshakeConn(t *testing.T) {
	topo := testTopology(t)
	srv, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Give the accept loop time to hand the conn to ServeConn.
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 1
	})

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a pre-handshake connection")
	}
}

// TestParallelEngineRejectsBadAdd is the error-path test for the incremental
// churn API: a flowlet with an unroutable endpoint must be rejected (and
// counted) at the iteration boundary it is folded in at, without disturbing
// the engine's live flows — the former SetFlows-based engine silently dropped
// the whole reload instead.
func TestParallelEngineRejectsBadAdd(t *testing.T) {
	topo := testTopology(t)
	srv, cli := startPipeDaemon(t, Config{Topology: topo, Blocks: 2})

	if err := cli.FlowletStart(1, 0, 5, 1); err != nil {
		t.Fatal(err)
	}
	// Raw frame bypasses the client's own validation.
	bad := wire.AppendFlowletAdd(nil, wire.FlowletAdd{Flow: 2, Src: 0, Dst: 999, Weight: 1})
	if _, err := cliConn(cli).Write(bad); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlowletStart(3, 4, 9, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if n := srv.NumFlows(); n != 2 {
		t.Fatalf("NumFlows = %d; want 2 (good adds folded, bad add rejected)", n)
	}
	if st := srv.Stats(); st.RejectedAdds != 1 {
		t.Fatalf("RejectedAdds = %d; want 1", st.RejectedAdds)
	}
	// The engine keeps allocating for the surviving flows.
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	rates := srv.Rates()
	if len(rates) != 2 || rates[1] <= 0 || rates[3] <= 0 {
		t.Fatalf("rates = %v; want positive rates for flows 1 and 3", rates)
	}
}

// TestParallelEngineSteadyStateAllocs pins the daemon's allocator step: with
// a stable flow set, iterate's allocator half (parallel NED step + update walk
// over the dense per-block notification arrays into the reused buffer) must
// not allocate, at one block and at two.
func TestParallelEngineSteadyStateAllocs(t *testing.T) {
	topo := testTopology(t)
	for _, blocks := range []int{0, 2} {
		srv, err := New(Config{Topology: topo, Blocks: blocks})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.publish(steadyFlows(64))
		if err := srv.iterate(nil, 0); err != nil {
			t.Fatal(err)
		}
		if n := srv.NumFlows(); n != 64 {
			t.Fatalf("Blocks %d: NumFlows = %d; want the 64 published flows", blocks, n)
		}
		step := func() {
			srv.alloc.Iterate()
			srv.updates = srv.alloc.AppendUpdates(srv.cfg.UpdateThreshold, srv.updates[:0])
		}
		// Converge (and grow the reused update buffer to its working size).
		for i := 0; i < 50; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Fatalf("Blocks %d: steady-state step allocates %.1f times per op; want 0", blocks, allocs)
		}
	}
}

// TestInboxCapacity pins what the inbox keeps between drains. A one-off
// set-up burst of 20 000 registrations is let go once the drains that follow
// are 4 000-event churn steps, so the inbox settles at the working burst's
// capacity. And the drains a free-running daemon's loop makes when churn
// bursts alternate with empty ticks keep that capacity: after warm-up a
// burst-plus-tick cycle allocates nothing, in the inbox or anywhere else.
func TestInboxCapacity(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 48 {
		t.Fatalf("an event is %d bytes; want 48", size)
	}
	topo := testTopology(t)
	srv, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const resident, churn = 20000, 2000
	n := topo.NumServers()
	var burst []event
	next := core.FlowID(0)
	add := func() {
		src := int(next) % n
		burst = append(burst, event{flow: next, src: src, dst: (src + 1 + int(next)/n%(n-1)) % n, weight: 1})
		next++
	}
	drain := func() {
		t.Helper()
		if err := srv.iterate(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	// step publishes 2 000 ends of the oldest flows and 2 000 starts and
	// returns the inbox's capacity once they are in it.
	step := func() int {
		burst = burst[:0]
		for k := 0; k < churn; k++ {
			burst = append(burst, event{end: true, flow: next - resident})
			add()
		}
		srv.publish(burst)
		return cap(srv.inbox)
	}

	for next < resident {
		add()
	}
	srv.publish(burst)
	if c := cap(srv.inbox); c < resident {
		t.Fatalf("inbox capacity %d after a %d-event burst", c, resident)
	}
	drain()
	working := 0
	for i := 0; i < 60; i++ {
		working = step()
		drain()
	}
	if working >= 4*churn {
		t.Fatalf("inbox capacity %d 60 steps after the set-up burst; the steps need %d", working, 2*churn)
	}
	if got := srv.NumFlows(); got != resident {
		t.Fatalf("NumFlows = %d; want %d", got, resident)
	}

	cycle := func() {
		step()
		drain()
		drain() // the empty tick
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a churn burst followed by an empty tick allocates %.1f times; want 0", allocs)
	}
	if c := cap(srv.inbox); c < 2*churn || c >= 4*churn {
		t.Fatalf("inbox capacity %d after burst-and-tick cycles; the bursts need %d", c, 2*churn)
	}
}

// TestClientReconnect covers the client re-registration path: after the
// session drops, the daemon retires the orphaned flowlets, and Reconnect must
// re-register the live set through the incremental churn path so allocation
// resumes.
func TestClientReconnect(t *testing.T) {
	topo := testTopology(t)
	srv, cli := startPipeDaemon(t, Config{Topology: topo, Blocks: 2, Epoch: 7})

	if err := cli.FlowletStart(1, 0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlowletStart(2, 8, 13, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlowletStart(3, 2, 11, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlowletEnd(3); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if n := srv.NumFlows(); n != 2 {
		t.Fatalf("NumFlows = %d; want 2", n)
	}

	// Kill the session; the daemon retires the orphans at the next
	// iteration boundary.
	cliConn(cli).Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().SessionsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session did not close")
		}
		time.Sleep(time.Millisecond)
	}

	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	if err := cli.Reconnect(clientEnd); err != nil {
		t.Fatal(err)
	}
	if cli.Epoch() != 7 {
		t.Fatalf("Epoch = %d; want 7", cli.Epoch())
	}
	if cli.NumFlows() != 2 {
		t.Fatalf("client NumFlows = %d; want 2 live registrations", cli.NumFlows())
	}
	// The first Step flushes the buffered re-registrations (folding the
	// orphan cleanup and the re-adds in arrival order) and iterates.
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if n := srv.NumFlows(); n != 2 {
		t.Fatalf("NumFlows after reconnect = %d; want 2", n)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	rates := srv.Rates()
	if len(rates) != 2 || rates[1] <= 0 || rates[2] <= 0 {
		t.Fatalf("rates after reconnect = %v; want flows 1 and 2 allocated", rates)
	}
}

// TestClientReconnectBeforeCleanup reconnects without waiting for the daemon
// to notice the old session died, the racy path: Reconnect closes the old
// connection itself and re-registers via End/Add pairs, and the daemon's
// orphan sweep is ownership-checked, so whichever order the old session's
// cleanup and the new session's re-registrations fold in, the live set must
// converge to the client's registrations.
func TestClientReconnectBeforeCleanup(t *testing.T) {
	topo := testTopology(t)
	srv, cli := startPipeDaemon(t, Config{Topology: topo, Blocks: 2})

	if err := cli.FlowletStart(1, 0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlowletStart(2, 8, 13, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}

	// No explicit close, no wait: Reconnect tears the old connection down.
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	if err := cli.Reconnect(clientEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	// Give the old session's orphan sweep a boundary to (wrongly) fire on,
	// then check it did not retire the re-registered flows.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().SessionsActive != 1 {
		if time.Now().After(deadline) {
			t.Fatal("old session never detected as closed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if n := srv.NumFlows(); n != 2 {
		t.Fatalf("NumFlows after racy reconnect = %d; want 2", n)
	}
	rates := srv.Rates()
	if len(rates) != 2 || rates[1] <= 0 || rates[2] <= 0 {
		t.Fatalf("rates after racy reconnect = %v; want flows 1 and 2 allocated", rates)
	}
}

// TestSetLinkCapacityAllocatorUplink pins the daemon's capacity surface: a
// fabric link takes the new capacity, while an allocator uplink — in no
// LinkBlock, crossed by no flow — is refused with an error.
func TestSetLinkCapacityAllocatorUplink(t *testing.T) {
	topo := testTopology(t)
	alloc, ok := topo.AllocatorNode()
	if !ok {
		t.Fatal("test fabric has no allocator host")
	}
	srv, err := New(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var fabric, uplink []topology.LinkID
	for _, l := range topo.Links() {
		if l.Src == alloc || l.Dst == alloc {
			uplink = append(uplink, l.ID)
		} else {
			fabric = append(fabric, l.ID)
		}
	}
	if len(uplink) == 0 {
		t.Fatal("test fabric has no allocator uplinks")
	}
	if err := srv.SetLinkCapacity(fabric[0], 1e9); err != nil {
		t.Errorf("fabric link %d: %v", fabric[0], err)
	}
	for _, l := range uplink {
		if err := srv.SetLinkCapacity(l, 1e9); err == nil {
			t.Errorf("allocator uplink %d accepted a capacity", l)
		}
	}
}
