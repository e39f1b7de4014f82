package server

import (
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// startWatchedDaemon is startPipeDaemon plus the session's exit error, which
// the hardening tests assert on.
func startWatchedDaemon(t *testing.T, cfg Config) (*Server, *transport.AllocClient, <-chan error) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	clientEnd, serverEnd := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeConn(serverEnd) }()
	cli, err := transport.NewAllocClient(clientEnd, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli, errc
}

// TestMaxSessionFlowsRejectsExcessAdds pins the per-session flow cap: adds
// beyond MaxSessionFlows are dropped at the fold and counted, and ending a
// flow frees a slot.
func TestMaxSessionFlowsRejectsExcessAdds(t *testing.T) {
	topo := testTopology(t)
	srv, cli, _ := startWatchedDaemon(t, Config{Topology: topo, MaxSessionFlows: 2})
	for id := int64(1); id <= 3; id++ {
		if err := cli.FlowletStart(core.FlowID(id), 0, int(id), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if got := srv.NumFlows(); got != 2 {
		t.Fatalf("NumFlows = %d, want 2 (third add over the limit)", got)
	}
	if st := srv.Stats(); st.LimitedAdds != 1 {
		t.Fatalf("LimitedAdds = %d, want 1", st.LimitedAdds)
	}
	// Retiring one flow makes room for the next add.
	if err := cli.FlowletEnd(core.FlowID(1)); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlowletStart(core.FlowID(4), 0, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if got := srv.NumFlows(); got != 2 {
		t.Fatalf("NumFlows after retire+add = %d, want 2", got)
	}
	if !srv.hasFlow(core.FlowID(4)) {
		t.Fatal("post-retire add was not accepted")
	}
}

// hasFlow checks allocator registration (test helper).
func (s *Server) hasFlow(id core.FlowID) bool {
	_, ok := s.Rates()[id]
	return ok
}

// TestMaxFrameRateDisconnectsBlaster pins the frame-rate limit: a session
// blasting frames far above MaxFrameRate is disconnected with a telling
// error.
func TestMaxFrameRateDisconnectsBlaster(t *testing.T) {
	topo := testTopology(t)
	_, cli, errc := startWatchedDaemon(t, Config{Topology: topo, MaxFrameRate: 20})
	// 200 frames arrive within well under a second: the bucket (20 tokens)
	// must run dry and the daemon must cut the session.
	var buf []byte
	for id := int64(1); id <= 200; id++ {
		buf = wire.AppendFlowletEnd(buf[:0], wire.FlowletEnd{Flow: id})
		if _, err := cli.Conn().Write(buf); err != nil {
			break // daemon already closed the pipe — that is the point
		}
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "frame rate") {
			t.Fatalf("session ended with %v, want frame-rate error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blasting session was not disconnected")
	}
}

// TestSubUnitFrameRateAllowsFirstFrame pins the burst floor: a rate below
// one frame per second must throttle, not disconnect every client on its
// first frame.
func TestSubUnitFrameRateAllowsFirstFrame(t *testing.T) {
	topo := testTopology(t)
	srv, cli, _ := startWatchedDaemon(t, Config{Topology: topo, MaxFrameRate: 0.5})
	if err := cli.FlowletStart(core.FlowID(1), 0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	// Give the daemon time to fold the frame; the session must survive it.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().EventsReceived == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first frame never accepted under sub-1 frame rate")
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.SessionsActive != 1 {
		t.Fatalf("session dropped on its first frame: %+v", st)
	}
}

// TestIdleTimeoutCoversHandshake pins the pre-handshake deadline: a
// connection that never sends a Hello is shed too.
func TestIdleTimeoutCoversHandshake(t *testing.T) {
	topo := testTopology(t)
	srv, err := New(Config{Topology: topo, IdleTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeConn(serverEnd) }()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "handshake") {
			t.Fatalf("pre-handshake session ended with %v, want handshake timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent pre-handshake connection was not shed")
	}
}

// TestIdleTimeoutDisconnectsSilentSession pins the idle timeout: a session
// that goes quiet is shed.
func TestIdleTimeoutDisconnectsSilentSession(t *testing.T) {
	topo := testTopology(t)
	srv, _, errc := startWatchedDaemon(t, Config{Topology: topo, IdleTimeout: 50 * time.Millisecond})
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "idle") {
			t.Fatalf("session ended with %v, want idle-timeout error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle session was not disconnected")
	}
	// The session's (zero) flows were cleaned up and the daemon keeps
	// serving new sessions.
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	cli, err := transport.NewAllocClient(clientEnd, 8)
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
}

// TestRejectsInvalidLimits pins config validation. Each numeric bound is
// written so that a NaN, which compares false both ways, fails it.
func TestRejectsInvalidLimits(t *testing.T) {
	topo := testTopology(t)
	nan, inf := math.NaN(), math.Inf(1)
	for _, cfg := range []Config{
		{Topology: topo, MaxSessionFlows: -1},
		{Topology: topo, MaxFrameRate: -0.5},
		{Topology: topo, MaxFrameRate: nan},
		{Topology: topo, MaxFrameRate: inf},
		{Topology: topo, IdleTimeout: -time.Second},
		{Topology: topo, Gamma: -1},
		{Topology: topo, Gamma: nan},
		{Topology: topo, Gamma: inf},
		{Topology: topo, UpdateThreshold: nan},
		{Topology: topo, UpdateThreshold: 1},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestBumpEpochNotifiesClient pins the epoch-change push: a live client
// learns the new epoch without writing anything, and reacts by reconnecting.
func TestBumpEpochNotifiesClient(t *testing.T) {
	topo := testTopology(t)
	srv, cli, _ := startWatchedDaemon(t, Config{Topology: topo})
	if err := cli.FlowletStart(core.FlowID(1), 0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if err := srv.BumpEpoch(9); err != nil {
		t.Fatal(err)
	}
	_, _, err := cli.Recv(2 * time.Second)
	if !errors.Is(err, transport.ErrEpochChanged) {
		t.Fatalf("Recv after bump = %v, want ErrEpochChanged", err)
	}
	if cli.Epoch() != 9 {
		t.Fatalf("client epoch = %d, want 9", cli.Epoch())
	}
	if srv.Epoch() != 9 {
		t.Fatalf("server epoch = %d, want 9", srv.Epoch())
	}
	// A non-advancing bump is refused.
	if err := srv.BumpEpoch(9); err == nil {
		t.Fatal("BumpEpoch(9) twice must fail")
	}
	// The documented reaction: reconnect and re-register, after which the
	// daemon still allocates the flow.
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	if err := cli.Reconnect(clientEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}
	if got := srv.NumFlows(); got != 1 {
		t.Fatalf("NumFlows after reconnect = %d, want 1", got)
	}
}

// TestNonFiniteWeightRejected pins the admission rule at the daemon's edge: a
// FlowletAdd frame's weight is outside input, and one NaN used to turn every
// rate on the flow's links into NaN for good. The allocator (at any block
// count) refuses it, the daemon counts the refusal, and the flows sharing the
// link keep finite rates.
func TestNonFiniteWeightRejected(t *testing.T) {
	topo := testTopology(t)
	for name, blocks := range map[string]int{"default": 0, "parallel": 2} {
		t.Run(name, func(t *testing.T) {
			srv, cli, _ := startWatchedDaemon(t, Config{Topology: topo, Blocks: blocks})
			for id, weight := range map[core.FlowID]float64{1: 1, 2: 1, 3: math.NaN()} {
				if err := cli.FlowletStart(id, int(id), 9, weight); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				if _, err := cli.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if st := srv.Stats(); st.RejectedAdds != 1 {
				t.Fatalf("RejectedAdds = %d, want 1", st.RejectedAdds)
			}
			rates := srv.Rates()
			if len(rates) != 2 {
				t.Fatalf("rates %v, want flows 1 and 2 only", rates)
			}
			for id, r := range rates {
				if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
					t.Errorf("flow %d rate %v", id, r)
				}
			}
		})
	}
}
