package server

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/wire"
)

// namesBothVersions reports whether a refusal error says which generation the
// other side announced and which one this daemon speaks.
func namesBothVersions(err error, theirs uint16) bool {
	return err != nil &&
		strings.Contains(err.Error(), fmt.Sprintf("v%d,", theirs)) &&
		strings.Contains(err.Error(), fmt.Sprintf("speaks v%d", wire.Version))
}

// refusedHandshake sends one handshake frame to srv on a fresh connection and
// returns the single frame the daemon answers with before it hangs up, plus
// the reason ServeConn gives for ending the connection.
func refusedHandshake(t *testing.T, srv *Server, frame []byte) (wire.MsgType, []byte, error) {
	t.Helper()
	conn, in := net.Pipe()
	defer conn.Close()
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeConn(in) }()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	sc := wire.NewScanner(conn)
	typ, payload, err := sc.Next()
	if err != nil {
		t.Fatalf("refused side read %v; want the daemon's own handshake frame first", err)
	}
	payload = append([]byte(nil), payload...)
	if _, _, err := sc.Next(); err != io.EOF {
		t.Fatalf("after the refusal frame: %v; want EOF", err)
	}
	return typ, payload, <-errc
}

// TestHandshakeRefusesOtherVersions: v4 is the only generation a daemon
// speaks. A Hello or PeerHello announcing anything else — older, newer, or the
// never-valid 0 — is answered with the daemon's own handshake frame (so the
// refused side can name both versions) and the connection closed, with no
// session or peer registered; a PeerHello reply of another generation fails
// ConnectPeer the same way. A v4 client on the same daemon never notices.
func TestHandshakeRefusesOtherVersions(t *testing.T) {
	srv, err := New(Config{Topology: clusterTopo(t), NumShards: 2, ShardIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	good := pipeClient(t, srv, 1)
	if err := good.FlowletStart(1, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if ups, err := good.Step(); err != nil || len(ups) != 1 {
		t.Fatalf("v4 client's first step: %v, %v", ups, err)
	}

	for _, v := range []uint16{0, 1, 2, 3, wire.Version + 1} {
		t.Run(fmt.Sprintf("hello v%d", v), func(t *testing.T) {
			typ, payload, err := refusedHandshake(t, srv, wire.AppendHello(nil, wire.Hello{Version: v, ClientID: 9}))
			w, derr := wire.DecodeWelcome(payload)
			if typ != wire.TypeWelcome || derr != nil || w.Version != wire.Version {
				t.Fatalf("refusal frame = %s %+v (%v); want a Welcome carrying v%d", typ, w, derr, wire.Version)
			}
			if !namesBothVersions(err, v) {
				t.Fatalf("ServeConn ended with %v; want both versions named", err)
			}
		})
		t.Run(fmt.Sprintf("peer-hello v%d", v), func(t *testing.T) {
			hello := wire.PeerHello{Version: v, Shard: 1, NumShards: 2, Epoch: 1}
			typ, payload, err := refusedHandshake(t, srv, wire.AppendPeerHello(nil, hello))
			reply, derr := wire.DecodePeerHello(payload)
			if typ != wire.TypePeerHello || derr != nil || reply.Version != wire.Version {
				t.Fatalf("refusal frame = %s %+v (%v); want a PeerHello carrying v%d", typ, reply, derr, wire.Version)
			}
			if !namesBothVersions(err, v) {
				t.Fatalf("ServeConn ended with %v; want both versions named", err)
			}
		})
		t.Run(fmt.Sprintf("peer-hello reply v%d", v), func(t *testing.T) {
			out, acceptor := net.Pipe()
			defer acceptor.Close()
			go func() {
				if _, _, err := wire.NewScanner(acceptor).Next(); err != nil {
					return
				}
				acceptor.Write(wire.AppendPeerHello(nil, wire.PeerHello{Version: v, Shard: 1, NumShards: 2, Epoch: 1}))
			}()
			if _, err := srv.ConnectPeer(out); !namesBothVersions(err, v) {
				t.Fatalf("ConnectPeer = %v; want both versions named", err)
			}
			if srv.HasPeer(1) {
				t.Fatal("a peer of another generation was attached")
			}
		})
	}

	if st := srv.Stats(); st.SessionsAccepted != 1 || st.SessionsActive != 1 {
		t.Fatalf("stats after the refusals = %+v; want only the v4 session", st)
	}
	if err := good.FlowletStart(2, 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := good.Step(); err != nil {
		t.Fatalf("v4 client after the refusals: %v", err)
	}
	if n := srv.NumFlows(); n != 2 {
		t.Fatalf("daemon holds %d flows; want the v4 client's 2", n)
	}
}

// TestPeerConnectionRefusesFixedSnapshot: the fixed PriceSnapshot frame is the
// on-disk snapshot format only. Pushed on a live peer connection — what a v3
// peer's exchange bundle ended with — it ends that connection.
func TestPeerConnectionRefusesFixedSnapshot(t *testing.T) {
	srv, err := New(Config{Topology: clusterTopo(t), NumShards: 2, ShardIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer, in := net.Pipe()
	defer peer.Close()
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeConn(in) }()
	hello := wire.AppendPeerHello(nil, wire.PeerHello{Version: wire.Version, Shard: 1, NumShards: 2, Epoch: 1})
	if _, err := peer.Write(hello); err != nil {
		t.Fatal(err)
	}
	sc := wire.NewScanner(peer)
	if typ, _, err := sc.Next(); err != nil || typ != wire.TypePeerHello {
		t.Fatalf("peer handshake reply: %s, %v", typ, err)
	}
	snap := wire.AppendPriceSnapshotHeader(nil, 1, 1, 1, 1)
	snap = wire.AppendSnapshotEntry(snap, wire.SnapshotEntry{Link: 0, Price: 1})
	if _, err := peer.Write(snap); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "unexpected price-snapshot") {
		t.Fatalf("peer session ended with %v; want an unexpected-frame error", err)
	}
	if _, _, err := sc.Next(); err != io.EOF {
		t.Fatalf("peer connection after the snapshot: %v; want EOF (no ack)", err)
	}
}
