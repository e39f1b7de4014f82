package transport

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// deadlineConn records the deadline last set on the connection.
type deadlineConn struct {
	net.Conn
	deadline time.Time
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	c.deadline = t
	return c.Conn.SetDeadline(t)
}

// answerHello plays a daemon that reads the Hello and replies with the given
// Welcome.
func answerHello(t *testing.T, daemon net.Conn, w wire.Welcome) {
	t.Helper()
	go func() {
		if typ, _, err := wire.NewScanner(daemon).Next(); err != nil || typ != wire.TypeHello {
			t.Errorf("daemon side read %s, %v; want a hello", typ, err)
			return
		}
		daemon.Write(wire.AppendWelcome(nil, w))
	}()
}

// TestClientRefusesOtherVersionWelcome: the client speaks one generation. A
// Welcome carrying another — what a daemon of that generation sends before it
// closes — fails the handshake with both versions named.
func TestClientRefusesOtherVersionWelcome(t *testing.T) {
	client, daemon := net.Pipe()
	defer client.Close()
	defer daemon.Close()
	answerHello(t, daemon, wire.Welcome{Version: 3, Epoch: 1})
	_, err := NewAllocClient(client, 1)
	if err == nil || !strings.Contains(err.Error(), "daemon speaks protocol v3, client supports v4") {
		t.Fatalf("NewAllocClient = %v; want the version mismatch named", err)
	}
}

// TestClientHandshakeDeadline: the Hello/Welcome exchange is bounded, and the
// bound is lifted once it completes — a session may then sit idle for as long
// as it likes.
func TestClientHandshakeDeadline(t *testing.T) {
	// A daemon that accepts TCP and never answers fails the dial.
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
	done := make(chan error, 1)
	go func() {
		_, err := DialAlloc(ln.Addr().String(), 1)
		done <- err
	}()
	select {
	case err := <-done:
		var ne net.Error
		if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("DialAlloc against a silent daemon = %v; want a timeout", err)
		}
	case <-time.After(handshakeTimeout + 5*time.Second):
		t.Fatal("DialAlloc wedged past the handshake deadline")
	}

	// A daemon that answers leaves the connection without a deadline.
	client, daemon := net.Pipe()
	defer daemon.Close()
	answerHello(t, daemon, wire.Welcome{Version: wire.Version, Epoch: 1})
	conn := &deadlineConn{Conn: client}
	cli, err := NewAllocClient(conn, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if !conn.deadline.IsZero() {
		t.Fatalf("handshake left deadline %v on the connection", conn.deadline)
	}
}
