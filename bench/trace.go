package main

import (
	"net"
	"sync/atomic"
	"time"
)

// spanClock is the traced pass's only instrument: four timestamps taken by
// net.Conn wrappers on the two ends of the daemon's TCP connection, all on
// one monotonic clock because daemon and harness share a process. Together
// with the harness's own call-entry and call-return times they cut one
// round trip into five nested spans:
//
//	call entry → cliWrite   transport.encode   (AllocClient buffering + framing)
//	cliWrite   → srvRead    socket.up          (kernel, loopback, reader wake-up)
//	srvRead    → srvWrite   server.turnaround  (decode, inbox, tick wait, iterate, filter, encode)
//	srvWrite   → cliRead    socket.down
//	cliRead    → call return transport.decode
//
// Nothing inside the daemon is touched; stage timers inside the loop are a
// later change that will reuse these names.
type spanClock struct {
	// on gates the timestamping so one traced run can interleave untraced
	// slices: the p50 difference between the two is trace.overhead_share.
	on   atomic.Bool
	base time.Time

	cliWrite atomic.Int64 // entry of the client's last Write
	srvRead  atomic.Int64 // return of the server's first Read after cliWrite
	srvWrite atomic.Int64 // entry of the server's last Write
	cliRead  atomic.Int64 // return of the client's first Read after srvWrite
}

func newSpanClock() *spanClock { return &spanClock{base: time.Now()} }

// now is nanoseconds since the clock was made; never 0 in practice, so 0 can
// mean "not yet seen".
func (k *spanClock) now() int64 { return int64(time.Since(k.base)) }

// clientConn is handed to transport.NewAllocClient.
type clientConn struct {
	net.Conn
	k *spanClock
}

func (c clientConn) Write(p []byte) (int, error) {
	if c.k.on.Load() {
		c.k.cliWrite.Store(c.k.now())
		c.k.srvRead.Store(0)
	}
	return c.Conn.Write(p)
}

func (c clientConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.k.on.Load() && c.k.cliRead.Load() == 0 {
		c.k.cliRead.Store(c.k.now())
	}
	return n, err
}

// serverConn is handed to Server.ServeConn.
type serverConn struct {
	net.Conn
	k *spanClock
}

func (c serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.k.on.Load() && c.k.srvRead.Load() == 0 {
		c.k.srvRead.Store(c.k.now())
	}
	return n, err
}

func (c serverConn) Write(p []byte) (int, error) {
	if c.k.on.Load() {
		c.k.srvWrite.Store(c.k.now())
		c.k.cliRead.Store(0)
	}
	return c.Conn.Write(p)
}

// spans is one traced round trip cut at the four wrapper timestamps, in ns,
// in the order of the span* constants.
type spans [5]int64

const (
	spanEncode = iota
	spanUp
	spanTurnaround
	spanDown
	spanDecode
)

// cut splits the round trip [entry, ret] at the clock's current timestamps.
// ok is false when the timestamps do not nest (a frame other than the probe's
// moved one of them), in which case the sample is dropped and counted.
func (k *spanClock) cut(entry, ret int64) (s spans, ok bool) {
	t1, t2, t3, t4 := k.cliWrite.Load(), k.srvRead.Load(), k.srvWrite.Load(), k.cliRead.Load()
	if !(entry <= t1 && t1 <= t2 && t2 <= t3 && t3 <= t4 && t4 <= ret) {
		return spans{}, false
	}
	return spans{t1 - entry, t2 - t1, t3 - t2, t4 - t3, ret - t4}, true
}
