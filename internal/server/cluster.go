package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// This file is the shell around the exchange (exchange.go): the peer
// connections, the handshake, the ack-fenced push and heartbeat staleness.

// shardState is a sharded daemon's exchange and the shell state around it.
type shardState struct {
	// exchange is the sharded state proper, guarded by s.mu.
	exchange

	// conns holds the outbound connection to each daemon, nil while none is
	// attached. Guarded by s.mu.
	conns []*peerConn
	// hbGrace declares a silent peer dead (Config.HeartbeatTimeout).
	hbGrace time.Duration

	// qmu guards inbox, the decoded peer frames awaiting the next fold;
	// heard, the last time any frame arrived from each daemon (zero: never
	// heard from); and refused, the frames the readers turned away (wrong
	// sender, older epoch), which Stats adds to PeerRejected. Peer readers
	// take only qmu, so no ack waits on an iteration.
	qmu     sync.Mutex
	inbox   []exchangeMsg
	heard   []time.Time
	refused int64

	// sendMu serializes whole fold → iterate → push sequences so peers
	// observe bundles in iteration order. The lock order is wmu → sendMu →
	// s.mu → qmu, and no holder of s.mu blocks on a socket: the build runs
	// under s.mu, the push after it is released, and a peer reader acks
	// after taking only qmu, so two shards pushing to each other cannot
	// deadlock.
	sendMu sync.Mutex
}

// newShardState validates the sharded configuration and prepares the
// exchange state.
func newShardState(cfg Config) (*shardState, error) {
	x, err := newExchange(cfg)
	if err != nil {
		return nil, err
	}
	return &shardState{
		exchange: x,
		conns:    make([]*peerConn, cfg.NumShards),
		heard:    make([]time.Time, cfg.NumShards),
		hbGrace:  cfg.HeartbeatTimeout,
	}, nil
}

// peerConn is one outbound shard-to-shard connection; this daemon pushes its
// exchange bundles on it and reads acks back. buf, seq and acks are only
// touched under sendMu.
type peerConn struct {
	shard int
	conn  net.Conn
	sc    *wire.Scanner
	// buf is the bundle built for the pending push, seq its iteration and
	// acks the number of ExchangeAcks it will produce.
	buf  []byte
	seq  uint64
	acks int
}

// peerExchangeTimeout bounds one bundle push (write + acks): a peer that is
// wedged — alive at the TCP level but not draining — must not stall the
// shard's allocation loop, so past this deadline it is dropped like a dead
// one and the shard keeps iterating on its last imported boundary state.
const peerExchangeTimeout = 2 * time.Second

// foldLocked runs the exchange's part of an iteration boundary, ahead of the
// loop's fold: peer bundles in, then deaths. Free-running daemons also
// declare peers dead on heartbeat staleness; step-driven ones rely on push
// failures alone so runs stay deterministic. Called with s.mu and sendMu
// held.
func (st *shardState) foldLocked(l *loop) {
	st.qmu.Lock()
	for _, m := range st.inbox {
		st.queue(m)
	}
	clear(st.inbox)
	st.inbox = st.inbox[:0]
	if st.takeover && !st.stepDriven && st.hbGrace > 0 {
		now := time.Now()
		for d, t := range st.heard {
			if !t.IsZero() && now.Sub(t) > st.hbGrace {
				st.peers[d].deathPending = true
			}
		}
	}
	st.qmu.Unlock()
	st.fold(l)
	if st.takeover {
		st.deaths(l)
	}
}

// ---------------------------------------------------------------------------
// Outbound: dialing peers and pushing bundles.

// ConnectPeer attaches an outbound shard-to-shard connection: it performs
// the symmetric PeerHello handshake over conn and, on success, pushes this
// daemon's exchange bundle to that peer after every iteration, returning the
// peer's shard index (so dialers can monitor it with HasPeer and redial).
// The caller supplies the transport (TCP for real clusters, a net.Pipe end
// for in-process ones); serving the *inbound* direction is the remote
// daemon's job (its ServeConn recognizes the PeerHello). Reconnecting an
// already connected shard replaces the previous connection.
func (s *Server) ConnectPeer(conn net.Conn) (int, error) {
	if s.shard == nil {
		conn.Close()
		return -1, fmt.Errorf("server: ConnectPeer on an unsharded daemon")
	}
	hello := wire.AppendPeerHello(nil, wire.PeerHello{
		Version:   wire.Version,
		Shard:     uint32(s.cfg.ShardIndex),
		NumShards: uint32(s.cfg.NumShards),
		Epoch:     s.Epoch(),
	})
	// Bound the whole handshake: a peer that accepts TCP but never replies
	// (wrong service, frozen daemon) must fail the dial attempt, not wedge
	// the dial-with-retry loop forever.
	if err := conn.SetDeadline(time.Now().Add(peerExchangeTimeout)); err != nil {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: %w", err)
	}
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: %w", err)
	}
	sc := wire.NewScanner(conn)
	typ, payload, err := sc.Next()
	if err != nil {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: %w", err)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: %w", err)
	}
	if typ != wire.TypePeerHello {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: expected peer-hello, got %s", typ)
	}
	reply, err := wire.DecodePeerHello(payload)
	if err != nil {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: %w", err)
	}
	if err := s.shard.validatePeer(reply); err != nil {
		conn.Close()
		return -1, err
	}
	pc := &peerConn{shard: int(reply.Shard), conn: conn, sc: sc}
	// The closed check shares the hold that stores the connection, so Close
	// either finds it among the conns it closes or it is refused here.
	s.mu.Lock()
	if s.Closed() {
		s.mu.Unlock()
		conn.Close()
		return -1, net.ErrClosed
	}
	old := s.shard.conns[pc.shard]
	s.shard.conns[pc.shard] = pc
	s.shard.peers[pc.shard].needReset = true
	s.mu.Unlock()
	if old != nil {
		old.conn.Close()
	}
	s.log("peer shard %d connected (epoch %d)", pc.shard, reply.Epoch)
	return pc.shard, nil
}

// HasPeer reports whether an outbound connection to the given shard is
// currently attached; dial loops poll it to detect a dropped peer and
// redial.
func (s *Server) HasPeer(shard int) bool {
	if s.shard == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return shard >= 0 && shard < len(s.shard.conns) && s.shard.conns[shard] != nil
}

// validatePeer checks a PeerHello — an inbound one or the reply to ours —
// against this daemon's protocol generation and cluster shape.
func (x *exchange) validatePeer(h wire.PeerHello) error {
	switch {
	case h.Version != wire.Version:
		return fmt.Errorf("server: peer shard %d speaks protocol v%d, daemon speaks v%d", h.Shard, h.Version, wire.Version)
	case int(h.NumShards) != x.smap.NumShards():
		return fmt.Errorf("server: peer believes in %d shards, this cluster has %d", h.NumShards, x.smap.NumShards())
	case int(h.Shard) >= x.smap.NumShards():
		return fmt.Errorf("server: peer shard %d out of range for %d shards", h.Shard, x.smap.NumShards())
	case int(h.Shard) == x.index:
		return fmt.Errorf("server: peer claims this daemon's own shard %d", h.Shard)
	}
	return nil
}

// Peers returns the shard indices of the currently connected outbound peers,
// sorted.
func (s *Server) Peers() []int {
	if s.shard == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for shard, pc := range s.shard.conns {
		if pc != nil {
			out = append(out, shard)
		}
	}
	return out
}

// buildLocked encodes this iteration's bundle for every connected peer and
// returns the peers to push to, in shard order. Called with s.mu and sendMu
// held.
func (st *shardState) buildLocked(l *loop, seq, epoch uint64) []*peerConn {
	var peers []*peerConn
	for _, pc := range st.conns {
		if pc == nil {
			continue
		}
		if len(peers) == 0 {
			st.prepare(l)
		}
		pc.buf, pc.acks = st.build(pc.buf[:0], l, pc.shard, seq, epoch)
		pc.seq = seq
		peers = append(peers, pc)
	}
	return peers
}

// sendExchange pushes the prepared bundles, dropping each peer whose push
// fails; the shard keeps iterating with its last imported state until the
// operator reconnects it. Called with sendMu held and s.mu released.
func (s *Server) sendExchange(peers []*peerConn) {
	for _, pc := range peers {
		if err := pc.push(); err != nil {
			s.dropPeer(pc, err)
		}
	}
}

// push writes one prepared bundle and waits for its acks (one per snapshot
// chunk, each echoing the bundle's sequence number), which the receiver
// sends from its reader goroutine, never from its own iteration path (see
// sendMu). The deadline bounds the whole push: a wedged peer (alive but not
// draining) is dropped at it instead of freezing the allocation loop.
func (pc *peerConn) push() error {
	if err := pc.conn.SetDeadline(time.Now().Add(peerExchangeTimeout)); err != nil {
		return err
	}
	if _, err := pc.conn.Write(pc.buf); err != nil {
		return err
	}
	for i := 0; i < pc.acks; i++ {
		typ, payload, err := pc.sc.Next()
		if err != nil {
			return err
		}
		if typ != wire.TypeExchangeAck {
			return fmt.Errorf("unexpected %s frame", typ)
		}
		seq, err := wire.DecodeExchangeAck(payload)
		if err != nil || seq != pc.seq {
			return fmt.Errorf("bad exchange ack (seq %d, want %d): %v", seq, pc.seq, err)
		}
	}
	return pc.conn.SetDeadline(time.Time{})
}

// dropPeer detaches a failed outbound peer connection. With takeover
// enabled a failed push is the death signal: the peer is queued for
// processing at the next iteration boundary, where this daemon either
// adopts its rack block (if it is the successor) or just records the death.
// Keeping detection on the synchronous push path — never on asynchronous
// inbound EOFs — is what keeps step-driven cluster runs deterministic. A
// connection that ConnectPeer has already replaced signals nothing: the peer
// answered the new handshake, and ConnectPeer closing the old connection is
// what failed the push.
func (s *Server) dropPeer(pc *peerConn, err error) {
	pc.conn.Close()
	st := s.shard
	s.mu.Lock()
	attached := st.conns[pc.shard] == pc
	if attached {
		st.conns[pc.shard] = nil
	}
	closed := s.Closed()
	if !closed && attached && st.takeover {
		st.peers[pc.shard].deathPending = true
	}
	s.mu.Unlock()
	if !closed {
		s.log("peer shard %d dropped: %v", pc.shard, err)
	}
}

// ---------------------------------------------------------------------------
// Inbound: serving peer sessions.

// servePeer runs one inbound shard-to-shard session: it completes the
// symmetric handshake, then hands every frame to the exchange for the next
// iteration boundary, acknowledging each bundle as its snapshot arrives.
func (s *Server) servePeer(conn net.Conn, sc *wire.Scanner, payload []byte) error {
	if s.shard == nil {
		return fmt.Errorf("server: peer hello on an unsharded daemon")
	}
	hello, err := wire.DecodePeerHello(payload)
	if err != nil {
		return fmt.Errorf("server: peer handshake: %w", err)
	}
	reply := wire.AppendPeerHello(nil, wire.PeerHello{
		Version:   wire.Version,
		Shard:     uint32(s.cfg.ShardIndex),
		NumShards: uint32(s.cfg.NumShards),
		Epoch:     s.Epoch(),
	})
	if err := s.shard.validatePeer(hello); err != nil {
		if hello.Version != wire.Version {
			// The reply names the version this daemon speaks, so the refused
			// dialer reports the mismatch instead of a bare EOF.
			refuse(conn, reply)
		}
		return err
	}
	if _, err := conn.Write(reply); err != nil {
		return fmt.Errorf("server: peer handshake: %w", err)
	}
	s.log("peer shard %d session from %v (epoch %d)", hello.Shard, conn.RemoteAddr(), hello.Epoch)

	var dec peerDecoder
	var buf []byte
	for {
		typ, payload, err := sc.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
		}
		m, err := dec.decode(hello.Shard, hello.Epoch, typ, payload)
		if err != nil {
			return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
		}
		s.shard.qmu.Lock()
		s.shard.heard[hello.Shard] = time.Now()
		switch {
		case m.kind == msgRefused:
			s.shard.refused++
		case m.kind > msgRefused:
			s.shard.inbox = append(s.shard.inbox, m)
		}
		s.shard.qmu.Unlock()
		if typ == wire.TypePriceSnapshotDelta {
			buf = wire.AppendExchangeAck(buf[:0], m.seq)
			if _, err := conn.Write(buf); err != nil {
				return fmt.Errorf("server: peer shard %d: ack: %w", hello.Shard, err)
			}
		}
	}
}

// ServesShard reports whether this daemon currently serves the given shard:
// its own from the start, others after adopting them. Clients use it to
// decide where to re-register a dead shard's flows.
func (s *Server) ServesShard(shard int) bool {
	if s.shard == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return shard >= 0 && shard < len(s.shard.servedBy) && s.shard.servedBy[shard] == int32(s.shard.index)
}
