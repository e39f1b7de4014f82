package server

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Config configures a flowtuned daemon.
type Config struct {
	// Topology is the fabric the allocator schedules. Required.
	Topology *topology.Topology
	// Gamma is NED's step size (default 0.4, matching the in-process
	// allocator).
	Gamma float64
	// UpdateThreshold is the relative rate-change notification threshold
	// (default 0.01). The same fraction of link capacity is withheld as
	// headroom, mirroring core.Config.
	UpdateThreshold float64
	// Interval is the longest gap between a free-running daemon's
	// iterations; arrivals iterate at once. A positive value starts the
	// loop goroutine: it iterates as soon as a session publishes a burst
	// of flowlet events, and otherwise every Interval, the idle cadence
	// that keeps the optimizer converging between arrivals. Zero disables
	// the loop: iterations then run only when a client sends a Step frame,
	// which is what deterministic end-to-end runs use. Negative is an error.
	Interval time.Duration
	// Blocks is the rack-block count of the daemon's FlowBlock/LinkBlock
	// allocator (default 1): Blocks² FlowBlocks run on min(Blocks²,
	// GOMAXPROCS) workers, the loop's own goroutine being one. More than one
	// block needs a power of two dividing the rack count of a two-tier
	// fabric; one block runs any fabric. It composes with NumShards: a
	// multi-block shard spans cores while exchanging boundary prices with
	// its peers.
	Blocks int
	// Epoch identifies this allocator generation in the Hello/Welcome
	// handshake (default 1). Restarting operators should bump it so
	// endpoints re-register their flowlets.
	Epoch uint64
	// Logf, when set, receives daemon log lines.
	Logf func(format string, args ...any)

	// MaxSessionFlows caps the number of live flowlets one session may
	// register (0 = unlimited). Adds beyond the cap are dropped at the
	// iteration boundary and counted in Stats.LimitedAdds, so one buggy
	// or hostile endpoint cannot grow the optimizer without bound.
	MaxSessionFlows int
	// MaxFrameRate caps the sustained frame rate of one session in frames
	// per second (0 = unlimited), with a one-second burst allowance. A
	// session exceeding it is disconnected.
	MaxFrameRate float64
	// IdleTimeout disconnects a session that has sent no frame for this
	// long (0 = never). Free-running daemons use it to shed endpoints
	// that died without closing their connection.
	IdleTimeout time.Duration

	// NumShards enables sharded cluster operation: this daemon owns shard
	// ShardIndex of a NumShards-way rack partition of Topology (see
	// topology.ShardMap), accepts only flowlets whose source servers it
	// owns, and exchanges boundary prices with its peers (Server.ConnectPeer)
	// at every iteration boundary. 0 runs the daemon unsharded.
	NumShards int
	// ShardIndex is this daemon's shard in [0, NumShards).
	ShardIndex int

	// Takeover enables peer-detected shard failover in a sharded cluster:
	// every iteration the daemon replicates its flow state to its successor
	// (the next live shard index), and when a peer daemon dies — its
	// exchange push fails, or (free-running) its heartbeats go stale past
	// HeartbeatTimeout — the dead daemon's successor adopts the orphaned
	// rack block, seeded from the replica and last price snapshot it holds,
	// and announces the takeover to the surviving peers.
	Takeover bool
	// HeartbeatTimeout declares a peer dead when no frame has arrived from
	// it for this long. It only applies to free-running daemons
	// (Interval > 0): step-driven runs detect death solely through the
	// synchronous exchange push, which keeps them deterministic. 0 disables
	// staleness detection; negative is an error.
	HeartbeatTimeout time.Duration
}

// Stats is the daemon's counter record. Every event is counted once, in the
// record the control loop keeps under its lock; Server.Stats returns a copy.
type Stats struct {
	// SessionsAccepted counts handshakes completed; SessionsActive is the
	// current session count.
	SessionsAccepted int64
	SessionsActive   int64
	// EventsReceived counts FlowletAdd/FlowletEnd frames accepted into
	// the inbox.
	EventsReceived int64
	// ArrivalIterations counts the free-running iterations a published
	// burst of flowlet events triggered, as opposed to the Interval ticker;
	// LoopStats().Iterations counts both kinds (and Step-driven ones).
	ArrivalIterations int64
	// DuplicateAdds and UnknownEnds count events dropped at the
	// iteration boundary because the flow was already (or not)
	// registered; RejectedAdds count adds the allocator refused (bad route,
	// non-finite weight).
	DuplicateAdds int64
	UnknownEnds   int64
	RejectedAdds  int64
	// UpdatesSent counts rate-update entries written to clients;
	// UpdatesCoalesced counts updates overwritten by a newer rate before
	// a slow client drained them (the backpressure policy); BatchesSent
	// counts RateDelta frames.
	UpdatesSent      int64
	UpdatesCoalesced int64
	BatchesSent      int64
	// LimitedAdds counts adds dropped because the session hit
	// Config.MaxSessionFlows.
	LimitedAdds int64
	// PeerRejected counts peer frames or entries dropped as invalid (wrong
	// owner, unknown link, stale epoch).
	PeerRejected int64
	// AdoptedFlows counts flowlets whose ownership was transferred without
	// allocator churn: restored (or replica-seeded) flows claimed by a
	// reconnecting client's re-registration.
	AdoptedFlows int64
	// Takeovers counts dead peer shards this daemon adopted.
	Takeovers int64
	// DrainRejects counts flowlet adds refused because the daemon was
	// draining.
	DrainRejects int64
	// ExchangeFolds counts peer exchange messages folded into an
	// iteration; ExchangeStalenessIters sums, over those folds, this
	// daemon's iteration count at fold time minus the iteration the sender
	// stamped on the message, clamped at zero. On a step-driven cluster the
	// daemons' iteration counts advance together, so
	// ExchangeStalenessIters/ExchangeFolds is how many iterations old a
	// boundary-price bundle is when it takes effect. On a free-running
	// cluster each daemon's count advances at its own pace, so the sum
	// measures how far the counts have drifted apart, which grows with
	// uptime; it is not the bundles' age.
	ExchangeFolds          int64
	ExchangeStalenessIters int64
	// FanoutBytes counts rate-update bytes actually written to clients
	// (RateDelta frames); FanoutBytesFixed counts the bytes the same updates
	// would have cost as fixed-v3 RateBatch frames, so FanoutBytesFixed /
	// FanoutBytes is the fan-out compression ratio.
	FanoutBytes      int64
	FanoutBytesFixed int64
	// ExchangeBytes counts PriceDigestDelta/PriceSnapshotDelta bytes built
	// into peer exchange bundles; ExchangeBytesFixed counts the fixed-v3
	// cost of the same boundary state. Both are accumulated at bundle-build
	// time, so step-driven runs count them deterministically.
	ExchangeBytes      int64
	ExchangeBytesFixed int64
}

// Server is the flowtuned allocator daemon: the shell that runs the control
// loop (loop) and a sharded daemon's exchange under mu and owns everything
// that waits — sockets, session readers and writers, the ticker, iteration
// timing, peer connections.
type Server struct {
	// loop is the control loop's state, guarded by mu, the one loop lock.
	loop

	cfg    Config
	timing *metrics.LoopRecorder

	mu sync.Mutex
	// conns tracks every connection handed to ServeConn, including ones
	// still mid-handshake, so Close can unblock their readers; listeners
	// are the ones handed to Serve.
	conns     map[net.Conn]struct{}
	listeners []net.Listener

	done chan struct{}
	wg   sync.WaitGroup
	// wake tells tickLoop that client flowlet events were published and it
	// should iterate now rather than at the next tick. One slot: bursts
	// that land while an iteration is in flight coalesce into the single
	// next one. Nil on a step-driven daemon (Interval == 0).
	wake chan struct{}

	// telemetry is the optional observability hook (registry series written
	// in the loop plus the convergence flight recorder), nil until
	// RegisterMetrics or AttachFlightRecorder wires it. Guarded by mu.
	telemetry *serverTelemetry

	// shard is the sharded-cluster state, nil for an unsharded daemon.
	shard *shardState
}

// New creates a daemon. The caller owns serving: pass a listener to Serve,
// or individual connections (e.g. net.Pipe ends) to ServeConn.
func New(cfg Config) (*Server, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("server: Config.Topology is required")
	}
	if cfg.UpdateThreshold == 0 {
		cfg.UpdateThreshold = 0.01
	}
	if !(cfg.UpdateThreshold >= 0 && cfg.UpdateThreshold < 1) {
		return nil, fmt.Errorf("server: UpdateThreshold must be in [0,1), got %g", cfg.UpdateThreshold)
	}
	if !(cfg.Gamma >= 0) || math.IsInf(cfg.Gamma, 1) {
		return nil, fmt.Errorf("server: Gamma must be finite and non-negative, got %g", cfg.Gamma)
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.MaxSessionFlows < 0 || !(cfg.MaxFrameRate >= 0) || math.IsInf(cfg.MaxFrameRate, 1) || cfg.IdleTimeout < 0 {
		return nil, fmt.Errorf("server: session limits must be finite and non-negative")
	}
	if cfg.Interval < 0 || cfg.HeartbeatTimeout < 0 {
		return nil, fmt.Errorf("server: Interval and HeartbeatTimeout must be non-negative")
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = 0.4
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = 1
	}
	l, err := newLoop(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		loop:   l,
		cfg:    cfg,
		timing: metrics.NewLoopRecorder(metrics.DefaultLoopWindow),
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
	if cfg.NumShards > 0 {
		s.shard, err = newShardState(cfg)
		if err != nil {
			l.alloc.Close()
			return nil, err
		}
		s.loop.owns = s.shard.ownsFlow
	} else if cfg.NumShards < 0 || cfg.ShardIndex != 0 {
		l.alloc.Close()
		return nil, fmt.Errorf("server: invalid shard configuration %d/%d", cfg.ShardIndex, cfg.NumShards)
	}
	if cfg.Interval > 0 {
		s.wake = make(chan struct{}, 1)
		s.wg.Add(1)
		go s.tickLoop()
	}
	return s, nil
}

// Epoch returns the daemon's allocator epoch, the generation announced in
// handshakes (Config.Epoch).
func (s *Server) Epoch() uint64 { return s.cfg.Epoch }

// NumFlows returns the number of currently registered flowlets.
func (s *Server) NumFlows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loop.alloc.NumFlows()
}

// Iterations returns the number of allocator iterations run so far.
func (s *Server) Iterations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loop.seq
}

// LoopStats returns allocator-loop latency and throughput statistics.
func (s *Server) LoopStats() metrics.LoopStats { return s.timing.Snapshot() }

// Stats returns a snapshot of daemon counters: a copy of the loop's record,
// plus the peer frames the readers refused (counted under qmu, so a reader
// never waits on the loop lock).
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.loop.stats
	if s.shard != nil {
		s.shard.qmu.Lock()
		st.PeerRejected += s.shard.refused
		s.shard.qmu.Unlock()
	}
	return st
}

// SetLinkCapacity changes one fabric link's raw capacity in the daemon's
// allocator. It serializes with the iteration loop under the server mutex, so
// a call between steps of a step-driven daemon lands at an exact iteration
// boundary and the very next Iterate re-prices the link — no allocator
// rebuild, no flow churn. An allocator uplink is in no LinkBlock, so no flow
// crosses it and changing it is an error. Closed daemons reject the call so a
// cluster-wide broadcast can skip dead shards explicitly.
func (s *Server) SetLinkCapacity(l topology.LinkID, capacity float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Closed() {
		return net.ErrClosed
	}
	return s.loop.alloc.SetLinkCapacity(l, capacity)
}

// Rates returns the allocator's current rates keyed by flow ID (a diagnostic
// mirror of core.ParallelAllocator.Rates).
func (s *Server) Rates() map[core.FlowID]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loop.alloc.Rates()
}

// tickLoop is the free-running daemon's only iterator. It iterates on arrival
// — the moment a session publishes a burst of flowlet events (wake), so a
// flowlet start is answered one iteration later, not one tick later — and
// otherwise every cfg.Interval: the ticker is the idle cadence that keeps NED
// converging between arrivals and folds in what never wakes the loop (peer
// exchange bundles, disconnect clean-up sweeps). Because wake has one slot and
// this goroutine is its only consumer, arrival iterations run back to back at
// most, however many sessions publish: the CPU the loop takes is proportional
// to the offered event load, which Config.MaxFrameRate polices per session.
func (s *Server) tickLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		case <-s.wake:
			s.mu.Lock()
			s.loop.stats.ArrivalIterations++
			s.mu.Unlock()
		}
		if err := s.iterate(nil, 0); err != nil && !errors.Is(err, net.ErrClosed) {
			s.log("free-running iteration: %v", err)
		}
	}
}

// Serve accepts sessions from ln until the daemon is closed. It always
// returns a non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.Closed() {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.Closed() {
				return net.ErrClosed
			}
			return err
		}
		// The closed check and wg.Add share the mutex Close closes done
		// under, so an Add can never start while Close is in wg.Wait.
		s.mu.Lock()
		if s.Closed() {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// Close shuts the daemon down: listeners stop accepting, sessions are torn
// down, the ticker stops, and the allocator's workers are released. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.Closed() {
		s.mu.Unlock()
		return nil
	}
	close(s.done)
	// Closing every served conn (sessions and mid-handshake readers alike)
	// unblocks their goroutines so wg.Wait below cannot hang on a silent
	// peer that never completed its Hello; closing the outbound peer conns
	// unblocks any iteration waiting on an exchange ack.
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	if s.shard != nil {
		for i, pc := range s.shard.conns {
			if pc != nil {
				conns = append(conns, pc.conn)
				s.shard.conns[i] = nil
			}
		}
	}
	listeners := s.listeners
	s.listeners = nil
	s.mu.Unlock()

	for _, ln := range listeners {
		ln.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	s.wg.Wait()

	s.mu.Lock()
	s.loop.alloc.Close()
	s.mu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Sessions

// session is one connected endpoint client. Its owner half (the flows it
// registered, the rates waiting for its writer, its step reply) is loop
// state, guarded by srv.mu; the rest belongs to its reader and writer.
type session struct {
	owner

	srv  *Server
	conn net.Conn
	id   uint64 // client label from Hello

	// wmu serializes frame writes. wbuf is the step reply's encode buffer,
	// used only by the session's reader (the one goroutine that steps it);
	// fanBuf and fanEntries are the writer's encode buffer and entry
	// scratch. Reusing them pins steady-state fan-out at 0 allocs/op (see
	// BenchmarkFanoutFlush).
	wmu        sync.Mutex
	wbuf       []byte
	fanBuf     []byte
	fanEntries []wire.RateEntry

	// kick wakes the writer when route gives it rates to send; done is
	// closed when the session is removed.
	kick chan struct{}
	done chan struct{}
}

// ServeConn runs one client session over conn (any net.Conn: loopback TCP
// from Serve, or an in-memory net.Pipe end for deterministic tests). It
// blocks until the peer disconnects or the daemon closes, and returns the
// reason the session ended.
func (s *Server) ServeConn(conn net.Conn) error {
	defer conn.Close()
	s.mu.Lock()
	if s.Closed() {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sc := wire.NewScanner(conn)

	// Handshake: the first frame must be a Hello of this generation — or, on a
	// sharded daemon, a PeerHello opening a shard-to-shard session. The
	// idle timeout covers this first read too, so a connection that never
	// completes its handshake cannot pin a goroutine forever.
	if s.cfg.IdleTimeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
			return fmt.Errorf("server: handshake: %w", err)
		}
	}
	typ, payload, err := sc.Next()
	if err != nil {
		return fmt.Errorf("server: handshake read: %w", err)
	}
	if typ == wire.TypePeerHello {
		// Peer sessions are push-driven by the remote daemon's iteration
		// cadence, which this daemon cannot predict; lift the deadline.
		if s.cfg.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Time{}); err != nil {
				return fmt.Errorf("server: handshake: %w", err)
			}
		}
		return s.servePeer(conn, sc, payload)
	}
	if typ != wire.TypeHello {
		return fmt.Errorf("server: handshake: expected hello, got %s", typ)
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		return fmt.Errorf("server: handshake: %w", err)
	}
	if hello.Version != wire.Version {
		// The Welcome names the version this daemon speaks, so the refused
		// client reports the mismatch instead of a bare EOF.
		refuse(conn, s.welcomeFrame())
		return fmt.Errorf("server: client %d speaks protocol v%d, daemon speaks v%d", hello.ClientID, hello.Version, wire.Version)
	}

	sess := &session{
		srv:  s,
		conn: conn,
		id:   hello.ClientID,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	s.mu.Lock()
	if s.Closed() {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.loop.sessions[sess] = struct{}{}
	s.loop.stats.SessionsAccepted++
	s.loop.stats.SessionsActive++
	s.wg.Add(1) // writer goroutine; under s.mu so it cannot race Close's Wait
	s.mu.Unlock()
	defer s.removeSession(sess)
	go func() {
		defer s.wg.Done()
		sess.writer()
	}()

	if err := sess.write(s.welcomeFrame()); err != nil {
		return fmt.Errorf("server: handshake write: %w", err)
	}
	s.log("session %d connected from %v", sess.id, conn.RemoteAddr())

	// Frame-rate policing: a token bucket refilled at MaxFrameRate with a
	// one-second burst allowance (floored at one frame, so sub-1 rates
	// throttle instead of disconnecting every client on its first frame).
	var tokens, burst float64
	var lastRefill time.Time
	if s.cfg.MaxFrameRate > 0 {
		burst = s.cfg.MaxFrameRate
		if burst < 1 {
			burst = 1
		}
		tokens = burst
		lastRefill = time.Now()
	}
	// The unit of ingest is the burst — the frames one Read brought in, which
	// is what an endpoint wrote in one Flush: their flowlet events collect
	// in events (reused, so a session allocates for its largest burst once)
	// and reach the inbox together, under one lock hold, when the scanner
	// has handed out its last buffered frame. An End+Start pair sent
	// together is therefore never split across two iterations. The deferred
	// publish runs before removeSession (registered above): what a failing
	// session had already sent is folded in ahead of its clean-up sweep.
	var events []event
	publish := func() {
		s.publish(events)
		events = events[:0]
	}
	defer publish()
	for {
		if !sc.Buffered() {
			publish()
		}
		if s.cfg.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
				return fmt.Errorf("server: session %d: %w", sess.id, err)
			}
		}
		typ, payload, err := sc.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return fmt.Errorf("server: session %d: idle for %v, disconnecting", sess.id, s.cfg.IdleTimeout)
			}
			return fmt.Errorf("server: session %d: %w", sess.id, err)
		}
		if s.cfg.MaxFrameRate > 0 {
			now := time.Now()
			tokens += now.Sub(lastRefill).Seconds() * s.cfg.MaxFrameRate
			if tokens > burst {
				tokens = burst
			}
			lastRefill = now
			if tokens < 1 {
				return fmt.Errorf("server: session %d: frame rate exceeded %g frames/s, disconnecting", sess.id, s.cfg.MaxFrameRate)
			}
			tokens--
		}
		switch typ {
		case wire.TypeFlowletAdd:
			m, err := wire.DecodeFlowletAdd(payload)
			if err != nil {
				return fmt.Errorf("server: session %d: %w", sess.id, err)
			}
			events = append(events, event{
				flow:   core.FlowID(m.Flow),
				src:    int(m.Src),
				dst:    int(m.Dst),
				weight: m.Weight,
				sess:   sess,
			})
		case wire.TypeFlowletEnd:
			m, err := wire.DecodeFlowletEnd(payload)
			if err != nil {
				return fmt.Errorf("server: session %d: %w", sess.id, err)
			}
			events = append(events, event{end: true, flow: core.FlowID(m.Flow), sess: sess})
		case wire.TypeStep:
			m, err := wire.DecodeStep(payload)
			if err != nil {
				return fmt.Errorf("server: session %d: %w", sess.id, err)
			}
			// The events that preceded the Step on the stream belong to
			// the iteration it asks for.
			publish()
			if err := s.iterate(sess, m.Seq); err != nil {
				return err
			}
		default:
			return fmt.Errorf("server: session %d: unexpected %s frame", sess.id, typ)
		}
	}
}

// welcomeFrame encodes the daemon's handshake reply.
func (s *Server) welcomeFrame() []byte {
	return wire.AppendWelcome(nil, wire.Welcome{
		Version:       wire.Version,
		Epoch:         s.Epoch(),
		IntervalNanos: uint64(s.cfg.Interval),
	})
}

// refuseWriteTimeout bounds the one frame a daemon sends a peer it is turning
// away: a peer that never reads it must not pin the serving goroutine.
const refuseWriteTimeout = time.Second

// refuse answers a handshake from another protocol generation with this
// daemon's own handshake frame, so the refused side can name both versions
// instead of reporting a bare EOF. The caller closes conn.
func refuse(conn net.Conn, frame []byte) {
	if conn.SetWriteDeadline(time.Now().Add(refuseWriteTimeout)) == nil {
		_, _ = conn.Write(frame) // a courtesy: the connection is closed either way
	}
}

// publish appends one session's burst of flowlet events to the inbox under a
// single lock hold; they are folded into the allocator at the next iteration
// boundary, together. On a free-running daemon that boundary is now: the loop
// is woken (after the append, so a wake is never ahead of its events) unless a
// wake is already pending, in which case the iteration it stands for folds
// this burst in too.
//
// Only client flowlet events come through here. Peer exchange bundles and
// heartbeats must never wake the loop: an iteration pushes a bundle to every
// peer, so two free-running shards waking each other on receipt would
// ping-pong iterations forever. They wait for the next tick or arrival.
func (s *Server) publish(burst []event) {
	if len(burst) == 0 {
		return
	}
	s.mu.Lock()
	s.loop.inbox = append(s.loop.inbox, burst...)
	s.loop.stats.EventsReceived += int64(len(burst))
	s.mu.Unlock()
	if s.wake != nil {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// removeSession detaches a session (loop.detach: its flowlets are retired at
// the next iteration boundary, or kept unowned by a draining daemon) and
// stops its writer.
func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	swept, ok := s.loop.detach(sess)
	if ok {
		s.loop.stats.SessionsActive--
	}
	s.mu.Unlock()
	if !ok {
		return
	}
	close(sess.done)
	sess.conn.Close()
	s.log("session %d disconnected (%d flowlets scheduled for cleanup)", sess.id, swept)
}

// write sends one pre-encoded frame buffer on the session connection.
func (sess *session) write(frame []byte) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	_, err := sess.conn.Write(frame)
	return err
}

// writer drains the pending list into rate frames. One goroutine per
// session, so a slow client never blocks the allocator loop or its peers.
func (sess *session) writer() {
	for {
		select {
		case <-sess.done:
			return
		case <-sess.kick:
		}
		if !sess.flushPending() {
			sess.srv.removeSession(sess)
			return
		}
	}
}

// flushPending takes the pending list and sends it in one write of RateDelta
// frames, reporting false on a write error. It holds wmu across the take and
// the write, and s.mu only for the take and for counting the encoded frames:
// wmu is always taken before s.mu, never while holding it, and the sort and
// the encoding run under neither. The buffers live on the session, so the
// steady state allocates nothing.
func (sess *session) flushPending() bool {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	srv := sess.srv
	srv.mu.Lock()
	entries, seq := sess.take(sess.fanEntries[:0])
	srv.mu.Unlock()
	sess.fanEntries = entries
	if len(entries) == 0 {
		return true
	}
	// Deterministic wire order whatever order the rates were queued in (and
	// small flow deltas for the encoding).
	slices.SortFunc(entries, func(a, b wire.RateEntry) int {
		return cmp.Compare(a.Flow, b.Flow)
	})
	var enc wire.RateDeltaEncoder
	sess.fanBuf = appendRateFrames(sess.fanBuf[:0], &enc, seq, seq, len(entries),
		func(buf []byte, lo, hi int) []byte {
			for _, e := range entries[lo:hi] {
				buf = enc.Append(buf, e.Flow, e.Rate)
			}
			return buf
		})
	srv.mu.Lock()
	srv.loop.stats.countFanout(len(entries), len(sess.fanBuf))
	srv.mu.Unlock()
	_, err := sess.conn.Write(sess.fanBuf)
	return err == nil
}

// appendRateFrames appends n rate entries to buf as RateDelta frames, chunked
// to maxRateDeltaEntries so no frame exceeds the uint24 payload limit: it
// begins and ends each frame with enc, and appendEntries appends entries
// [lo, hi) to the frame with the same encoder, from wherever the caller keeps
// them. Every chunk carries seq except the last (the only one when n is 0),
// which carries lastSeq.
func appendRateFrames(buf []byte, enc *wire.RateDeltaEncoder, seq, lastSeq uint64, n int, appendEntries func(buf []byte, lo, hi int) []byte) []byte {
	for lo := 0; lo == 0 || lo < n; lo += maxRateDeltaEntries {
		hi := min(lo+maxRateDeltaEntries, n)
		hdrSeq := seq
		if hi == n {
			hdrSeq = lastSeq
		}
		buf = enc.Begin(buf, hdrSeq, false, hi-lo)
		buf = enc.End(appendEntries(buf, lo, hi))
	}
	return buf
}

// countFanout counts n rate entries encoded by appendRateFrames into size
// bytes. Callers count before they write: the write is what hands the frames
// to the client, and a client that holds them must find them in Stats.
func (st *Stats) countFanout(n, size int) {
	st.BatchesSent += int64(max(1, (n+maxRateDeltaEntries-1)/maxRateDeltaEntries))
	st.UpdatesSent += int64(n)
	st.FanoutBytes += int64(size)
	st.FanoutBytesFixed += fixedRateBytes(n)
}

// fixedRateBytes is the wire cost n rate updates had as fixed-v3 RateBatch
// frames with their chunking — the baseline of the FanoutBytesFixed counter.
func fixedRateBytes(n int) int64 {
	if n == 0 {
		return int64(wire.RateBatchSize(0))
	}
	var b int64
	for n > 0 {
		c := min(n, wire.MaxBatchEntries)
		b += int64(wire.RateBatchSize(c))
		n -= c
	}
	return b
}

// ---------------------------------------------------------------------------
// Iterations

// iterate runs one allocator iteration under s.mu: fold the inbox, step the
// allocator and route its updates. When stepper is non-nil the iteration was
// requested by a Step frame and the stepper synchronously receives a reply
// batch (possibly empty) echoing stepSeq with wire.StepReplyFlag set, encoded
// from the update list before the lock is released and written after it;
// updates owned by other sessions go through their asynchronous writers.
func (s *Server) iterate(stepper *session, stepSeq uint64) error {
	if stepper != nil {
		// The stepper's wmu is held from before the iteration to the reply's
		// write, so its writer cannot send a later iteration's rate ahead of
		// this reply and leave the client holding the reply's older one.
		stepper.wmu.Lock()
		defer stepper.wmu.Unlock()
	}
	if s.shard != nil {
		// Serialize the whole fold → iterate → exchange sequence across
		// concurrent iterations so peers always observe bundles in
		// iteration order.
		s.shard.sendMu.Lock()
		defer s.shard.sendMu.Unlock()
	}
	s.mu.Lock()
	if s.Closed() {
		s.mu.Unlock()
		return net.ErrClosed
	}
	if s.shard != nil {
		s.shard.foldLocked(&s.loop)
	}
	churn := len(s.loop.inbox)
	s.loop.fold()

	start := time.Now()
	s.loop.step()
	latency := time.Since(start)
	seq, n := s.loop.seq, len(s.loop.updates)
	s.timing.Record(latency.Seconds(), n)
	if s.telemetry != nil {
		s.recordTelemetryLocked(seq, latency.Seconds(), n, churn)
	}

	s.loop.route(stepper)
	if stepper != nil {
		// Non-final chunks carry the iteration sequence (the client folds
		// them in like asynchronous fan-out); only the final chunk carries
		// the step-reply barrier. Entries keep the allocator's order: zigzag
		// flow deltas cost one extra bit for unsorted IDs, never correctness.
		var enc wire.RateDeltaEncoder
		updates, reply := s.loop.updates, stepper.reply
		stepper.wbuf = appendRateFrames(stepper.wbuf[:0], &enc, seq, stepSeq|wire.StepReplyFlag, len(reply),
			func(buf []byte, lo, hi int) []byte {
				for _, k := range reply[lo:hi] {
					u := &updates[k]
					buf = enc.Append(buf, int64(u.Flow), u.Rate)
				}
				return buf
			})
		s.loop.stats.countFanout(len(reply), len(stepper.wbuf))
	}
	for _, sess := range s.loop.queued {
		select {
		case sess.kick <- struct{}{}:
		default:
		}
	}
	var peers []*peerConn
	if s.shard != nil {
		peers = s.shard.buildLocked(&s.loop, seq, s.Epoch())
	}
	s.mu.Unlock()

	// Push the boundary exchange before replying to a stepper: once the
	// step returns, this iteration's digests and snapshots are guaranteed
	// to sit in every live peer's inbox, which is what makes step-driven
	// cluster runs deterministic.
	if len(peers) > 0 {
		s.sendExchange(peers)
	}
	if stepper != nil {
		if _, err := stepper.conn.Write(stepper.wbuf); err != nil {
			return fmt.Errorf("server: session %d: step reply: %w", stepper.id, err)
		}
	}
	return nil
}

// maxRateDeltaEntries bounds entries per RateDelta frame, sized for the
// worst-case (incompressible) entry so a full chunk can never overflow the
// uint24 payload (a variable so tests can exercise chunking without a million
// flows).
var maxRateDeltaEntries = wire.MaxRateDeltaEntries
