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
	"sync/atomic"
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
	// which is what deterministic end-to-end runs use.
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
	// staleness detection.
	HeartbeatTimeout time.Duration
}

// Stats is a snapshot of daemon counters.
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
	// iteration; ExchangeStalenessIters sums, over those folds, how many
	// iterations old each message's originating sequence number was at
	// fold time (clamped at zero for free-running daemons that fold a
	// peer's newer bundle). ExchangeStalenessIters/ExchangeFolds is the
	// mean boundary-price staleness in allocator iterations — the
	// paper's control-loop freshness budget, observable per daemon.
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

// flowRec is the daemon's one record per registered flowlet — who owns it and
// where its rate fan-out stands — so the loop does a single table lookup per
// flowlet event and per rate update. The ownership half is guarded by srv.mu;
// the fan-out half by the owning session's pmu, which is what lets that
// session's writer goroutine drain it without touching the flow table.
type flowRec struct {
	id core.FlowID
	// owner is the session that registered the flow and receives its rates;
	// nil for a flow that lives in the allocator without one (restored from a
	// snapshot, seeded from a peer replica, or left by a session that
	// disconnected mid-drain), which a matching add adopts (see
	// drainInboxLocked). ownIdx is the record's slot in owner.owned.
	owner  *session
	ownIdx int32

	// pendIdx is the record's slot in owner.pending while rate is waiting
	// for the writer, -1 otherwise. Every rate queued here already passed the
	// allocator's notification threshold, so the writer sends it as is.
	pendIdx int32
	rate    float64
}

// event is one flowlet notification waiting for the next iteration boundary.
// The two flags share the last word, so an event is 48 bytes, not 56.
type event struct {
	flow     core.FlowID
	src, dst int
	weight   float64
	sess     *session
	end      bool
	// cleanup marks an orphan-retirement event generated when sess
	// disconnected. It only applies while sess still owns the flow: if a
	// reconnected client re-registered the flow under a new session before
	// the sweep ran, the stale cleanup must not retire it.
	cleanup bool
}

// Server is the flowtuned allocator daemon: it owns the optimizer, drains
// client flowlet notifications at iteration boundaries (the paper's "updates
// are folded in between iterations" design), and fans rate updates back out
// to the sessions that registered the flows.
type Server struct {
	cfg   Config
	alloc *core.ParallelAllocator
	loop  *metrics.LoopRecorder

	mu       sync.Mutex
	sessions map[*session]struct{}
	// conns tracks every connection handed to ServeConn, including ones
	// still mid-handshake, so Close can unblock their readers.
	conns map[net.Conn]struct{}
	// recs is the flow table, indexed by the allocator's flow slot
	// (core.ParallelAllocator.SlotOf): one record per flowlet registered with
	// the allocator, owned or not, and nil at a free slot. The allocator's
	// FlowID→slot map is the only flow index, so the fan-out reaches a record
	// through RateUpdate.Slot without a lookup.
	recs []*flowRec
	// freeRecs recycles the records of retired flowlets, so steady-state
	// churn allocates none.
	freeRecs []*flowRec
	// inbox holds the flowlet events published since the last iteration;
	// sessions append to it a burst at a time (publish). inboxHigh is the
	// decaying high-water mark of its length at a drain, which decides
	// whether the drain keeps its capacity (wire.Recycle).
	inbox     []event
	inboxHigh int
	// held and updates are iterate's scratch: the sessions whose pmu the
	// running pass (the fold or the fan-out) holds, and the allocator's rate
	// updates. A step reply is encoded from updates after s.mu is released;
	// replying is the iteration whose list it is encoding from (0 for none),
	// which the next iteration leaves to it instead of overwriting.
	held     []*session
	updates  []core.RateUpdate
	replying atomic.Uint64
	seq      uint64 // iteration counter
	closed   bool
	draining bool

	done chan struct{}
	wg   sync.WaitGroup
	// wake tells tickLoop that client flowlet events were published and it
	// should iterate now rather than at the next tick. One slot: bursts
	// that land while an iteration is in flight coalesce into the single
	// next one. Nil on a step-driven daemon (Interval == 0).
	wake chan struct{}

	lnMu      sync.Mutex
	listeners []net.Listener

	stSessions  atomic.Int64
	stActive    atomic.Int64
	stEvents    atomic.Int64
	stArrivals  atomic.Int64
	stDupAdds   atomic.Int64
	stUnknown   atomic.Int64
	stRejected  atomic.Int64
	stUpdates   atomic.Int64
	stCoalesced atomic.Int64
	stBatches   atomic.Int64
	stLimited   atomic.Int64
	stPeerRej   atomic.Int64
	stAdopted   atomic.Int64
	stTakeovers atomic.Int64
	stDrainRej  atomic.Int64
	stExchFolds atomic.Int64
	stExchStale atomic.Int64

	stFanoutBytes atomic.Int64
	stFanoutFixed atomic.Int64
	stExchBytes   atomic.Int64
	stExchFixed   atomic.Int64

	// telemetry is the optional observability hook (registry series written
	// in the loop plus the convergence flight recorder), nil until
	// RegisterMetrics or AttachFlightRecorder wires it. Guarded by mu.
	telemetry *serverTelemetry

	// epoch is the allocator generation announced in handshakes; BumpEpoch
	// advances it mid-run and notifies connected clients.
	epoch atomic.Uint64

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
	if cfg.Gamma == 0 {
		cfg.Gamma = 0.4
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = 1
	}
	alloc, err := core.NewParallelAllocator(core.ParallelConfig{
		Topology:  cfg.Topology,
		Blocks:    cfg.Blocks,
		Gamma:     cfg.Gamma,
		Headroom:  cfg.UpdateThreshold,
		Normalize: true,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		alloc:    alloc,
		loop:     metrics.NewLoopRecorder(metrics.DefaultLoopWindow),
		sessions: make(map[*session]struct{}),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	s.epoch.Store(cfg.Epoch)
	if cfg.NumShards > 0 {
		s.shard, err = newShardState(cfg, alloc)
		if err != nil {
			alloc.Close()
			return nil, err
		}
	} else if cfg.NumShards < 0 || cfg.ShardIndex != 0 {
		alloc.Close()
		return nil, fmt.Errorf("server: invalid shard configuration %d/%d", cfg.ShardIndex, cfg.NumShards)
	}
	if cfg.Interval > 0 {
		s.wake = make(chan struct{}, 1)
		s.wg.Add(1)
		go s.tickLoop()
	}
	return s, nil
}

// logf logs through the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Epoch returns the daemon's allocator epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// BumpEpoch advances the daemon's allocator epoch (it must be greater than
// the current one) and pushes an EpochNotify frame to every connected client,
// so endpoints learn about an allocator state reset without waiting for a
// failed write; they respond by re-registering their flowlets
// (transport.AllocClient.Reconnect). Operators use it after swapping
// allocator state under a live daemon.
func (s *Server) BumpEpoch(epoch uint64) error {
	for {
		cur := s.epoch.Load()
		if epoch <= cur {
			return fmt.Errorf("server: epoch %d does not advance current epoch %d", epoch, cur)
		}
		if s.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	notify := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		notify = append(notify, sess)
	}
	// Register the notifier goroutines under s.mu, like session writers, so
	// Close cannot start waiting between the check above and the Add.
	s.wg.Add(len(notify))
	s.mu.Unlock()
	frame := wire.AppendEpochNotify(nil, wire.EpochNotify{Epoch: epoch})
	for _, sess := range notify {
		// One goroutine per session: a slow or dead client must not stall
		// the operator path or its peers (frame is never written to, so
		// sharing it is safe).
		go func() {
			defer s.wg.Done()
			if err := sess.write(frame); err != nil {
				s.removeSession(sess)
			}
		}()
	}
	s.logf("epoch bumped to %d (%d clients notified)", epoch, len(notify))
	return nil
}

// NumFlows returns the number of currently registered flowlets.
func (s *Server) NumFlows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc.NumFlows()
}

// Iterations returns the number of allocator iterations run so far.
func (s *Server) Iterations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// LoopStats returns allocator-loop latency and throughput statistics.
func (s *Server) LoopStats() metrics.LoopStats { return s.loop.Snapshot() }

// Stats returns a snapshot of daemon counters.
func (s *Server) Stats() Stats {
	return Stats{
		SessionsAccepted: s.stSessions.Load(),
		SessionsActive:   s.stActive.Load(),
		EventsReceived:   s.stEvents.Load(),
		DuplicateAdds:    s.stDupAdds.Load(),
		UnknownEnds:      s.stUnknown.Load(),
		RejectedAdds:     s.stRejected.Load(),
		UpdatesSent:      s.stUpdates.Load(),
		UpdatesCoalesced: s.stCoalesced.Load(),
		BatchesSent:      s.stBatches.Load(),
		LimitedAdds:      s.stLimited.Load(),
		PeerRejected:     s.stPeerRej.Load(),
		AdoptedFlows:     s.stAdopted.Load(),
		Takeovers:        s.stTakeovers.Load(),
		DrainRejects:     s.stDrainRej.Load(),

		ArrivalIterations: s.stArrivals.Load(),

		ExchangeFolds:          s.stExchFolds.Load(),
		ExchangeStalenessIters: s.stExchStale.Load(),

		FanoutBytes:        s.stFanoutBytes.Load(),
		FanoutBytesFixed:   s.stFanoutFixed.Load(),
		ExchangeBytes:      s.stExchBytes.Load(),
		ExchangeBytesFixed: s.stExchFixed.Load(),
	}
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
	if s.closed {
		return net.ErrClosed
	}
	return s.alloc.SetLinkCapacity(l, capacity)
}

// Rates returns the allocator's current rates keyed by flow ID (a diagnostic
// mirror of core.ParallelAllocator.Rates).
func (s *Server) Rates() map[core.FlowID]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc.Rates()
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
			s.stArrivals.Add(1)
		}
		if err := s.iterate(nil, 0); err != nil && !errors.Is(err, net.ErrClosed) {
			s.logf("free-running iteration: %v", err)
		}
	}
}

// Serve accepts sessions from ln until the daemon is closed. It always
// returns a non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.isClosed() {
		s.lnMu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.listeners = append(s.listeners, ln)
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return net.ErrClosed
			}
			return err
		}
		// The closed check and wg.Add share the mutex Close uses to set
		// closed, so an Add can never start while Close is in wg.Wait.
		s.mu.Lock()
		if s.closed {
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

// isClosed reports whether Close has been called.
func (s *Server) isClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Close shuts the daemon down: listeners stop accepting, sessions are torn
// down, the ticker stops, and the allocator's workers are released. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	// Closing every served conn (sessions and mid-handshake readers alike)
	// unblocks their goroutines so wg.Wait below cannot hang on a silent
	// peer that never completed its Hello.
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()

	s.lnMu.Lock()
	for _, ln := range s.listeners {
		ln.Close()
	}
	s.listeners = nil
	s.lnMu.Unlock()

	for _, conn := range conns {
		conn.Close()
	}
	if s.shard != nil {
		// Closing outbound peer connections unblocks any iteration waiting
		// on an exchange ack.
		s.shard.closePeers()
	}
	s.wg.Wait()

	s.mu.Lock()
	s.alloc.Close()
	s.mu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Sessions

// session is one connected endpoint client.
type session struct {
	srv  *Server
	conn net.Conn
	id   uint64 // client label from Hello

	// Write side: wmu serializes frame writes; wbuf is the reused
	// synchronous-path encode buffer.
	wmu  sync.Mutex
	wbuf []byte

	// Asynchronous fan-out with coalescing backpressure: pending lists the
	// owned flows holding a rate (flowRec.rate, the latest) not yet drained
	// by the writer goroutine, so a slow client bounds daemon memory at
	// O(its flows) and always catches up to the *current* allocation, never
	// a backlog of stale ones. pmu guards it, pendingSeq and the fan-out half
	// of every owned flowRec.
	pmu        sync.Mutex
	pending    []*flowRec
	pendingSeq uint64
	kick       chan struct{}
	done       chan struct{}

	// fanBuf and fanEntries are the writer's reused encode buffer and entry
	// scratch; reply is the step-reply path's, the session's updates as
	// indices into the iteration's update list (the two paths run on
	// different goroutines). Reusing them pins steady-state fan-out at
	// 0 allocs/op (see BenchmarkFanoutFlush).
	fanBuf     []byte
	fanEntries []wire.RateEntry
	reply      []int32

	// owned are the flowlets this session registered, and held marks that
	// the running pass of an iteration holds pmu (see Server.hold). Guarded
	// by srv.mu.
	owned []*flowRec
	held  bool
}

// own and disown keep sess.owned and the record's back-pointers in step.
// Called with srv.mu held.
func (sess *session) own(rec *flowRec) {
	rec.owner = sess
	rec.ownIdx = int32(len(sess.owned))
	sess.owned = append(sess.owned, rec)
}

func (sess *session) disown(rec *flowRec) {
	last := len(sess.owned) - 1
	moved := sess.owned[last]
	sess.owned[rec.ownIdx] = moved
	moved.ownIdx = rec.ownIdx
	sess.owned[last] = nil
	sess.owned = sess.owned[:last]
	rec.owner = nil
}

// ServeConn runs one client session over conn (any net.Conn: loopback TCP
// from Serve, or an in-memory net.Pipe end for deterministic tests). It
// blocks until the peer disconnects or the daemon closes, and returns the
// reason the session ended.
func (s *Server) ServeConn(conn net.Conn) error {
	defer conn.Close()
	s.mu.Lock()
	if s.closed {
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
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.sessions[sess] = struct{}{}
	s.wg.Add(1) // writer goroutine; under s.mu so it cannot race Close's Wait
	s.mu.Unlock()
	s.stSessions.Add(1)
	s.stActive.Add(1)
	defer s.removeSession(sess)
	go func() {
		defer s.wg.Done()
		sess.writer()
	}()

	// Encoded after the session is registered: an epoch bump from here on
	// either shows in this Welcome or reaches the session as an EpochNotify.
	if err := sess.write(s.welcomeFrame()); err != nil {
		return fmt.Errorf("server: handshake write: %w", err)
	}
	s.logf("session %d connected from %v", sess.id, conn.RemoteAddr())

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
	s.stEvents.Add(int64(len(burst)))
	s.mu.Lock()
	s.inbox = append(s.inbox, burst...)
	s.mu.Unlock()
	if s.wake != nil {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// removeSession detaches a session and schedules cleanup of its flowlets:
// every flow it still owns is retired at the next iteration boundary, so a
// crashed endpoint's flowlets do not hold fabric shares forever.
func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	if _, ok := s.sessions[sess]; !ok {
		s.mu.Unlock()
		return
	}
	delete(s.sessions, sess)
	var orphans []core.FlowID
	if s.draining {
		// A draining daemon keeps disconnected clients' flows registered:
		// they are about to be written to the snapshot (and have already
		// been replicated to the successor shard), so a cleanup sweep here
		// would retire exactly the flows a restarted or adopting daemon
		// needs. Clients fail over warm at last-known rates regardless.
		// The flows become unowned, claimable by a reconnecting client whose
		// re-registration matches (drainInboxLocked adopts it in place);
		// rates still queued for the dead session are withdrawn with it, so
		// no record stays reachable through a session that is not its owner.
		sess.pmu.Lock()
		for _, rec := range sess.pending {
			rec.pendIdx = -1
		}
		sess.pending = nil
		sess.pmu.Unlock()
		for _, rec := range sess.owned {
			rec.owner = nil
		}
		sess.owned = nil
	} else {
		orphans = make([]core.FlowID, 0, len(sess.owned))
		for _, rec := range sess.owned {
			orphans = append(orphans, rec.id)
		}
		slices.Sort(orphans)
		for _, id := range orphans {
			s.inbox = append(s.inbox, event{end: true, flow: id, sess: sess, cleanup: true})
		}
	}
	s.mu.Unlock()
	close(sess.done)
	sess.conn.Close()
	s.stActive.Add(-1)
	s.logf("session %d disconnected (%d flowlets scheduled for cleanup)", sess.id, len(orphans))
}

// write sends one pre-encoded frame buffer on the session connection.
func (sess *session) write(frame []byte) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	_, err := sess.conn.Write(frame)
	return err
}

// queue records a rate for asynchronous delivery, coalescing with an
// undelivered one for the same flow (latest rate wins); unqueue withdraws it.
// Called with pmu held.
func (sess *session) queue(rec *flowRec, rate float64) {
	if rec.pendIdx >= 0 {
		sess.srv.stCoalesced.Add(1)
	} else {
		rec.pendIdx = int32(len(sess.pending))
		sess.pending = append(sess.pending, rec)
	}
	rec.rate = rate
}

func (sess *session) unqueue(rec *flowRec) {
	last := len(sess.pending) - 1
	moved := sess.pending[last]
	sess.pending[rec.pendIdx] = moved
	moved.pendIdx = rec.pendIdx
	sess.pending[last] = nil
	sess.pending = sess.pending[:last]
	rec.pendIdx = -1
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

// flushPending drains the pending list into one write of RateDelta frames,
// reporting false on a write error. The drain and the write happen under one
// wmu hold: once a step reply (also serialized by wmu) has withdrawn a
// superseded rate from the pending list, no stale copy of it can reach the
// wire afterwards. Buffers and entry scratch live on the session, so the
// steady state allocates nothing.
func (sess *session) flushPending() bool {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	sess.pmu.Lock()
	entries := sess.fanEntries[:0]
	for i, rec := range sess.pending {
		sess.pending[i] = nil
		rec.pendIdx = -1
		entries = append(entries, wire.RateEntry{Flow: int64(rec.id), Rate: rec.rate})
	}
	sess.pending = sess.pending[:0]
	seq := sess.pendingSeq
	sess.pmu.Unlock()
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
	sess.fanBuf = sess.srv.appendRateFrames(sess.fanBuf[:0], &enc, seq, seq, len(entries),
		func(buf []byte, lo, hi int) []byte {
			for _, e := range entries[lo:hi] {
				buf = enc.Append(buf, e.Flow, e.Rate)
			}
			return buf
		})
	_, err := sess.conn.Write(sess.fanBuf)
	return err == nil
}

// appendRateFrames appends n rate entries to buf as RateDelta frames, chunked
// to maxRateDeltaEntries so no frame exceeds the uint24 payload limit: it
// begins and ends each frame with enc, and appendEntries appends entries
// [lo, hi) to the frame with the same encoder, from wherever the caller keeps
// them. Every chunk carries seq except the last (the only one when n is 0),
// which carries lastSeq. The frames are counted in the fan-out stats here,
// before the caller writes them: the write is what hands them to the client,
// and a client that holds them must find them in Stats.
func (s *Server) appendRateFrames(buf []byte, enc *wire.RateDeltaEncoder, seq, lastSeq uint64, n int, appendEntries func(buf []byte, lo, hi int) []byte) []byte {
	n0, frames := len(buf), 0
	for lo := 0; lo == 0 || lo < n; lo += maxRateDeltaEntries {
		hi := min(lo+maxRateDeltaEntries, n)
		hdrSeq := seq
		if hi == n {
			hdrSeq = lastSeq
		}
		buf = enc.Begin(buf, hdrSeq, false, hi-lo)
		buf = enc.End(appendEntries(buf, lo, hi))
		frames++
	}
	s.stBatches.Add(int64(frames))
	s.stUpdates.Add(int64(n))
	s.stFanoutBytes.Add(int64(len(buf) - n0))
	s.stFanoutFixed.Add(fixedRateBytes(n))
	return buf
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
// The allocator loop

// iterate runs one allocator iteration: drain the inbox, step the allocator,
// and fan updates out. When stepper is non-nil the iteration was requested
// by a Step frame and the stepper synchronously receives a reply batch
// (possibly empty) echoing stepSeq with wire.StepReplyFlag set; updates owned
// by other sessions go through their asynchronous writers.
func (s *Server) iterate(stepper *session, stepSeq uint64) error {
	if s.shard != nil {
		// Serialize the whole fold → iterate → exchange sequence across
		// concurrent iterations so peers always observe bundles in
		// iteration order.
		s.shard.sendMu.Lock()
		defer s.shard.sendMu.Unlock()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	if s.shard != nil {
		s.foldExchangeLocked()
		if s.shard.takeover {
			s.processDeathsLocked()
		}
	}
	churn := len(s.inbox)
	s.drainInboxLocked()

	start := time.Now()
	s.alloc.Iterate()
	if s.replying.Load() != 0 {
		// A step reply of an earlier iteration is still encoding from the
		// list: it keeps it, and this iteration starts a new one.
		s.updates = nil
		s.replying.Store(0)
	}
	s.updates = s.alloc.AppendUpdates(s.cfg.UpdateThreshold, s.updates[:0])
	updates := s.updates
	latency := time.Since(start)
	s.seq++
	seq := s.seq
	s.loop.Record(latency.Seconds(), len(updates))
	if s.telemetry != nil {
		s.recordTelemetryLocked(seq, latency.Seconds(), len(updates), churn)
	}

	// One pass over the updates, each reaching its record by slot with no
	// lookup: the stepper's go into its synchronous reply, everyone else's
	// are queued for their session's writer. Each session's pmu is taken
	// once for the whole pass and its writer kicked once after it.
	var reply []int32
	if stepper != nil {
		reply = stepper.reply[:0]
		stepper.pmu.Lock()
	}
	for i, u := range updates {
		rec := s.recs[u.Slot]
		owner := rec.owner
		if owner == nil {
			continue
		}
		if owner != stepper {
			s.hold(owner)
			owner.queue(rec, u.Rate)
			continue
		}
		// Step replies keep the allocator's update order. The rate supersedes
		// anything still queued for asynchronous delivery (from interleaved
		// ticker iterations): withdraw it so the writer cannot emit a stale
		// rate after the reply.
		reply = append(reply, int32(i))
		if rec.pendIdx >= 0 {
			stepper.unqueue(rec)
		}
	}
	s.release(true, seq)

	if stepper != nil {
		stepper.pmu.Unlock()
		stepper.reply = reply
		s.replying.Store(seq)
	}
	var peers []*peerConn
	if s.shard != nil {
		peers = s.buildExchangeLocked(seq)
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
		// Non-final chunks carry the iteration sequence (the client folds
		// them in like asynchronous fan-out); only the final chunk carries
		// the step-reply barrier. Entries keep the allocator's order: zigzag
		// flow deltas cost one extra bit for unsorted IDs, never correctness.
		// Only this session's reader steps it, so wbuf and reply need no
		// lock, and updates stays this iteration's list until the reply
		// hands it back.
		var enc wire.RateDeltaEncoder
		stepper.wbuf = s.appendRateFrames(stepper.wbuf[:0], &enc, seq, stepSeq|wire.StepReplyFlag, len(reply),
			func(buf []byte, lo, hi int) []byte {
				for _, k := range reply[lo:hi] {
					u := &updates[k]
					buf = enc.Append(buf, int64(u.Flow), u.Rate)
				}
				return buf
			})
		s.replying.CompareAndSwap(seq, 0)
		if err := stepper.write(stepper.wbuf); err != nil {
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

// hold takes sess.pmu for the running pass of an iteration (the fold or the
// fan-out) unless the pass already holds it, so a pass locks each session once
// however many of its flows it touches. release ends the pass, unlocking every
// session it took; after the fan-out (fanout set) the rates each one was
// queued carry seq and its writer is kicked. Called with s.mu held.
func (s *Server) hold(sess *session) {
	if !sess.held {
		sess.held = true
		sess.pmu.Lock()
		s.held = append(s.held, sess)
	}
}

func (s *Server) release(fanout bool, seq uint64) {
	for i, sess := range s.held {
		sess.held = false
		if fanout {
			sess.pendingSeq = seq
		}
		sess.pmu.Unlock()
		if fanout {
			select {
			case sess.kick <- struct{}{}:
			default:
			}
		}
		s.held[i] = nil
	}
	s.held = s.held[:0]
}

// drainInboxLocked folds pending flowlet events into the allocator, in arrival
// order, with duplicate/unknown defense — one flow-index probe per event: an
// end is Unbind, an add is Bind, and a refused add releases the binding it
// made. Called with s.mu held.
func (s *Server) drainInboxLocked() {
	for _, ev := range s.inbox {
		if ev.end {
			slot, known := s.alloc.Unbind(ev.flow)
			if !known {
				s.stUnknown.Add(1)
				continue
			}
			if ev.cleanup && s.recs[slot].owner != ev.sess {
				// Stale orphan sweep: the flow was re-registered (by a
				// reconnected client under a new session) after the dead
				// session's cleanup was scheduled. The new owner's
				// registration stands.
				s.alloc.Rebind(ev.flow, slot)
				continue
			}
			s.retireLocked(slot)
			continue
		}
		slot, known := s.alloc.Bind(ev.flow)
		if known {
			// Adoption without churn: a flow restored from a snapshot, seeded
			// from a peer replica, or kept by a drain after its session died
			// sits in the allocator unowned. When a reconnecting client
			// re-registers it with the registration the allocator holds —
			// same route and weight — ownership transfers in place: the
			// allocator never sees a retire/re-add pair, so prices and rates
			// are undisturbed and a warm restart costs zero registrations.
			rec := s.recs[slot]
			if rec.owner == nil && ev.sess != nil {
				if f := s.alloc.FlowAt(slot); f.Src == ev.src && f.Dst == ev.dst && f.Weight == ev.weight {
					if _, live := s.sessions[ev.sess]; live {
						ev.sess.own(rec)
						s.stAdopted.Add(1)
					}
					continue
				}
				// Same ID, different registration: the stored flow is stale.
				// Retire it and fall through to a fresh registration. The ID
				// stays bound to the slot, which is the one the next Admit
				// takes: EndSlot freed it last.
				s.retireLocked(slot)
			} else {
				s.stDupAdds.Add(1)
				continue
			}
		}
		if !s.admissibleLocked(&ev) {
			s.alloc.Unbind(ev.flow)
			continue
		}
		rec, err := s.admitLocked(ev.flow, ev.src, ev.dst, ev.weight)
		if err != nil {
			s.stRejected.Add(1)
			s.logf("flowlet %d add rejected: %v", ev.flow, err)
			continue
		}
		if ev.sess != nil {
			ev.sess.own(rec)
		}
	}
	s.release(false, 0)
	// A one-off burst — the set-up's registrations, a reconnecting client's —
	// is let go about 45 drains after it (20 k events followed by 4 k-event
	// steps), while a free-running daemon's churn bursts between empty ticks
	// keep their capacity and append without reallocating.
	s.inbox = wire.Recycle(s.inbox, &s.inboxHigh)
}

// admissibleLocked applies the daemon's own admission rules to an add the
// allocator does not hold, counting a refusal; the allocator's rules (route
// and weight) are Admit's. Called with s.mu held.
func (s *Server) admissibleLocked(ev *event) bool {
	if s.draining {
		// A draining daemon admits no new flowlets: it is about to hand its
		// state to a successor, and anything admitted now would miss the
		// snapshot already replicated to peers.
		s.stDrainRej.Add(1)
		return false
	}
	if ev.sess != nil {
		if _, live := s.sessions[ev.sess]; !live {
			// The registering session disconnected before this add was
			// folded in; its one-shot cleanup has already run, so
			// registering now would leak the flow forever.
			s.stRejected.Add(1)
			return false
		}
		if s.cfg.MaxSessionFlows > 0 && len(ev.sess.owned) >= s.cfg.MaxSessionFlows {
			s.stLimited.Add(1)
			s.logf("flowlet %d add dropped: session %d at its %d-flow limit", ev.flow, ev.sess.id, s.cfg.MaxSessionFlows)
			return false
		}
	}
	if s.shard != nil && !s.shard.ownsFlow(ev.src, ev.dst) {
		// A sharded daemon allocates only flowlets sourced in its own racks;
		// anything else belongs to a peer and registering it here would
		// double-allocate its path.
		s.stRejected.Add(1)
		s.logf("flowlet %d add rejected: server %d is not owned by shard %d/%d", ev.flow, ev.src, s.cfg.ShardIndex, s.cfg.NumShards)
		return false
	}
	return true
}

// admitLocked registers a flowlet with the allocator and enters its record,
// unowned, into the flow table at the slot the allocator gave it. The caller
// has bound id (core.ParallelAllocator.Bind); a refusal releases the binding.
// Called with s.mu held.
func (s *Server) admitLocked(id core.FlowID, src, dst int, weight float64) (*flowRec, error) {
	slot, err := s.alloc.Admit(id, src, dst, weight)
	if err != nil {
		return nil, err
	}
	var rec *flowRec
	if n := len(s.freeRecs); n > 0 {
		rec, s.freeRecs = s.freeRecs[n-1], s.freeRecs[:n-1]
	} else {
		rec = new(flowRec)
	}
	*rec = flowRec{id: id, pendIdx: -1}
	if n := int(slot) + 1; n > len(s.recs) {
		s.recs = append(s.recs, make([]*flowRec, n-len(s.recs))...)
	}
	s.recs[slot] = rec
	return rec, nil
}

// retireLocked ends the flowlet at slot in the allocator, whose ID the caller
// has unbound (or is about to re-admit), and drops its record:
// out of the flow table, out of its owner's set, and any undelivered rate
// withdrawn. That leaves the record unreachable (only its owner's pending list
// ever holds it outside s.mu), so it is recycled; callers must not touch it
// afterwards. The owner's pmu stays held until the fold's release. Called with
// s.mu held.
func (s *Server) retireLocked(slot int32) {
	s.alloc.EndSlot(slot)
	rec := s.recs[slot]
	s.recs[slot] = nil
	if owner := rec.owner; owner != nil {
		owner.disown(rec)
		s.hold(owner)
		if rec.pendIdx >= 0 {
			owner.unqueue(rec)
		}
	}
	s.freeRecs = append(s.freeRecs, rec)
}
