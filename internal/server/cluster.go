package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/wire"
)

// This file implements the daemon side of the sharded allocator cluster: a
// flowtuned instance configured with NumShards > 0 owns one rack block of
// the fabric (its servers plus all links anchored at its racks) and runs the
// ordinary allocator over just its own flows. The only state it shares with
// its peers is the boundary: downward links, which remote flows traverse.
// After every iteration the daemon pushes, to each peer,
//
//   - a PriceDigestDelta with its local load and Hessian-diagonal
//     contributions on the links that peer owns (so the owner prices boundary
//     links from cluster-wide demand), and
//   - a PriceSnapshotDelta of its own boundary-link prices (so peers rate
//     their cross-shard flows against the owner's congestion signal).
//
// Both list only what changed since the previous bundle on that connection.
//
// Inbound bundles are folded in at the next iteration boundary, exactly like
// flowlet notifications. In step-driven runs a bundle stamped with iteration
// k is folded at iteration k+1 regardless of shard stepping order, and every
// push waits for the receiver's ExchangeAck, which together make cluster
// runs deterministic; free-running daemons fold whatever has arrived.

// exchangeMsg is one inbound peer frame waiting for the next iteration
// boundary. For a digest, vals/hdiag are the load/sensitivity entries; for a
// snapshot, vals holds prices and hdiag is nil; for a takeover announcement,
// from is the adopter and dead the adopted daemon. Entries are a partial
// update (absent links keep their prior imported values) unless reset
// re-baselines: a reset digest zeroes the sender's contributions before
// applying, a reset snapshot is a complete price listing.
type exchangeMsg struct {
	from     uint32
	seq      uint64
	snapshot bool
	takeover bool
	reset    bool
	dead     uint32
	links    []int32
	vals     []float64
	hdiag    []float64
}

// peerState is a daemon's record of one daemon of the cluster, indexed by
// daemon (shard) index, so iterating the records visits the cluster in shard
// order. Link-indexed arrays are numLinks long and indexed by LinkID; the
// record of the daemon itself holds no imports.
type peerState struct {
	// conn is the outbound connection to the daemon, nil while none is
	// attached. Guarded by pmu.
	conn *peerConn

	// dead marks the daemon known dead (adopted or announced). links lists
	// the downward links of every shard the daemon currently serves: a
	// peer's digest target set, and for this daemon's own record its
	// boundary. prices retains the peer's latest accepted price of every link
	// it serves (NaN where none was accepted), merged across delta snapshots
	// so its successor can seed the full set when adopting. loads and hdiag
	// are the peer's latest digest contributions on this daemon's boundary
	// links. All guarded by the server mutex.
	dead         bool
	links        []topology.LinkID
	prices       []float64
	loads, hdiag []float64

	// deathPending marks the daemon detected dead and awaiting the next
	// iteration boundary; heard is the last time any frame arrived from it
	// (zero: never heard from, which is not staleness); replica is the
	// latest flow-state replica it sent — the flows it was serving,
	// reassembled from the FlowState chunks of one (replicaSeq,
	// replicaEpoch). All guarded by inMu.
	deathPending             bool
	heard                    time.Time
	replicaSeq, replicaEpoch uint64
	replica                  []wire.FlowStateEntry
}

// peerConn is one outbound shard-to-shard connection; this daemon pushes its
// exchange bundles on it and reads acks back. It is only touched under
// shardState.sendMu after registration.
type peerConn struct {
	shard int
	conn  net.Conn
	sc    *wire.Scanner
	buf   []byte
	seq   uint64
	// acks is the number of ExchangeAcks the pending bundle will produce
	// (one per snapshot chunk; receivers ack each chunk).
	acks int
	// needReset forces the next bundle to carry full (reset) digest and
	// snapshot frames. Set on a fresh connection — the receiver's imported
	// state is unknown — and whenever served-shard ownership changes.
	needReset bool
	// digestShadow / snapShadow record, per link, the (load, hdiag) and
	// price bit patterns last encoded for this peer; a delta bundle lists
	// only links whose value differs. A reset bundle writes the shadow of
	// every link it covers, and every change of the covered set forces a
	// reset, so a delta only ever compares links its last reset wrote.
	// Shadows advance optimistically at build time: any push failure drops
	// the whole peerConn, and the reconnect's fresh connection starts with a
	// reset, so sender shadow and receiver state can never drift apart.
	// Indexed by LinkID (numLinks long), not boundary position, so they stay
	// valid across takeovers.
	digestShadow [][2]uint64
	snapShadow   []uint64
	// Reused delta-entry scratch.
	dLinks         []uint32
	dLoads, dHdiag []float64
	sLinks         []uint32
	sPrices        []float64
}

// peerExchangeTimeout bounds one bundle push (write + acks): a peer that is
// wedged — alive at the TCP level but not draining — must not stall the
// shard's allocation loop, so past this deadline it is dropped like a dead
// one and the shard keeps iterating on its last imported boundary state.
const peerExchangeTimeout = 2 * time.Second

// shardState is the sharded-cluster state of a daemon.
type shardState struct {
	smap     *topology.ShardMap
	index    int
	alloc    *core.ParallelAllocator
	numLinks int
	takeover bool
	interval time.Duration
	hbGrace  time.Duration

	// servedBy[x] is the daemon currently serving shard x's rack block:
	// initially the identity, re-pointed by takeovers. Every ownership
	// decision — flow admission, digest targeting, snapshot acceptance —
	// routes through it. Guarded by the server mutex.
	servedBy []int32

	// peers holds one record per daemon of the cluster (see peerState for
	// which lock guards each field); its length never changes.
	peers []peerState

	// boundary lists the downward links of every shard this daemon serves
	// (its own record's links); posOf maps a LinkID to its position in
	// boundary (-1 otherwise). extLoad/extHdiag, dense over boundary, are
	// the peers' digest contributions summed for the allocator after each
	// fold.
	boundary []topology.LinkID
	posOf    []int32
	extLoad  []float64
	extHdiag []float64

	// announce holds takeover announcements awaiting inclusion in the next
	// exchange bundle. Guarded by the server mutex.
	announce []wire.Takeover

	// sendMu serializes whole fold → iterate → push sequences so peers
	// observe bundles in iteration order.
	sendMu sync.Mutex

	// pmu guards the records' outbound connections.
	pmu sync.Mutex

	// inMu guards pending, the inbound messages awaiting fold; drain is
	// the swap buffer that keeps free-running folds allocation-free. It
	// also guards the records' failover reception state (written by peer
	// reader goroutines and the push path).
	inMu    sync.Mutex
	pending []exchangeMsg
	drain   []exchangeMsg

	// Reused build/fold scratch.
	digestLoads, digestHdiag, snapPrices []float64
	pinLinks                             []topology.LinkID
	pinVals                              []float64
}

// newShardState validates the sharded configuration and prepares the
// exchange state.
func newShardState(cfg Config, alloc *core.ParallelAllocator) (*shardState, error) {
	if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.NumShards {
		return nil, fmt.Errorf("server: ShardIndex %d out of range for %d shards", cfg.ShardIndex, cfg.NumShards)
	}
	smap, err := topology.NewShardMap(cfg.Topology, cfg.NumShards)
	if err != nil {
		return nil, err
	}
	numLinks := cfg.Topology.NumLinks()
	st := &shardState{
		smap:     smap,
		index:    cfg.ShardIndex,
		alloc:    alloc,
		numLinks: numLinks,
		takeover: cfg.Takeover,
		interval: cfg.Interval,
		hbGrace:  cfg.HeartbeatTimeout,
		servedBy: make([]int32, cfg.NumShards),
		peers:    make([]peerState, cfg.NumShards),
		posOf:    make([]int32, numLinks),
	}
	for i := range st.servedBy {
		st.servedBy[i] = int32(i)
	}
	for i := range st.peers {
		p := &st.peers[i]
		p.prices = make([]float64, numLinks)
		p.loads = make([]float64, numLinks)
		p.hdiag = make([]float64, numLinks)
		forgetPrices(p.prices)
	}
	st.layOutBoundaryLocked()
	return st, nil
}

// forgetPrices marks every retained price absent.
func forgetPrices(prices []float64) {
	for l := range prices {
		prices[l] = math.NaN()
	}
}

// ownsFlow reports whether a flowlet from src belongs to a shard this daemon
// currently serves (its own, plus any adopted by takeover). Out-of-range
// servers pass through so the allocator rejects them with its own clearer
// error. Called with the server mutex held.
func (st *shardState) ownsFlow(src, dst int) bool {
	if src < 0 || src >= st.smap.Topology().NumServers() {
		return true
	}
	return st.servedBy[st.smap.ShardOfFlow(src, dst)] == int32(st.index)
}

// servesLink reports whether the daemon currently serving the shard that
// owns link l is daemon `from` — the snapshot-acceptance rule. Called with
// the server mutex held.
func (st *shardState) servesLink(l topology.LinkID, from uint32) bool {
	owner := st.smap.OwnerOfLink(l)
	return owner >= 0 && st.servedBy[owner] == int32(from)
}

// successorOf returns the daemon that should adopt dead's rack block: the
// next index after dead, skipping daemons already known dead. Every
// surviving daemon computes the same answer from the same death knowledge,
// so exactly one adopts. Called with the server mutex held.
func (st *shardState) successorOf(dead int) int {
	n := st.smap.NumShards()
	for i := 1; i < n; i++ {
		c := (dead + i) % n
		if c == st.index {
			return c
		}
		if !st.peers[c].dead && c != dead {
			return c
		}
	}
	return st.index
}

// noteDead queues a daemon for death processing at the next iteration
// boundary. Safe without the server mutex (inMu-guarded).
func (st *shardState) noteDead(daemon int) {
	st.inMu.Lock()
	st.peers[daemon].deathPending = true
	st.inMu.Unlock()
}

// noteHeard stamps the liveness clock of a peer daemon.
func (st *shardState) noteHeard(daemon int) {
	st.inMu.Lock()
	st.peers[daemon].heard = time.Now()
	st.inMu.Unlock()
}

// storeReplica folds one FlowState chunk into the replica held for a peer
// daemon: a chunk with a new sequence number starts a fresh replica, further
// chunks with the same sequence append (frames arrive in order).
func (st *shardState) storeReplica(fs wire.FlowState) {
	st.inMu.Lock()
	p := &st.peers[fs.Shard]
	if p.replicaSeq != fs.Seq || p.replicaEpoch != fs.Epoch {
		p.replicaSeq, p.replicaEpoch, p.replica = fs.Seq, fs.Epoch, p.replica[:0]
	}
	for i := 0; i < fs.Len(); i++ {
		p.replica = append(p.replica, fs.Entry(i))
	}
	st.inMu.Unlock()
}

// closePeers tears down every outbound peer connection.
func (st *shardState) closePeers() {
	st.pmu.Lock()
	defer st.pmu.Unlock()
	for i := range st.peers {
		if pc := st.peers[i].conn; pc != nil {
			pc.conn.Close()
			st.peers[i].conn = nil
		}
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
	if s.isClosed() {
		conn.Close()
		return -1, net.ErrClosed
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
	pc := &peerConn{
		shard:        int(reply.Shard),
		conn:         conn,
		sc:           sc,
		needReset:    true,
		digestShadow: make([][2]uint64, s.shard.numLinks),
		snapShadow:   make([]uint64, s.shard.numLinks),
	}
	s.shard.pmu.Lock()
	p := &s.shard.peers[pc.shard]
	old := p.conn
	p.conn = pc
	s.shard.pmu.Unlock()
	if old != nil {
		old.conn.Close()
	}
	s.logf("peer shard %d connected (epoch %d)", pc.shard, reply.Epoch)
	return pc.shard, nil
}

// HasPeer reports whether an outbound connection to the given shard is
// currently attached; dial loops poll it to detect a dropped peer and
// redial.
func (s *Server) HasPeer(shard int) bool {
	if s.shard == nil {
		return false
	}
	s.shard.pmu.Lock()
	defer s.shard.pmu.Unlock()
	return shard >= 0 && shard < len(s.shard.peers) && s.shard.peers[shard].conn != nil
}

// validatePeer checks a PeerHello — an inbound one or the reply to ours —
// against this daemon's protocol generation and cluster shape.
func (st *shardState) validatePeer(h wire.PeerHello) error {
	switch {
	case h.Version != wire.Version:
		return fmt.Errorf("server: peer shard %d speaks protocol v%d, daemon speaks v%d", h.Shard, h.Version, wire.Version)
	case int(h.NumShards) != st.smap.NumShards():
		return fmt.Errorf("server: peer believes in %d shards, this cluster has %d", h.NumShards, st.smap.NumShards())
	case int(h.Shard) >= st.smap.NumShards():
		return fmt.Errorf("server: peer shard %d out of range for %d shards", h.Shard, st.smap.NumShards())
	case int(h.Shard) == st.index:
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
	s.shard.pmu.Lock()
	defer s.shard.pmu.Unlock()
	var out []int
	for shard := range s.shard.peers {
		if s.shard.peers[shard].conn != nil {
			out = append(out, shard)
		}
	}
	return out
}

// buildExchangeLocked encodes this iteration's digest+snapshot bundle for
// every connected peer and returns the peers to push to, in shard order.
// Called with s.mu (allocator state) and shard.sendMu held.
func (s *Server) buildExchangeLocked(seq uint64) []*peerConn {
	st := s.shard
	var peers []*peerConn
	st.pmu.Lock()
	for i := range st.peers {
		if pc := st.peers[i].conn; pc != nil {
			peers = append(peers, pc)
		}
	}
	st.pmu.Unlock()
	if len(peers) == 0 {
		return nil
	}

	st.alloc.LinkPrices(st.boundary, st.snapPrices)
	epoch := s.Epoch()
	// Takeover mode: replicate this daemon's live flows to its successor in
	// every bundle, so the successor always holds the state it would need to
	// adopt; announcements of completed takeovers ride in every bundle once.
	var replica []core.ParallelFlow
	successor := -1
	if st.takeover {
		replica = s.alloc.LiveFlows()
		successor = st.successorOf(st.index)
	}
	announce := st.announce
	st.announce = nil
	for _, pc := range peers {
		remote := st.peers[pc.shard].links
		if cap(st.digestLoads) < len(remote) {
			st.digestLoads = make([]float64, len(remote))
			st.digestHdiag = make([]float64, len(remote))
		}
		loads := st.digestLoads[:len(remote)]
		hdiag := st.digestHdiag[:len(remote)]
		st.alloc.BoundaryDigest(remote, loads, hdiag)
		buf := pc.appendDigestDelta(pc.buf[:0], seq, uint32(st.index), remote, loads, hdiag)
		exchBytes := len(buf)
		if st.takeover {
			buf = wire.AppendHeartbeat(buf, wire.Heartbeat{Seq: seq, Shard: uint32(st.index)})
		}
		for _, t := range announce {
			t.Epoch, t.Seq = epoch, seq
			buf = wire.AppendTakeover(buf, t)
		}
		if pc.shard == successor {
			buf = appendFlowStates(buf, epoch, seq, uint32(st.index), replica)
		}
		// The receiver acks every snapshot chunk, so count the chunks this
		// bundle will produce for sendExchange to await. Snapshot chunks go
		// last: their acks therefore confirm delivery of the whole bundle,
		// including any replica and takeover frames written above.
		ctrl := len(buf)
		buf = pc.appendSnapshotDelta(buf, epoch, seq, uint32(st.index), st.boundary, st.snapPrices)
		exchBytes += len(buf) - ctrl
		pc.needReset = false
		pc.buf = buf
		pc.seq = seq
		// Exchange byte accounting happens at build time, not send time, so
		// the counters are deterministic in step-driven runs. Heartbeat,
		// takeover, and replica frames are excluded: they were never part of
		// the fixed-v3 baseline the ratio is taken against.
		s.stExchBytes.Add(int64(exchBytes))
		s.stExchFixed.Add(fixedExchangeBytes(len(remote), len(st.boundary)))
	}
	return peers
}

// appendDigestDelta encodes this iteration's digest for one peer. On a
// fresh or resyncing connection it emits a reset digest — the receiver
// zeroes this daemon's contributions before applying it, so all-zero links
// can be omitted. Afterwards only links whose (load, hdiag) pair changed
// bit-wise since the last built bundle are listed; the receiver keeps prior
// values for omitted links. A quiet iteration still emits one empty frame
// (header only): the fold and staleness counters measure per-iteration
// exchange behaviour, and an explicit "nothing changed" marker keeps them —
// and every committed baseline that records them — independent of how much
// happened to change, at a cost of a few bytes.
func (pc *peerConn) appendDigestDelta(buf []byte, seq uint64, shard uint32, remote []topology.LinkID, loads, hdiag []float64) []byte {
	reset := pc.needReset
	links := pc.dLinks[:0]
	dl := pc.dLoads[:0]
	dh := pc.dHdiag[:0]
	for i, l := range remote {
		bits := [2]uint64{math.Float64bits(loads[i]), math.Float64bits(hdiag[i])}
		if !reset && pc.digestShadow[l] == bits {
			continue
		}
		pc.digestShadow[l] = bits
		if reset && loads[i] == 0 && hdiag[i] == 0 {
			continue // implied by the reset
		}
		links = append(links, uint32(l))
		dl = append(dl, loads[i])
		dh = append(dh, hdiag[i])
	}
	pc.dLinks, pc.dLoads, pc.dHdiag = links, dl, dh
	for start := 0; ; start += wire.MaxDigestDeltaEntries {
		end := min(start+wire.MaxDigestDeltaEntries, len(links))
		buf = wire.AppendPriceDigestDelta(buf, seq, shard, reset && start == 0, links[start:end], dl[start:end], dh[start:end])
		if end >= len(links) {
			break
		}
	}
	return buf
}

// appendSnapshotDelta encodes this iteration's boundary-price snapshot for
// one peer and sets pc.acks. A reset lists every boundary link — a pinned
// zero price is not the same as no pin, so resets cannot omit entries —
// while later bundles list only changed prices. At least one (possibly
// empty) frame is always emitted: the receiver acks each snapshot-delta
// chunk, and that ack is the delivery barrier step-driven determinism rests
// on.
func (pc *peerConn) appendSnapshotDelta(buf []byte, epoch, seq uint64, shard uint32, boundary []topology.LinkID, prices []float64) []byte {
	reset := pc.needReset
	links := pc.sLinks[:0]
	vals := pc.sPrices[:0]
	for i, l := range boundary {
		bits := math.Float64bits(prices[i])
		if !reset && pc.snapShadow[l] == bits {
			continue
		}
		pc.snapShadow[l] = bits
		links = append(links, uint32(l))
		vals = append(vals, prices[i])
	}
	pc.sLinks, pc.sPrices = links, vals
	pc.acks = 0
	for start := 0; ; start += wire.MaxSnapshotDeltaEntries {
		end := min(start+wire.MaxSnapshotDeltaEntries, len(links))
		buf = wire.AppendPriceSnapshotDelta(buf, epoch, seq, shard, reset && start == 0, links[start:end], vals[start:end])
		pc.acks++
		if end >= len(links) {
			break
		}
	}
	return buf
}

// fixedExchangeBytes is the wire cost this bundle's digest and snapshot had
// as fixed-v3 PriceDigest and PriceSnapshot frames with their chunking — the
// baseline of the ExchangeBytesFixed counter.
func fixedExchangeBytes(nRemote, nBoundary int) int64 {
	var b int64
	for start := 0; start < nRemote; start += wire.MaxDigestEntries {
		b += int64(wire.PriceDigestSize(min(wire.MaxDigestEntries, nRemote-start)))
	}
	for start := 0; start < nBoundary; start += wire.MaxSnapshotEntries {
		b += int64(wire.PriceSnapshotSize(min(wire.MaxSnapshotEntries, nBoundary-start)))
	}
	return b
}

// markResyncPeers forces the next bundle to every connected peer to carry a
// full (reset) digest and snapshot. Called whenever served-shard ownership
// changes, which changes the links bundles cover: a delta compares only the
// shadows its connection's last reset wrote (see peerConn).
func (st *shardState) markResyncPeers() {
	st.pmu.Lock()
	for i := range st.peers {
		if pc := st.peers[i].conn; pc != nil {
			pc.needReset = true
		}
	}
	st.pmu.Unlock()
}

// sendExchange pushes the prepared bundles and waits for each peer's ack
// (the receiver acknowledges from its reader goroutine immediately, never
// from its own iteration path, so two shards pushing to each other cannot
// deadlock). A peer that fails is dropped; the shard keeps iterating with
// its last imported state until the operator reconnects it.
func (s *Server) sendExchange(peers []*peerConn) {
	for _, pc := range peers {
		if len(pc.buf) == 0 {
			continue
		}
		// Bound the whole push: a wedged peer (alive but not draining) is
		// dropped at the deadline instead of freezing the allocation loop.
		if err := pc.conn.SetDeadline(time.Now().Add(peerExchangeTimeout)); err != nil {
			s.dropPeer(pc, err)
			continue
		}
		if err := s.pushBundle(pc); err != nil {
			s.dropPeer(pc, err)
			continue
		}
		if err := pc.conn.SetDeadline(time.Time{}); err != nil {
			s.dropPeer(pc, err)
		}
	}
}

// pushBundle writes one prepared bundle and consumes its acks (one per
// snapshot chunk, each echoing the bundle's sequence number).
func (s *Server) pushBundle(pc *peerConn) error {
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
	return nil
}

// dropPeer detaches a failed outbound peer connection. With takeover
// enabled a failed push is the death signal: the peer is queued for
// processing at the next iteration boundary, where this daemon either
// adopts its rack block (if it is the successor) or just records the death.
// Keeping detection on the synchronous push path — never on asynchronous
// inbound EOFs — is what keeps step-driven cluster runs deterministic.
func (s *Server) dropPeer(pc *peerConn, err error) {
	st := s.shard
	st.pmu.Lock()
	if p := &st.peers[pc.shard]; p.conn == pc {
		p.conn = nil
	}
	st.pmu.Unlock()
	pc.conn.Close()
	if s.isClosed() {
		return
	}
	s.logf("peer shard %d dropped: %v", pc.shard, err)
	if st.takeover {
		st.noteDead(pc.shard)
	}
}

// ---------------------------------------------------------------------------
// Inbound: serving peer sessions and folding their bundles.

// servePeer runs one inbound shard-to-shard session: it completes the
// symmetric handshake, then enqueues every digest and snapshot for the next
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
	s.logf("peer shard %d session from %v (epoch %d)", hello.Shard, conn.RemoteAddr(), hello.Epoch)

	var ack []byte
	var dd wire.PriceDigestDelta
	var sd wire.PriceSnapshotDelta
	for {
		typ, payload, err := sc.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
		}
		s.shard.noteHeard(int(hello.Shard))
		switch typ {
		case wire.TypePriceDigestDelta:
			if err := wire.DecodePriceDigestDelta(payload, &dd); err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if dd.Shard != hello.Shard {
				s.stPeerRej.Add(1)
				continue
			}
			s.shard.enqueueDigestDelta(dd)
		case wire.TypePriceSnapshotDelta:
			if err := wire.DecodePriceSnapshotDelta(payload, &sd); err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if sd.Shard != hello.Shard || sd.Epoch < hello.Epoch {
				// Wrong sender or a pre-session generation: drop the content
				// but still ack — the peer blocks on delivery, not
				// acceptance.
				s.stPeerRej.Add(1)
			} else {
				s.shard.enqueueSnapshotDelta(sd)
			}
			ack = wire.AppendExchangeAck(ack[:0], sd.Seq)
			if _, err := conn.Write(ack); err != nil {
				return fmt.Errorf("server: peer shard %d: ack: %w", hello.Shard, err)
			}
		case wire.TypeHeartbeat:
			hb, err := wire.DecodeHeartbeat(payload)
			if err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if hb.Shard != hello.Shard {
				s.stPeerRej.Add(1)
			}
		case wire.TypeFlowState:
			fs, err := wire.DecodeFlowState(payload)
			if err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if fs.Shard != hello.Shard || fs.Epoch < hello.Epoch {
				s.stPeerRej.Add(1)
				continue
			}
			s.shard.storeReplica(fs)
		case wire.TypeTakeover:
			tk, err := wire.DecodeTakeover(payload)
			if err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if tk.By != hello.Shard {
				s.stPeerRej.Add(1)
				continue
			}
			s.shard.enqueueTakeover(tk)
		default:
			return fmt.Errorf("server: peer shard %d: unexpected %s frame", hello.Shard, typ)
		}
	}
}

// enqueueTakeover queues a takeover announcement for the next iteration
// boundary, where it re-points servedBy like any other seq-stamped fold.
func (st *shardState) enqueueTakeover(tk wire.Takeover) {
	st.inMu.Lock()
	st.pending = append(st.pending, exchangeMsg{
		from: tk.By, seq: tk.Seq, takeover: true, dead: tk.Dead,
	})
	st.inMu.Unlock()
}

// enqueueDigestDelta copies a decoded delta digest (the decode scratch is
// reused frame to frame) into the pending queue.
func (st *shardState) enqueueDigestDelta(d wire.PriceDigestDelta) {
	m := exchangeMsg{
		from:  d.Shard,
		seq:   d.Seq,
		reset: d.Reset,
		links: make([]int32, len(d.Links)),
		vals:  make([]float64, len(d.Links)),
		hdiag: make([]float64, len(d.Links)),
	}
	for i, l := range d.Links {
		m.links[i] = int32(l)
	}
	copy(m.vals, d.Loads)
	copy(m.hdiag, d.Hdiag)
	st.inMu.Lock()
	st.pending = append(st.pending, m)
	st.inMu.Unlock()
}

// enqueueSnapshotDelta copies a decoded delta snapshot into the pending
// queue.
func (st *shardState) enqueueSnapshotDelta(sn wire.PriceSnapshotDelta) {
	m := exchangeMsg{
		from:     sn.Shard,
		seq:      sn.Seq,
		snapshot: true,
		reset:    sn.Reset,
		links:    make([]int32, len(sn.Links)),
		vals:     make([]float64, len(sn.Links)),
	}
	for i, l := range sn.Links {
		m.links[i] = int32(l)
	}
	copy(m.vals, sn.Prices)
	st.inMu.Lock()
	st.pending = append(st.pending, m)
	st.inMu.Unlock()
}

// foldExchangeLocked folds pending peer bundles into the allocator. Called with
// s.mu held, before flowlet events are drained. Step-driven daemons apply
// only bundles stamped at or before their own completed iteration count, so
// a bundle from iteration k lands at iteration k+1 on every shard no matter
// in which order a cluster client steps the daemons; free-running daemons
// fold everything that has arrived.
func (s *Server) foldExchangeLocked() {
	st := s.shard
	st.inMu.Lock()
	if len(st.pending) == 0 {
		st.inMu.Unlock()
		return
	}
	var apply []exchangeMsg
	if s.cfg.Interval == 0 {
		kept := st.pending[:0]
		for _, m := range st.pending {
			if m.seq <= s.seq {
				apply = append(apply, m)
			} else {
				kept = append(kept, m)
			}
		}
		st.pending = kept
	} else {
		apply = st.pending
		st.pending = st.drain[:0]
		st.drain = apply
	}
	st.inMu.Unlock()

	digests := false
	for _, m := range apply {
		// Staleness: how many local iterations old the peer's bundle is at
		// the moment it takes effect. Step-driven daemons fold at exactly
		// seq+1 (staleness 1); free-running daemons can fold older — or,
		// clamped to zero, newer — bundles depending on scheduling.
		s.stExchFolds.Add(1)
		if lag := int64(s.seq) - int64(m.seq); lag > 0 {
			s.stExchStale.Add(lag)
		}
		if m.takeover {
			s.applyTakeoverLocked(int(m.dead), int(m.from))
			digests = true // peer contributions changed; re-sum below
			continue
		}
		p := &st.peers[m.from]
		if m.snapshot {
			st.pinLinks = st.pinLinks[:0]
			st.pinVals = st.pinVals[:0]
			for i, l := range m.links {
				if l < 0 || int(l) >= st.numLinks || !st.servesLink(topology.LinkID(l), m.from) || !validPrice(m.vals[i]) {
					s.stPeerRej.Add(1)
					continue
				}
				st.pinLinks = append(st.pinLinks, topology.LinkID(l))
				st.pinVals = append(st.pinVals, m.vals[i])
			}
			if len(st.pinLinks) > 0 {
				st.alloc.PinPrices(st.pinLinks, st.pinVals)
			}
			// Retain the accepted prices for a successor, re-baselined by a
			// reset like the receiver state they mirror.
			if m.reset {
				forgetPrices(p.prices)
			}
			for i, l := range st.pinLinks {
				p.prices[l] = st.pinVals[i]
			}
			continue
		}
		if m.reset {
			// A reset digest re-baselines this sender: its previous
			// contributions are discarded before the (possibly sparse)
			// entries are applied, so all-zero links may be omitted.
			clear(p.loads)
			clear(p.hdiag)
		}
		for i, l := range m.links {
			if l < 0 || int(l) >= st.numLinks || st.posOf[l] < 0 || !finite(m.vals[i]) || !finite(m.hdiag[i]) {
				s.stPeerRej.Add(1)
				continue
			}
			p.loads[l] = m.vals[i]
			p.hdiag[l] = m.hdiag[i]
		}
		digests = true
	}
	if digests {
		clear(st.extLoad)
		clear(st.extHdiag)
		// Sum contributions in shard order: float addition is not
		// associative, so any other order would make runs with three or more
		// peers diverge at ULP scale. Records that contribute nothing (this
		// daemon's, dead or silent peers') hold +0, which adds exactly.
		for d := range st.peers {
			p := &st.peers[d]
			for i, l := range st.boundary {
				st.extLoad[i] += p.loads[l]
				st.extHdiag[i] += p.hdiag[l]
			}
		}
		st.alloc.SetExternalLoads(st.boundary, st.extLoad, st.extHdiag)
	}
}

// finite reports whether v is neither NaN nor infinite. Imported loads and
// Hessians must be: one NaN folded into a link's price update makes the price
// NaN, and through it every rate on the link, for good.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validPrice reports whether v can be imported as a link price (a peer's
// snapshot or a snapshot file): finite and non-negative, as NED keeps them.
func validPrice(v float64) bool { return finite(v) && v >= 0 }

// applyTakeoverLocked re-points ownership after daemon `by` adopted dead
// daemon `dead`: every shard dead served is now served by the adopter,
// dead's stale digest contributions are discarded (the adopter's own digest
// now carries those flows' loads), and the digest target sets are
// recomputed. Called with the server mutex held.
func (s *Server) applyTakeoverLocked(dead, by int) {
	st := s.shard
	if dead == st.index || dead < 0 || dead >= st.smap.NumShards() {
		s.stPeerRej.Add(1)
		return
	}
	st.buryLocked(dead)
	st.repointLocked(dead, by)
	st.retargetLocked()
	s.logf("shard takeover: daemon %d adopted daemon %d's rack block", by, dead)
}

// buryLocked records daemon d as dead and discards its digest contributions.
// The served-shard picture is about to change, so every peer gets a full
// bundle next iteration rather than a delta. Called with the server mutex
// held.
func (st *shardState) buryLocked(d int) {
	p := &st.peers[d]
	p.dead = true
	clear(p.loads)
	clear(p.hdiag)
	st.markResyncPeers()
}

// repointLocked hands every shard daemon `dead` served to daemon `by`.
// Called with the server mutex held.
func (st *shardState) repointLocked(dead, by int) {
	for x, d := range st.servedBy {
		if d == int32(dead) {
			st.servedBy[x] = int32(by)
		}
	}
}

// retargetLocked recomputes every daemon's links — the downward links of
// the shards it serves, in shard order — from servedBy. Called with the
// server mutex held.
func (st *shardState) retargetLocked() {
	for d := range st.peers {
		st.peers[d].links = st.peers[d].links[:0]
	}
	for x, d := range st.servedBy {
		st.peers[d].links = append(st.peers[d].links, st.smap.BoundaryLinks(x)...)
	}
}

// processDeathsLocked handles daemons detected dead since the last
// iteration boundary, in shard order: the successor adopts their rack blocks
// (seeding the replica flows and retained prices it holds) and queues a
// takeover announcement; everyone else records the death so successor
// elections stay consistent. Called with the server mutex and sendMu held,
// after foldExchangeLocked and before flowlet events are drained — a client
// re-registering an orphaned flow in the same step finds it already adopted.
func (s *Server) processDeathsLocked() {
	st := s.shard
	// Free-running daemons additionally declare peers dead on heartbeat
	// staleness; step-driven ones rely on push failures alone so runs stay
	// deterministic. A daemon never heard from is not stale.
	stale := st.interval > 0 && st.hbGrace > 0
	var now time.Time
	if stale {
		now = time.Now()
	}
	for d := range st.peers {
		p := &st.peers[d]
		st.inMu.Lock()
		died := p.deathPending || stale && !p.heard.IsZero() && now.Sub(p.heard) > st.hbGrace
		p.deathPending = false
		st.inMu.Unlock()
		if !died || d == st.index || p.dead {
			continue
		}
		st.buryLocked(d)
		if st.successorOf(d) == st.index {
			s.adoptLocked(d)
		}
	}
}

// adoptLocked makes this daemon serve dead's rack block: replica flows are
// admitted unowned (a reconnecting client claims them churn-free through
// the adoption path), the retained prices are seeded and unpinned so the
// adopted boundary is priced locally from now on, ownership and the boundary
// arrays are rebuilt, and the takeover is queued for announcement in the
// next exchange bundle.
func (s *Server) adoptLocked(dead int) {
	st := s.shard
	p := &st.peers[dead]
	st.inMu.Lock()
	replica := p.replica
	p.replica = nil
	st.inMu.Unlock()

	adopted, failed := 0, 0
	for _, e := range replica {
		switch known, err := s.admitUnownedLocked(e); {
		case err != nil:
			failed++
		case !known:
			adopted++
		}
	}
	var links []topology.LinkID
	var prices []float64
	for l, v := range p.prices {
		if !math.IsNaN(v) {
			links = append(links, topology.LinkID(l))
			prices = append(prices, v)
		}
	}
	if len(links) > 0 {
		st.alloc.SeedPrices(links, prices)
		st.alloc.UnpinPrices(links)
	}
	forgetPrices(p.prices)
	st.repointLocked(dead, st.index)
	st.rebuildBoundaryLocked()
	st.announce = append(st.announce, wire.Takeover{Dead: uint32(dead), By: uint32(st.index)})
	s.stTakeovers.Add(1)
	s.logf("adopted dead daemon %d: %d flows seeded (%d failed), now serving %d shards",
		dead, adopted, failed, st.numServedLocked())
}

// numServedLocked counts the shards this daemon currently serves.
func (st *shardState) numServedLocked() int {
	n := 0
	for _, by := range st.servedBy {
		if by == int32(st.index) {
			n++
		}
	}
	return n
}

// layOutBoundaryLocked derives every daemon's links from servedBy and this
// daemon's boundary arrays from its own: the boundary is the concatenation,
// in shard order, of every served shard's downward links, and the arrays
// dense over it start at zero. Called with the server mutex held (or before
// the daemon is shared).
func (st *shardState) layOutBoundaryLocked() {
	st.retargetLocked()
	st.boundary = st.peers[st.index].links
	for i := range st.posOf {
		st.posOf[i] = -1
	}
	for i, l := range st.boundary {
		st.posOf[l] = int32(i)
	}
	st.extLoad = make([]float64, len(st.boundary))
	st.extHdiag = make([]float64, len(st.boundary))
	st.snapPrices = make([]float64, len(st.boundary))
}

// rebuildBoundaryLocked lays the boundary out again after the served shard
// set changed. The peers' imported loads are indexed by LinkID, so links in
// both layouts keep their imported values, which keeps peers' delta digests
// (whose omitted entries mean "unchanged") correct across the rebuild. The
// allocator-visible external loads are zeroed: the next fold re-sums them,
// and in step-driven runs every live peer's bundle arrives before that fold,
// so the imported values are fully refreshed before they are ever summed.
func (st *shardState) rebuildBoundaryLocked() {
	st.layOutBoundaryLocked()
	st.alloc.SetExternalLoads(st.boundary, st.extLoad, st.extHdiag)
	st.markResyncPeers()
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
