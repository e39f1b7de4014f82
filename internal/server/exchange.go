package server

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/wire"
)

// This file implements the exchange, the daemon side of the sharded
// allocator cluster: a flowtuned instance configured with NumShards > 0 owns
// one rack block of the fabric (its servers plus all links anchored at its
// racks) and runs the ordinary allocator over just its own flows. The only
// state it shares with its peers is the boundary: downward links, which
// remote flows traverse. After every iteration the daemon pushes, to each
// peer,
//
//   - a PriceDigestDelta with its local load and Hessian-diagonal
//     contributions on the links that peer owns (so the owner prices boundary
//     links from cluster-wide demand), and
//   - a PriceSnapshotDelta of its own boundary-link prices (so peers rate
//     their cross-shard flows against the owner's congestion signal).
//
// Both list only what changed since the previous bundle to that peer.
//
// Inbound bundles are folded in at the next iteration boundary, exactly like
// flowlet notifications. In step-driven runs a bundle stamped with iteration
// k is folded at iteration k+1 regardless of shard stepping order, and every
// push waits for the receiver's ExchangeAck, which together make cluster
// runs deterministic; free-running daemons fold whatever has arrived.

// exchange is a sharded daemon's side of the boundary exchange: the imported
// peer state, the served-shard picture, the failover state and the delta
// shadows. queue takes inbound messages (a peerDecoder decodes them), fold
// applies them to the loop's allocator, deaths adopts or buries dead peers,
// and prepare and build encode the outbound bundles. Like loop it does no I/O, starts no goroutine and
// takes no lock: Server, the shell around it, owns the peer connections and
// calls it under s.mu.
type exchange struct {
	smap       *topology.ShardMap
	index      int
	numLinks   int
	takeover   bool
	stepDriven bool

	// servedBy[x] is the daemon currently serving shard x's rack block:
	// initially the identity, re-pointed by takeovers. Every ownership
	// decision — flow admission, digest targeting, snapshot acceptance —
	// routes through it.
	servedBy []int32

	// peers holds one record per daemon of the cluster; its length never
	// changes.
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

	// announce holds takeover announcements awaiting the next iteration's
	// bundles; announcing holds the ones this iteration's bundles carry.
	announce, announcing []wire.Takeover

	// pending holds the inbound messages awaiting fold, in arrival order.
	pending []exchangeMsg

	// This iteration's bundle state, set by prepare: the boundary prices,
	// and in takeover mode the live flows replicated to successor.
	snapPrices []float64
	replica    []core.ParallelFlow
	successor  int

	// Reused build and fold scratch.
	digestLoads, digestHdiag []float64
	dLinks, sLinks           []uint32
	dLoads, dHdiag, sPrices  []float64
	pinLinks                 []topology.LinkID
	pinVals                  []float64
}

// exchangeMsg is one decoded inbound peer frame: a digest's loads and
// sensitivities in vals/hdiag, a snapshot's prices in vals, a takeover's
// adopter (from) and adopted daemon (dead), or flows of replica (seq, epoch)
// in entries. Entries are a partial update (absent links keep their prior
// imported values) unless reset re-baselines: a reset digest zeroes the
// sender's contributions first, a reset snapshot lists every price.
type exchangeMsg struct {
	kind       msgKind
	reset      bool
	from, dead uint32
	seq, epoch uint64
	links      []uint32
	vals       []float64
	hdiag      []float64
	entries    []wire.FlowStateEntry
}

// msgKind says what an exchangeMsg carries; the kinds after msgRefused are
// the ones queue takes.
type msgKind uint8

const (
	msgHeartbeat msgKind = iota
	msgRefused           // wrong sender or older epoch: counted, not queued
	msgDigest
	msgSnapshot
	msgTakeover
	msgReplica
)

// peerState is the exchange's record of one daemon of the cluster, indexed
// by daemon (shard) index, so iterating the records visits the cluster in
// shard order. Link-indexed arrays are numLinks long and indexed by LinkID;
// the record of the daemon itself holds no imports.
type peerState struct {
	// dead marks the daemon known dead (adopted or announced), deathPending
	// one detected dead and awaiting the next iteration boundary. links
	// lists the downward links of every shard the daemon currently serves: a
	// peer's digest target set, and for this daemon's own record its
	// boundary. prices retains the peer's latest accepted price of every link
	// it serves (NaN where none was accepted), merged across delta snapshots
	// so its successor can seed the full set when adopting. loads and hdiag
	// are the peer's latest digest contributions on this daemon's boundary
	// links. replica is the latest flow-state replica it sent — the flows it
	// was serving, reassembled from the FlowState chunks of one (replicaSeq,
	// replicaEpoch).
	dead, deathPending       bool
	links                    []topology.LinkID
	prices                   []float64
	loads, hdiag             []float64
	replicaSeq, replicaEpoch uint64
	replica                  []wire.FlowStateEntry

	// needReset forces the next bundle to the daemon to carry full (reset)
	// digest and snapshot frames. Set when a connection to it is attached —
	// the receiver's imported state is unknown — and whenever served-shard
	// ownership changes.
	needReset bool
	// digestShadow / snapShadow record, per link, the (load, hdiag) and
	// price bit patterns last encoded for the daemon; a delta bundle lists
	// only links whose value differs. A reset bundle writes the shadow of
	// every link it covers, and every change of the covered set forces a
	// reset, so a delta only ever compares links its last reset wrote.
	// Shadows advance optimistically at build time: a push failure drops the
	// connection, and the reconnect's reset re-baselines the receiver, so
	// sender shadow and receiver state can never drift apart. Indexed by
	// LinkID, not boundary position, so they stay valid across takeovers.
	digestShadow [][2]uint64
	snapShadow   []uint64
}

// newExchange validates the sharded configuration and lays out the
// exchange's state.
func newExchange(cfg Config) (exchange, error) {
	if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.NumShards {
		return exchange{}, fmt.Errorf("server: ShardIndex %d out of range for %d shards", cfg.ShardIndex, cfg.NumShards)
	}
	smap, err := topology.NewShardMap(cfg.Topology, cfg.NumShards)
	if err != nil {
		return exchange{}, err
	}
	numLinks := cfg.Topology.NumLinks()
	x := exchange{
		smap:       smap,
		index:      cfg.ShardIndex,
		numLinks:   numLinks,
		takeover:   cfg.Takeover,
		stepDriven: cfg.Interval == 0,
		servedBy:   make([]int32, cfg.NumShards),
		peers:      make([]peerState, cfg.NumShards),
		posOf:      make([]int32, numLinks),
	}
	for i := range x.servedBy {
		x.servedBy[i] = int32(i)
	}
	for i := range x.peers {
		p := &x.peers[i]
		p.prices = make([]float64, numLinks)
		p.loads = make([]float64, numLinks)
		p.hdiag = make([]float64, numLinks)
		p.digestShadow = make([][2]uint64, numLinks)
		p.snapShadow = make([]uint64, numLinks)
		forgetPrices(p.prices)
	}
	x.layOutBoundary()
	return x, nil
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
// error.
func (x *exchange) ownsFlow(src, dst int) bool {
	if src < 0 || src >= x.smap.Topology().NumServers() {
		return true
	}
	return x.servedBy[x.smap.ShardOfFlow(src, dst)] == int32(x.index)
}

// servesLink reports whether the daemon currently serving the shard that
// owns link l is daemon `from` — the snapshot-acceptance rule.
func (x *exchange) servesLink(l topology.LinkID, from uint32) bool {
	owner := x.smap.OwnerOfLink(l)
	return owner >= 0 && x.servedBy[owner] == int32(from)
}

// successorOf returns the daemon that should adopt dead's rack block: the
// next index after dead, skipping daemons already known dead. Every
// surviving daemon computes the same answer from the same death knowledge,
// so exactly one adopts.
func (x *exchange) successorOf(dead int) int {
	n := x.smap.NumShards()
	for i := 1; i < n; i++ {
		c := (dead + i) % n
		if c == x.index {
			return c
		}
		if !x.peers[c].dead && c != dead {
			return c
		}
	}
	return x.index
}

// ---------------------------------------------------------------------------
// Inbound: receiving and folding peer bundles.

// peerDecoder decodes the frames of one peer session. Each session reader
// owns one, so decoding takes no lock and touches no exchange state.
type peerDecoder struct {
	dd wire.PriceDigestDelta
	sd wire.PriceSnapshotDelta
}

// decode decodes one frame of daemon from's peer session, whose PeerHello
// carried epoch; a frame from the wrong sender or an older epoch comes back
// as msgRefused. A snapshot chunk is acknowledged whether or not it is
// accepted — the peer blocks on delivery, not acceptance — so its seq is set
// either way.
func (d *peerDecoder) decode(from uint32, epoch uint64, typ wire.MsgType, payload []byte) (m exchangeMsg, err error) {
	m = exchangeMsg{kind: msgRefused, from: from}
	// The decode scratch is reused frame to frame, so messages get copies.
	switch typ {
	case wire.TypePriceDigestDelta:
		if err = wire.DecodePriceDigestDelta(payload, &d.dd); err == nil && d.dd.Shard == from {
			m.kind, m.seq, m.reset = msgDigest, d.dd.Seq, d.dd.Reset
			m.links, m.vals, m.hdiag = slices.Clone(d.dd.Links), slices.Clone(d.dd.Loads), slices.Clone(d.dd.Hdiag)
		}
	case wire.TypePriceSnapshotDelta:
		if err = wire.DecodePriceSnapshotDelta(payload, &d.sd); err == nil && d.sd.Shard == from && d.sd.Epoch >= epoch {
			m.kind, m.reset = msgSnapshot, d.sd.Reset
			m.links, m.vals = slices.Clone(d.sd.Links), slices.Clone(d.sd.Prices)
		}
		m.seq = d.sd.Seq
	case wire.TypeHeartbeat:
		var hb wire.Heartbeat
		if hb, err = wire.DecodeHeartbeat(payload); err == nil && hb.Shard == from {
			m.kind = msgHeartbeat
		}
	case wire.TypeFlowState:
		var fs wire.FlowState
		if fs, err = wire.DecodeFlowState(payload); err == nil && fs.Shard == from && fs.Epoch >= epoch {
			m.kind, m.seq, m.epoch = msgReplica, fs.Seq, fs.Epoch
			m.entries = make([]wire.FlowStateEntry, fs.Len())
			for i := range m.entries {
				m.entries[i] = fs.Entry(i)
			}
		}
	case wire.TypeTakeover:
		var tk wire.Takeover
		if tk, err = wire.DecodeTakeover(payload); err == nil && tk.By == from {
			m.kind, m.seq, m.dead = msgTakeover, tk.Seq, tk.Dead
		}
	default:
		err = fmt.Errorf("unexpected %s frame", typ)
	}
	return m, err
}

// queue takes one decoded message, in arrival order: a replica chunk is
// stored at once, digests, snapshots and takeovers wait in pending for the
// next fold.
func (x *exchange) queue(m exchangeMsg) {
	if m.kind != msgReplica {
		x.pending = append(x.pending, m)
		return
	}
	// A chunk with a new sequence number starts a fresh replica, further
	// chunks with the same sequence append (frames arrive in order).
	p := &x.peers[m.from]
	if p.replicaSeq != m.seq || p.replicaEpoch != m.epoch {
		p.replicaSeq, p.replicaEpoch, p.replica = m.seq, m.epoch, p.replica[:0]
	}
	p.replica = append(p.replica, m.entries...)
}

// fold applies pending peer messages to l's allocator, before its flowlet
// events. Step-driven daemons apply only messages stamped at or before their
// own completed iteration count, so a bundle from iteration k lands at
// iteration k+1 on every shard no matter in which order a cluster client
// steps the daemons, and the later ones stay queued; free-running daemons
// fold everything that has arrived.
func (x *exchange) fold(l *loop) {
	kept := x.pending[:0]
	digests := false
	for _, m := range x.pending {
		if x.stepDriven && m.seq > l.seq {
			kept = append(kept, m)
			continue
		}
		// Staleness: how many local iterations old the peer's bundle is at
		// the moment it takes effect. Step-driven daemons fold at exactly
		// seq+1 (staleness 1); free-running daemons can fold older — or,
		// clamped to zero, newer — bundles depending on scheduling.
		l.stats.ExchangeFolds++
		if lag := int64(l.seq) - int64(m.seq); lag > 0 {
			l.stats.ExchangeStalenessIters += lag
		}
		switch m.kind {
		case msgTakeover:
			x.applyTakeover(l, int(m.dead), int(m.from))
			digests = true // peer contributions changed; re-sum below
		case msgSnapshot:
			x.pin(l, &m)
		default:
			x.importDigest(l, &m)
			digests = true
		}
	}
	clear(x.pending[len(kept):])
	x.pending = kept
	if digests {
		clear(x.extLoad)
		clear(x.extHdiag)
		// Sum contributions in shard order: float addition is not
		// associative, so any other order would make runs with three or more
		// peers diverge at ULP scale. Records that contribute nothing (this
		// daemon's, dead or silent peers') hold +0, which adds exactly.
		for d := range x.peers {
			p := &x.peers[d]
			for i, l := range x.boundary {
				x.extLoad[i] += p.loads[l]
				x.extHdiag[i] += p.hdiag[l]
			}
		}
		l.alloc.SetExternalLoads(x.boundary, x.extLoad, x.extHdiag)
	}
}

// pin pins the prices of a snapshot that its sender serves and retains them
// for a successor, re-baselined by a reset like the receiver state they
// mirror.
func (x *exchange) pin(l *loop, m *exchangeMsg) {
	x.pinLinks = x.pinLinks[:0]
	x.pinVals = x.pinVals[:0]
	for i, link := range m.links {
		if int(link) >= x.numLinks || !x.servesLink(topology.LinkID(link), m.from) || !validPrice(m.vals[i]) {
			l.stats.PeerRejected++
			continue
		}
		x.pinLinks = append(x.pinLinks, topology.LinkID(link))
		x.pinVals = append(x.pinVals, m.vals[i])
	}
	if len(x.pinLinks) > 0 {
		l.alloc.PinPrices(x.pinLinks, x.pinVals)
	}
	p := &x.peers[m.from]
	if m.reset {
		forgetPrices(p.prices)
	}
	for i, link := range x.pinLinks {
		p.prices[link] = x.pinVals[i]
	}
}

// importDigest records a digest's contributions on this daemon's boundary.
func (x *exchange) importDigest(l *loop, m *exchangeMsg) {
	p := &x.peers[m.from]
	if m.reset {
		// A reset digest re-baselines this sender: its previous
		// contributions are discarded before the (possibly sparse) entries
		// are applied, so all-zero links may be omitted.
		clear(p.loads)
		clear(p.hdiag)
	}
	for i, link := range m.links {
		if int(link) >= x.numLinks || x.posOf[link] < 0 || !finite(m.vals[i]) || !finite(m.hdiag[i]) {
			l.stats.PeerRejected++
			continue
		}
		p.loads[link] = m.vals[i]
		p.hdiag[link] = m.hdiag[i]
	}
}

// finite reports whether v is neither NaN nor infinite. Imported loads and
// Hessians must be: one NaN folded into a link's price update makes the price
// NaN, and through it every rate on the link, for good.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validPrice reports whether v can be imported as a link price (a peer's
// snapshot or a snapshot file): finite and non-negative, as NED keeps them.
func validPrice(v float64) bool { return finite(v) && v >= 0 }

// ---------------------------------------------------------------------------
// Failover: deaths, adoption and takeover announcements.

// applyTakeover re-points ownership after daemon `by` adopted dead daemon
// `dead`: every shard dead served is now served by the adopter, dead's stale
// digest contributions are discarded (the adopter's own digest now carries
// those flows' loads), and the digest target sets are recomputed.
func (x *exchange) applyTakeover(l *loop, dead, by int) {
	if dead == x.index || dead < 0 || dead >= x.smap.NumShards() {
		l.stats.PeerRejected++
		return
	}
	x.bury(dead)
	x.repoint(dead, by)
	x.retarget()
	l.log("shard takeover: daemon %d adopted daemon %d's rack block", by, dead)
}

// bury records daemon d as dead and discards its digest contributions. The
// served-shard picture is about to change, so every peer gets a full bundle
// next iteration rather than a delta.
func (x *exchange) bury(d int) {
	p := &x.peers[d]
	p.dead = true
	clear(p.loads)
	clear(p.hdiag)
	x.markResync()
}

// markResync forces the next bundle to every peer to carry a full (reset)
// digest and snapshot. Called whenever served-shard ownership changes, which
// changes the links bundles cover: a delta compares only the shadows the last
// reset wrote (see peerState).
func (x *exchange) markResync() {
	for i := range x.peers {
		x.peers[i].needReset = true
	}
}

// repoint hands every shard daemon `dead` served to daemon `by`.
func (x *exchange) repoint(dead, by int) {
	for s, d := range x.servedBy {
		if d == int32(dead) {
			x.servedBy[s] = int32(by)
		}
	}
}

// retarget recomputes every daemon's links — the downward links of the
// shards it serves, in shard order — from servedBy.
func (x *exchange) retarget() {
	for d := range x.peers {
		x.peers[d].links = x.peers[d].links[:0]
	}
	for s, d := range x.servedBy {
		x.peers[d].links = append(x.peers[d].links, x.smap.BoundaryLinks(s)...)
	}
}

// deaths handles daemons detected dead since the last iteration boundary, in
// shard order: the successor adopts their rack blocks (seeding the replica
// flows and retained prices it holds) and queues a takeover announcement;
// everyone else records the death so successor elections stay consistent.
// It runs after fold and before the loop's fold, so a client re-registering
// an orphaned flow in the same step finds it already adopted.
func (x *exchange) deaths(l *loop) {
	for d := range x.peers {
		p := &x.peers[d]
		died := p.deathPending
		p.deathPending = false
		if !died || d == x.index || p.dead {
			continue
		}
		x.bury(d)
		if x.successorOf(d) == x.index {
			x.adopt(l, d)
		}
	}
}

// adopt makes this daemon serve dead's rack block, which deaths has buried:
// replica flows are admitted unowned (a reconnecting client claims them
// churn-free through the adoption path), the retained prices are seeded and
// unpinned so the adopted boundary is priced locally from now on, ownership
// and the boundary arrays are rebuilt, and the takeover is queued for
// announcement in the next exchange bundle.
func (x *exchange) adopt(l *loop, dead int) {
	p := &x.peers[dead]
	replica := p.replica
	p.replica = nil

	adopted, failed := 0, 0
	for _, e := range replica {
		switch known, err := l.admitUnowned(e); {
		case err != nil:
			failed++
		case !known:
			adopted++
		}
	}
	var links []topology.LinkID
	var prices []float64
	for link, v := range p.prices {
		if !math.IsNaN(v) {
			links = append(links, topology.LinkID(link))
			prices = append(prices, v)
		}
	}
	if len(links) > 0 {
		l.alloc.SeedPrices(links, prices)
		l.alloc.UnpinPrices(links)
	}
	forgetPrices(p.prices)
	x.repoint(dead, x.index)
	// The imported loads are indexed by LinkID, so links in both boundary
	// layouts keep them (peers' delta digests stay correct); the external
	// loads the allocator sees are zeroed until the next fold re-sums them.
	x.layOutBoundary()
	l.alloc.SetExternalLoads(x.boundary, x.extLoad, x.extHdiag)
	x.announce = append(x.announce, wire.Takeover{Dead: uint32(dead), By: uint32(x.index)})
	l.stats.Takeovers++
	l.log("adopted dead daemon %d: %d flows seeded (%d failed), now serving %d shards",
		dead, adopted, failed, x.numServed())
}

// numServed counts the shards this daemon currently serves.
func (x *exchange) numServed() int {
	n := 0
	for _, by := range x.servedBy {
		if by == int32(x.index) {
			n++
		}
	}
	return n
}

// layOutBoundary derives every daemon's links from servedBy and this
// daemon's boundary arrays from its own: the boundary is the concatenation,
// in shard order, of every served shard's downward links, and the arrays
// dense over it start at zero.
func (x *exchange) layOutBoundary() {
	x.retarget()
	x.boundary = x.peers[x.index].links
	for i := range x.posOf {
		x.posOf[i] = -1
	}
	for i, link := range x.boundary {
		x.posOf[link] = int32(i)
	}
	x.extLoad = make([]float64, len(x.boundary))
	x.extHdiag = make([]float64, len(x.boundary))
	x.snapPrices = make([]float64, len(x.boundary))
}

// ---------------------------------------------------------------------------
// Outbound: building bundles.

// prepare starts this iteration's bundles: it reads the boundary prices and,
// in takeover mode, the live flows to replicate to the successor, and takes
// the queued takeover announcements, which ride in every bundle built until
// the next prepare. Called once per iteration that has a peer to push to,
// before its builds.
func (x *exchange) prepare(l *loop) {
	l.alloc.LinkPrices(x.boundary, x.snapPrices)
	// Takeover mode: replicate this daemon's live flows to its successor in
	// every bundle, so the successor always holds the state it would need to
	// adopt.
	x.replica, x.successor = nil, -1
	if x.takeover {
		x.replica = l.alloc.LiveFlows()
		x.successor = x.successorOf(x.index)
	}
	x.announcing, x.announce = x.announce, nil
}

// build appends this iteration's bundle for daemon `to` to buf and returns it
// with the number of ExchangeAcks the receiver will send for it (one per
// snapshot chunk).
func (x *exchange) build(buf []byte, l *loop, to int, seq, epoch uint64) ([]byte, int) {
	p := &x.peers[to]
	remote := p.links
	x.digestLoads = slices.Grow(x.digestLoads[:0], len(remote))[:len(remote)]
	x.digestHdiag = slices.Grow(x.digestHdiag[:0], len(remote))[:len(remote)]
	l.alloc.BoundaryDigest(remote, x.digestLoads, x.digestHdiag)
	start := len(buf)
	buf = x.appendDigestDelta(buf, p, seq)
	exchBytes := len(buf) - start
	if x.takeover {
		buf = wire.AppendHeartbeat(buf, wire.Heartbeat{Seq: seq, Shard: uint32(x.index)})
	}
	for _, t := range x.announcing {
		t.Epoch, t.Seq = epoch, seq
		buf = wire.AppendTakeover(buf, t)
	}
	if to == x.successor {
		buf = appendFlowStates(buf, epoch, seq, uint32(x.index), x.replica)
	}
	// Snapshot chunks go last: their acks therefore confirm delivery of the
	// whole bundle, including any replica and takeover frames written above.
	ctrl := len(buf)
	buf, acks := x.appendSnapshotDelta(buf, p, epoch, seq)
	exchBytes += len(buf) - ctrl
	p.needReset = false
	// Exchange byte accounting happens at build time, not send time, so the
	// counters are deterministic in step-driven runs. Heartbeat, takeover,
	// and replica frames are excluded: they were never part of the fixed-v3
	// baseline the ratio is taken against.
	l.stats.ExchangeBytes += int64(exchBytes)
	l.stats.ExchangeBytesFixed += fixedExchangeBytes(len(remote), len(x.boundary))
	return buf, acks
}

// appendDigestDelta encodes the digest build has taken for peer p. While p
// needs a reset it emits a reset digest — the receiver zeroes this daemon's
// contributions before applying it, so all-zero links can be omitted.
// Afterwards only links whose (load, hdiag) pair changed bit-wise since the
// last built bundle are listed; the receiver keeps prior values for omitted
// links. A quiet iteration still emits one empty frame (header only): the
// fold and staleness counters measure per-iteration exchange behaviour, and
// an explicit "nothing changed" marker keeps them — and every committed
// baseline that records them — independent of how much happened to change,
// at a cost of a few bytes.
func (x *exchange) appendDigestDelta(buf []byte, p *peerState, seq uint64) []byte {
	reset := p.needReset
	loads, hdiag := x.digestLoads, x.digestHdiag
	links := x.dLinks[:0]
	dl := x.dLoads[:0]
	dh := x.dHdiag[:0]
	for i, l := range p.links {
		bits := [2]uint64{math.Float64bits(loads[i]), math.Float64bits(hdiag[i])}
		if !reset && p.digestShadow[l] == bits {
			continue
		}
		p.digestShadow[l] = bits
		if reset && loads[i] == 0 && hdiag[i] == 0 {
			continue // implied by the reset
		}
		links = append(links, uint32(l))
		dl = append(dl, loads[i])
		dh = append(dh, hdiag[i])
	}
	x.dLinks, x.dLoads, x.dHdiag = links, dl, dh
	for start := 0; ; start += wire.MaxDigestDeltaEntries {
		end := min(start+wire.MaxDigestDeltaEntries, len(links))
		buf = wire.AppendPriceDigestDelta(buf, seq, uint32(x.index), reset && start == 0, links[start:end], dl[start:end], dh[start:end])
		if end >= len(links) {
			return buf
		}
	}
}

// appendSnapshotDelta encodes this iteration's boundary-price snapshot for
// peer p and returns the number of chunks. A reset lists every boundary link
// — a pinned zero price is not the same as no pin, so resets cannot omit
// entries — while later bundles list only changed prices. At least one
// (possibly empty) frame is always emitted: the receiver acks each
// snapshot-delta chunk, and that ack is the delivery barrier step-driven
// determinism rests on.
func (x *exchange) appendSnapshotDelta(buf []byte, p *peerState, epoch, seq uint64) ([]byte, int) {
	reset := p.needReset
	links := x.sLinks[:0]
	vals := x.sPrices[:0]
	for i, l := range x.boundary {
		bits := math.Float64bits(x.snapPrices[i])
		if !reset && p.snapShadow[l] == bits {
			continue
		}
		p.snapShadow[l] = bits
		links = append(links, uint32(l))
		vals = append(vals, x.snapPrices[i])
	}
	x.sLinks, x.sPrices = links, vals
	for start, chunks := 0, 1; ; start, chunks = start+wire.MaxSnapshotDeltaEntries, chunks+1 {
		end := min(start+wire.MaxSnapshotDeltaEntries, len(links))
		buf = wire.AppendPriceSnapshotDelta(buf, epoch, seq, uint32(x.index), reset && start == 0, links[start:end], vals[start:end])
		if end >= len(links) {
			return buf, chunks
		}
	}
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
