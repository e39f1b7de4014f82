package transport

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// ErrEpochChanged reports that the daemon pushed an EpochNotify frame
// without the drain flag: its allocator state was reset under a live
// connection. The client has already recorded the new epoch; the caller
// should re-establish the session with Reconnect, which re-registers the
// live flowlet set.
var ErrEpochChanged = errors.New("transport: daemon epoch changed; reconnect to re-register flowlets")

// ErrDaemonDraining reports that the daemon pushed a drain-flagged
// EpochNotify: it is shutting down on purpose after snapshotting its state.
// The client should freeze at last-known rates and fail over — to the
// restarted daemon via ResumeReconnect (the snapshot restore holds its flows
// ready for adoption), or to the peer that adopts its shard.
var ErrDaemonDraining = errors.New("transport: daemon draining; fail over at last-known rates")

// AllocatorBackend is where the simulation engine's Flowtune control plane
// terminates: either the in-process allocator (the one-block
// core.ParallelAllocator every flowtuned runs) or a flowtuned daemon reached
// through an AllocClient. FlowletStart/FlowletEnd deliver
// notifications; Step folds pending notifications in, runs one allocator
// iteration, and returns the rate updates it produced.
type AllocatorBackend interface {
	FlowletStart(id core.FlowID, src, dst int, weight float64) error
	FlowletEnd(id core.FlowID) error
	Step() ([]core.RateUpdate, error)
}

// sizedStarter is implemented by backends that carry the wire flowlet-size
// hint (bytes, 0 = unknown) alongside a registration. The hint travels in the
// FlowletAdd frame and stops at the daemon's decoder; no allocator reads it.
type sizedStarter interface {
	FlowletStartSized(id core.FlowID, src, dst int, weight float64, size int64) error
}

// startFlowlet registers a flowlet with b, passing the size hint through
// when the backend can carry it.
func startFlowlet(b AllocatorBackend, id core.FlowID, src, dst int, weight float64, size int64) error {
	if s, ok := b.(sizedStarter); ok && size > 0 {
		return s.FlowletStartSized(id, src, dst, weight, size)
	}
	return b.FlowletStart(id, src, dst, weight)
}

// inprocBackend adapts the in-process allocator to AllocatorBackend: a Step
// is one iteration followed by the notify filter, the daemon's own step. The
// returned updates reuse one buffer and are valid until the next Step.
type inprocBackend struct {
	alloc   *core.ParallelAllocator
	updates []core.RateUpdate
}

func (b *inprocBackend) FlowletStart(id core.FlowID, src, dst int, weight float64) error {
	return b.alloc.FlowletStart(id, src, dst, weight)
}
func (b *inprocBackend) FlowletEnd(id core.FlowID) error { return b.alloc.FlowletEnd(id) }
func (b *inprocBackend) Step() ([]core.RateUpdate, error) {
	b.alloc.Iterate()
	b.updates = b.alloc.AppendUpdates(allocatorThreshold, b.updates[:0])
	return b.updates, nil
}

// AllocClient is the endpoint side of the flowtuned wire protocol. It
// implements AllocatorBackend over any net.Conn — loopback TCP via
// DialAlloc, or an in-memory net.Pipe end via NewAllocClient for
// deterministic tests.
//
// Flowlet notifications are buffered and flushed in one write per Step (or
// by an explicit Flush), mirroring the paper's MTU batching of control
// messages. AllocClient is not safe for concurrent use; the simulation
// engine and the scenario runner drive it from a single goroutine.
type AllocClient struct {
	conn net.Conn
	sc   *wire.Scanner
	id   uint64 // client label from the Hello handshake

	// wbuf buffers outgoing frames; wbufHigh is the decaying high-water
	// mark of its length at a write, which decides whether the write keeps
	// its capacity (wire.Recycle), so a set-up burst's is let go.
	wbuf     []byte
	wbufHigh int
	seq      uint64 // step sequence counter

	epoch    uint64
	interval time.Duration

	// freeze enables freeze-on-failure: a failed Step marks the session
	// frozen and surfaces last-known rates (no updates, no error) instead of
	// erroring, until ResumeReconnect repairs it. Off by default — callers
	// that want hard errors (tests, operator tools) keep them.
	freeze bool
	frozen bool
	// frozenEnds records flows that ended while the session was frozen:
	// their End frames can never reach the dead daemon, but the successor
	// still holds the flows (snapshot or replica), so the failover replays
	// these ends there to keep ghost flows from holding fabric shares.
	frozenEnds []core.FlowID

	// regs holds the full registration of every live flow, so Reconnect can
	// re-register the live flowlet set with a fresh daemon session, and idx
	// maps a flow ID to its position in regs, mirroring the in-process
	// duplicate/unknown defense: one probe per start (GetOrPut) and one per
	// end (Take). A position is stable while its flow lives; an end pushes it
	// on freeRegs for the next start to reuse, so no entry ever moves. A free
	// entry carries no mark: it is the one idx does not point back to.
	idx      core.FlowIndex
	regs     []flowReg
	freeRegs []int32
	updates  []core.RateUpdate // reused across Step calls
}

// flowReg is the client-side record of one registered flowlet.
type flowReg struct {
	id       core.FlowID
	src, dst int32
	weight   float64
	size     int64 // flowlet-size hint in bytes (0 = unknown)
}

// DialAlloc connects to a flowtuned daemon over TCP and performs the
// handshake.
func DialAlloc(addr string, clientID uint64) (*AllocClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial allocator: %w", err)
	}
	c, err := NewAllocClient(conn, clientID)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewAllocClient wraps an established connection to a flowtuned daemon and
// performs the Hello/Welcome handshake.
func NewAllocClient(conn net.Conn, clientID uint64) (*AllocClient, error) {
	c := &AllocClient{id: clientID}
	if err := c.handshake(conn); err != nil {
		return nil, err
	}
	return c, nil
}

// handshakeTimeout bounds the Hello/Welcome exchange: a daemon that accepts
// TCP but never answers (wrong service, frozen process) must fail the dial —
// and a ShardedClient's failover through it — instead of wedging it.
const handshakeTimeout = 2 * time.Second

// handshake performs the Hello/Welcome exchange over conn and adopts it as
// the client's connection.
func (c *AllocClient) handshake(conn net.Conn) error {
	sc := wire.NewScanner(conn)
	hello := wire.AppendHello(nil, wire.Hello{Version: wire.Version, ClientID: c.id})
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return fmt.Errorf("transport: allocator handshake: %w", err)
	}
	if _, err := conn.Write(hello); err != nil {
		return fmt.Errorf("transport: allocator handshake: %w", err)
	}
	typ, payload, err := sc.Next()
	if err != nil {
		return fmt.Errorf("transport: allocator handshake: %w", err)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return fmt.Errorf("transport: allocator handshake: %w", err)
	}
	if typ != wire.TypeWelcome {
		return fmt.Errorf("transport: allocator handshake: expected welcome, got %s", typ)
	}
	w, err := wire.DecodeWelcome(payload)
	if err != nil {
		return fmt.Errorf("transport: allocator handshake: %w", err)
	}
	if w.Version != wire.Version {
		return fmt.Errorf("transport: daemon speaks protocol v%d, client supports v%d", w.Version, wire.Version)
	}
	c.conn = conn
	c.sc = sc
	c.epoch = w.Epoch
	c.interval = time.Duration(w.IntervalNanos)
	return nil
}

// Reconnect re-establishes the session over a new connection after the old
// one failed (or the daemon restarted): it closes the previous connection (so
// the daemon's reader notices the death promptly and retires the old
// session's ownership), performs the handshake on conn, and re-registers
// every live flowlet through the daemon's incremental churn path. Each
// re-registration is an End/Add pair: if the daemon has not yet detected the
// old session's death when the frames are folded in, the End retires the
// stale ownership so the Add can never be dropped as a duplicate, and the
// daemon's orphan sweep is ownership-checked so it cannot later retire the
// fresh registration. The frames are buffered and flushed by the next Flush
// or Step, like ordinary notifications; Epoch reports the new session's
// allocator generation afterwards.
func (c *AllocClient) Reconnect(conn net.Conn) error {
	if c.conn != nil && c.conn != conn {
		c.conn.Close()
	}
	if err := c.handshake(conn); err != nil {
		return err
	}
	// Frames buffered for the dead connection (and the step-sequence
	// space) belong to the old session.
	c.wbuf = c.wbuf[:0]
	c.seq = 0
	// Deterministic re-registration order keeps daemon-side folding (and
	// therefore rate trajectories) reproducible in tests.
	for _, r := range c.sortedRegs() {
		c.wbuf = wire.AppendFlowletEnd(c.wbuf, wire.FlowletEnd{Flow: int64(r.id)})
		c.wbuf = wire.AppendFlowletAdd(c.wbuf, wire.FlowletAdd{
			Flow:   int64(r.id),
			Src:    r.src,
			Dst:    r.dst,
			Weight: r.weight,
			Size:   r.size,
		})
	}
	return nil
}

// ResumeReconnect re-establishes the session against a daemon that already
// holds this client's flows — one restored from a snapshot, or a peer that
// adopted them from a replica. Unlike Reconnect it re-registers with bare
// adds only (no End/Add pairs): the daemon's adoption path matches each add
// against its unowned flow and transfers ownership in place, so the engine
// sees zero churn and rates continue bit-identically from where the dead
// daemon left them. It also clears the frozen state set by freeze-on-failure.
func (c *AllocClient) ResumeReconnect(conn net.Conn) error {
	if c.conn != nil && c.conn != conn {
		c.conn.Close()
	}
	if err := c.handshake(conn); err != nil {
		return err
	}
	c.wbuf = c.wbuf[:0]
	c.seq = 0
	c.frozen = false
	// Flows that ended while frozen are still in the daemon's restored
	// snapshot; retire them before re-registering the survivors.
	for _, id := range c.frozenEnds {
		c.wbuf = wire.AppendFlowletEnd(c.wbuf, wire.FlowletEnd{Flow: int64(id)})
	}
	c.frozenEnds = nil
	for _, r := range c.sortedRegs() {
		c.wbuf = wire.AppendFlowletAdd(c.wbuf, wire.FlowletAdd{
			Flow:   int64(r.id),
			Src:    r.src,
			Dst:    r.dst,
			Weight: r.weight,
			Size:   r.size,
		})
	}
	return nil
}

// SetFreezeOnFailure selects what a failed Step does: enabled, the session
// freezes at last-known rates (Step returns no updates and no error, Frozen
// reports true) until ResumeReconnect; disabled (the default), Step surfaces
// the error. ErrEpochChanged is never frozen — it means the daemon is alive
// with reset state, which needs a Reconnect, not a failover.
func (c *AllocClient) SetFreezeOnFailure(on bool) { c.freeze = on }

// Frozen reports whether the session froze after a failure (always false
// unless SetFreezeOnFailure(true)).
func (c *AllocClient) Frozen() bool { return c.frozen }

// FlowRegistration is one live flowlet registration as the client tracks it.
type FlowRegistration struct {
	ID       core.FlowID
	Src, Dst int
	Weight   float64
	Size     int64 // flowlet-size hint in bytes (0 = unknown)
}

// Registrations returns the live flowlet registrations, sorted by flow ID —
// what a failover must re-register with the adopting daemon.
func (c *AllocClient) Registrations() []FlowRegistration {
	regs := c.sortedRegs()
	out := make([]FlowRegistration, len(regs))
	for i, r := range regs {
		out[i] = FlowRegistration{ID: r.id, Src: int(r.src), Dst: int(r.dst), Weight: r.weight, Size: r.size}
	}
	return out
}

// sortedRegs returns a copy of the live registrations sorted by flow ID,
// skipping free entries.
func (c *AllocClient) sortedRegs() []flowReg {
	regs := make([]flowReg, 0, c.idx.Len())
	for i, r := range c.regs {
		if at, ok := c.idx.Get(r.id); ok && int(at) == i {
			regs = append(regs, r)
		}
	}
	slices.SortFunc(regs, func(a, b flowReg) int { return cmp.Compare(a.id, b.id) })
	return regs
}

// Epoch returns the daemon's allocator epoch from the handshake.
func (c *AllocClient) Epoch() uint64 { return c.epoch }

// Interval returns the longest gap between the daemon's free-running
// iterations — arrivals iterate at once, so it bounds how stale a rate can be,
// not how long a flowlet start waits (zero for a step-driven daemon).
func (c *AllocClient) Interval() time.Duration { return c.interval }

// NumFlows returns the number of flowlets this client has registered.
func (c *AllocClient) NumFlows() int { return c.idx.Len() }

// FlowletStart buffers a flowlet-start notification. Registering an
// already-registered flow is a no-op, mirroring the engine's defensive
// duplicate handling.
func (c *AllocClient) FlowletStart(id core.FlowID, src, dst int, weight float64) error {
	return c.FlowletStartSized(id, src, dst, weight, 0)
}

// FlowletStartSized is FlowletStart carrying the flowlet's expected size in
// bytes (0 = unknown) as a hint. The hint travels in the FlowletAdd frame and
// is kept for re-registration; the daemon's decoder drops it, so no allocator
// sees it.
func (c *AllocClient) FlowletStartSized(id core.FlowID, src, dst int, weight float64, size int64) error {
	at, n := int32(len(c.regs)), len(c.freeRegs)
	if n > 0 {
		at = c.freeRegs[n-1]
	}
	if _, dup := c.idx.GetOrPut(id, at); dup {
		return nil
	}
	r := flowReg{id: id, src: int32(src), dst: int32(dst), weight: weight, size: size}
	if n > 0 {
		c.freeRegs = c.freeRegs[:n-1]
		c.regs[at] = r
	} else {
		c.regs = append(c.regs, r)
	}
	c.wbuf = wire.AppendFlowletAdd(c.wbuf, wire.FlowletAdd{
		Flow:   int64(id),
		Src:    int32(src),
		Dst:    int32(dst),
		Weight: weight,
		Size:   size,
	})
	return nil
}

// FlowletEnd buffers a flowlet-end notification. Unknown flows are ignored.
func (c *AllocClient) FlowletEnd(id core.FlowID) error {
	if !c.forget(id) {
		return nil
	}
	if c.frozen {
		c.frozenEnds = append(c.frozenEnds, id)
		return nil
	}
	c.wbuf = wire.AppendFlowletEnd(c.wbuf, wire.FlowletEnd{Flow: int64(id)})
	return nil
}

// EndOrphan buffers a flowlet-end for a flow this session never registered.
// A failover uses it to retire, at the adopting daemon, flows that ended
// while their own daemon's session was frozen — the adopter holds them
// unowned from the dead daemon's replica and nobody else will ever end them.
func (c *AllocClient) EndOrphan(id core.FlowID) {
	c.forget(id)
	c.wbuf = wire.AppendFlowletEnd(c.wbuf, wire.FlowletEnd{Flow: int64(id)})
}

// forget drops id's registration, freeing its position in regs, and reports
// whether id was registered.
func (c *AllocClient) forget(id core.FlowID) bool {
	i, ok := c.idx.Take(id)
	if ok {
		c.freeRegs = append(c.freeRegs, i)
	}
	return ok
}

// TakeFrozenEnds returns (and clears) the flows that ended while the session
// was frozen, in end order.
func (c *AllocClient) TakeFrozenEnds() []core.FlowID {
	ends := c.frozenEnds
	c.frozenEnds = nil
	return ends
}

// Flush writes all buffered notifications to the daemon.
func (c *AllocClient) Flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.conn.Write(c.wbuf)
	c.wbuf = wire.Recycle(c.wbuf, &c.wbufHigh)
	if err != nil {
		return fmt.Errorf("transport: allocator flush: %w", err)
	}
	return nil
}

// Step flushes buffered notifications, asks the daemon to run one allocator
// iteration, and returns the rate updates the daemon addressed to this
// client. Updates from asynchronous fan-out batches that arrive while
// waiting are folded in ahead of the step reply, preserving arrival order.
// The returned slice is reused across calls.
//
// Step and Recv return what the frames carried, one (Flow, Rate) update per
// entry, without consulting the registrations. A free-running daemon's frame
// already in flight can carry a rate for a flow the caller has since ended,
// so callers drop updates for flows they do not know.
//
// With freeze-on-failure enabled a failed step (daemon crash or drain)
// freezes the session instead: the endpoint keeps sending at last-known
// rates — the paper's fallback when the allocator goes away — and Step is a
// no-op until ResumeReconnect.
func (c *AllocClient) Step() ([]core.RateUpdate, error) {
	if c.frozen {
		return nil, nil
	}
	ups, err := c.step()
	if err != nil && c.freeze && !errors.Is(err, ErrEpochChanged) {
		c.frozen = true
		return nil, nil
	}
	return ups, err
}

// step is Step without the freeze-on-failure wrapper.
func (c *AllocClient) step() ([]core.RateUpdate, error) {
	c.seq++
	c.wbuf = wire.AppendStep(c.wbuf, wire.Step{Seq: c.seq})
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return nil, fmt.Errorf("transport: allocator step: %w", err)
	}
	c.wbuf = wire.Recycle(c.wbuf, &c.wbufHigh)

	c.updates = c.updates[:0]
	want := c.seq | wire.StepReplyFlag
	for {
		seq, err := c.readBatch()
		if err != nil {
			return nil, err
		}
		if seq == want {
			return c.updates, nil
		}
	}
}

// Recv reads the next asynchronous rate batch from a free-running daemon,
// waiting up to timeout (0 means no deadline). It returns the decoded
// updates, as Step does, and the daemon iteration that produced them.
func (c *AllocClient) Recv(timeout time.Duration) ([]core.RateUpdate, uint64, error) {
	if timeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, 0, err
		}
		defer c.conn.SetReadDeadline(time.Time{})
	}
	c.updates = c.updates[:0]
	seq, err := c.readBatch()
	if err != nil {
		return nil, 0, err
	}
	return c.updates, seq &^ wire.StepReplyFlag, nil
}

// readBatch reads the next RateDelta frame (quantized or lossless; the decoder
// expands either back to absolute rates), decodes its updates straight onto
// c.updates, and returns the frame's sequence word; a malformed frame appends
// none. An EpochNotify push interrupts the read with ErrEpochChanged after
// recording the new epoch; anything else the daemon never sends after the
// handshake.
func (c *AllocClient) readBatch() (uint64, error) {
	typ, payload, err := c.sc.Next()
	if err != nil {
		return 0, fmt.Errorf("transport: allocator read: %w", err)
	}
	switch typ {
	case wire.TypeRateDelta:
		var dec wire.RateDeltaDecoder
		if err := dec.Reset(payload); err != nil {
			return 0, fmt.Errorf("transport: %w", err)
		}
		n0 := len(c.updates)
		for e, ok := dec.Next(); ok; e, ok = dec.Next() {
			c.updates = append(c.updates, core.RateUpdate{Flow: core.FlowID(e.Flow), Rate: e.Rate})
		}
		if err := dec.Err(); err != nil {
			c.updates = c.updates[:n0]
			return 0, fmt.Errorf("transport: %w", err)
		}
		return dec.Seq, nil
	case wire.TypeEpochNotify:
		m, err := wire.DecodeEpochNotify(payload)
		if err != nil {
			return 0, fmt.Errorf("transport: %w", err)
		}
		if m.Epoch&wire.EpochDrainFlag != 0 {
			c.epoch = m.Epoch &^ wire.EpochDrainFlag
			return 0, ErrDaemonDraining
		}
		c.epoch = m.Epoch
		return 0, ErrEpochChanged
	default:
		return 0, fmt.Errorf("transport: unexpected %s frame from daemon", typ)
	}
}

// Conn exposes the underlying connection (tests use it to inject raw
// frames).
func (c *AllocClient) Conn() net.Conn { return c.conn }

// Close closes the connection to the daemon.
func (c *AllocClient) Close() error { return c.conn.Close() }
