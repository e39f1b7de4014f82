package server

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/wire"
)

// This file implements the daemon's survivable-restart lifecycle: graceful
// drain, flow-state snapshots, and warm restore. The snapshot format reuses
// the wire protocol — a concatenation of FlowState chunks (the live flowlet
// registry in canonical allocator order) and PriceSnapshot chunks (every link's
// current price) — so the same bytes serve as an on-disk drain artifact and
// as the peer replica pushed inside exchange bundles. Restoring replays the
// flows through the ordinary registration path and seeds (not pins) the
// prices; because rates are a pure function of prices and flow order, a
// restored daemon's subsequent iterations are bit-identical to an
// uninterrupted one's.

// Drain puts the daemon into drain mode: new flowlet registrations are
// refused (counted in Stats.DrainRejects), disconnecting sessions no longer
// schedule orphan cleanup (their flows are preserved for the snapshot and
// for peers mid-adoption), and existing sessions otherwise keep working so
// in-flight fan-out completes. Drain is idempotent and cannot be undone;
// it is the first phase of Shutdown.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.logf("draining: new flowlet registrations refused")
	}
	s.mu.Unlock()
}

// Draining reports whether Drain (or Shutdown) has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Closed reports whether the daemon has shut down (Close or Shutdown
// completed). It backs the admin /healthz liveness probe: a daemon stays
// healthy through a drain and flips unhealthy only once it is gone.
func (s *Server) Closed() bool { return s.isClosed() }

// Snapshot serializes the daemon's allocator state: its live flowlet
// registry (FlowState chunks, canonical allocator order) and every link's
// current price (PriceSnapshot chunks). The result feeds Restore on a
// replacement daemon for a warm restart that continues the dual ascent in
// place.
func (s *Server) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, net.ErrClosed
	}
	return s.snapshotLocked(), nil
}

// snapshotLocked encodes the snapshot with s.mu held.
func (s *Server) snapshotLocked() []byte {
	epoch := s.Epoch()
	shard := uint32(s.cfg.ShardIndex)
	buf := appendFlowStates(nil, epoch, s.seq, shard, s.alloc.LiveFlows())
	links := make([]topology.LinkID, s.cfg.Topology.NumLinks())
	for i := range links {
		links[i] = topology.LinkID(i)
	}
	prices := make([]float64, len(links))
	s.alloc.LinkPrices(links, prices)
	for start := 0; start < len(links); start += wire.MaxSnapshotEntries {
		end := min(start+wire.MaxSnapshotEntries, len(links))
		buf = wire.AppendPriceSnapshotHeader(buf, epoch, s.seq, shard, end-start)
		for i := start; i < end; i++ {
			buf = wire.AppendSnapshotEntry(buf, wire.SnapshotEntry{
				Link: uint32(links[i]), Price: prices[i],
			})
		}
	}
	return buf
}

// appendFlowStates encodes flows as FlowState chunks of at most
// wire.MaxFlowStateEntries entries — always at least one, so an empty flow
// set is one empty chunk. It is the one encoder of the flow registry, for
// snapshots and peer replicas alike.
func appendFlowStates(buf []byte, epoch, seq uint64, shard uint32, flows []core.ParallelFlow) []byte {
	for start := 0; ; start += wire.MaxFlowStateEntries {
		end := min(start+wire.MaxFlowStateEntries, len(flows))
		buf = wire.AppendFlowStateHeader(buf, epoch, seq, shard, end-start)
		for _, f := range flows[start:end] {
			buf = wire.AppendFlowStateEntry(buf, wire.FlowStateEntry{
				Flow: int64(f.ID), Src: int32(f.Src), Dst: int32(f.Dst), Weight: f.Weight,
			})
		}
		if end == len(flows) {
			return buf
		}
	}
}

// admitUnownedLocked re-admits one flow of a snapshot or a peer replica as an
// unowned registration, in the allocator and in the flow table, for a
// reconnecting client's bare add to claim without allocator churn. It is the
// one admission path of Restore and adoptLocked, one flow-index probe per
// flow: known reports an ID the allocator already holds, which is left as it
// is.
func (s *Server) admitUnownedLocked(e wire.FlowStateEntry) (known bool, err error) {
	id := core.FlowID(e.Flow)
	if _, dup := s.alloc.Bind(id); dup {
		return true, nil
	}
	_, err = s.admitLocked(id, int(e.Src), int(e.Dst), e.Weight)
	return false, err
}

// Restore loads a snapshot produced by Snapshot (or Shutdown) into a fresh
// daemon: flows are re-admitted in their original order as unowned
// registrations — a reconnecting client claims them without allocator churn via
// the adoption path — and prices are seeded so the dual ascent continues
// where it stopped. It must be called before any client events are folded
// in (an allocator with registered flows refuses the restore). The iteration
// counter resumes from the snapshot's.
func (s *Server) Restore(snap []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return net.ErrClosed
	}
	if s.alloc.NumFlows() != 0 || len(s.inbox) != 0 {
		return fmt.Errorf("server: restore requires an empty daemon (%d flows, %d pending events)", s.alloc.NumFlows(), len(s.inbox))
	}
	var seq uint64
	buf := snap
	for len(buf) > 0 {
		typ, payload, rest, err := wire.ParseFrame(buf)
		if err != nil {
			return fmt.Errorf("server: restore: %w", err)
		}
		switch typ {
		case wire.TypeFlowState:
			fs, err := wire.DecodeFlowState(payload)
			if err != nil {
				return fmt.Errorf("server: restore: %w", err)
			}
			if fs.Seq > seq {
				seq = fs.Seq
			}
			for i := 0; i < fs.Len(); i++ {
				e := fs.Entry(i)
				known, err := s.admitUnownedLocked(e)
				if known {
					err = fmt.Errorf("flowlet %d already registered", e.Flow)
				}
				if err != nil {
					return fmt.Errorf("server: restore flowlet %d: %w", e.Flow, err)
				}
			}
		case wire.TypePriceSnapshot:
			ps, err := wire.DecodePriceSnapshot(payload)
			if err != nil {
				return fmt.Errorf("server: restore: %w", err)
			}
			links := make([]topology.LinkID, 0, ps.Len())
			prices := make([]float64, 0, ps.Len())
			numLinks := s.cfg.Topology.NumLinks()
			for i := 0; i < ps.Len(); i++ {
				e := ps.Entry(i)
				if int(e.Link) >= numLinks {
					return fmt.Errorf("server: restore: link %d out of range", e.Link)
				}
				if !validPrice(e.Price) {
					return fmt.Errorf("server: restore: link %d price %g is not finite and non-negative", e.Link, e.Price)
				}
				links = append(links, topology.LinkID(e.Link))
				prices = append(prices, e.Price)
			}
			s.alloc.SeedPrices(links, prices)
		default:
			return fmt.Errorf("server: restore: unexpected %s frame", typ)
		}
		buf = rest
	}
	s.seq = seq
	s.logf("restored %d flowlets at iteration %d", s.alloc.NumFlows(), seq)
	return nil
}

// Shutdown drains the daemon gracefully and closes it: new registrations
// stop, in-flight rate fan-out is given until the timeout to reach clients,
// a snapshot of the allocator state is taken, and every client receives a
// final drain-flagged EpochNotify — the signal to freeze at last-known rates
// and fail over warm. The returned snapshot is what an operator hands to
// Restore on the replacement daemon. Shutdown is idempotent through Close; a
// zero timeout skips the fan-out wait but still notifies and snapshots.
func (s *Server) Shutdown(timeout time.Duration) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	s.Drain()

	// Let per-session writers drain their pending rate updates, so clients
	// freeze at the *current* allocation, not a stale one.
	for timeout > 0 && !s.fanoutDrained() {
		if !time.Now().Before(deadline) {
			s.logf("drain: fan-out wait timed out after %v", timeout)
			break
		}
		time.Sleep(time.Millisecond)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, net.ErrClosed
	}
	snap := s.snapshotLocked()
	epoch := s.Epoch()
	notify := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		notify = append(notify, sess)
	}
	s.wg.Add(len(notify))
	s.mu.Unlock()

	// The final push: epoch with the drain bit set. Clients treat it as
	// "daemon going away on purpose" (transport.ErrDaemonDraining) rather
	// than a crash. One goroutine per session so a dead client cannot stall
	// shutdown; Close below bounds them by closing every connection.
	frame := wire.AppendEpochNotify(nil, wire.EpochNotify{Epoch: epoch | wire.EpochDrainFlag})
	done := make(chan struct{}, len(notify))
	for _, sess := range notify {
		go func() {
			defer s.wg.Done()
			sess.conn.SetWriteDeadline(time.Now().Add(time.Second))
			sess.write(frame)
			done <- struct{}{}
		}()
	}
	for range notify {
		<-done
	}
	s.logf("drain complete: %d clients notified, snapshot %d bytes", len(notify), len(snap))
	return snap, s.Close()
}

// fanoutDrained reports whether every session's pending rate-update list is
// empty (the per-session writers have caught up).
func (s *Server) fanoutDrained() bool {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.pmu.Lock()
		n := len(sess.pending)
		sess.pmu.Unlock()
		if n > 0 {
			return false
		}
	}
	return true
}
