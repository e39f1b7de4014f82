package server

import (
	"bytes"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// fanoutConn is the minimal net.Conn the fan-out unit tests hand a bare
// session: Write records whole frames (or discards them when record is
// false), everything else is a no-op.
type fanoutConn struct {
	record bool
	frames [][]byte
}

func (c *fanoutConn) Write(p []byte) (int, error) {
	if c.record {
		c.frames = append(c.frames, append([]byte(nil), p...))
	}
	return len(p), nil
}
func (c *fanoutConn) Read(p []byte) (int, error)         { return 0, net.ErrClosed }
func (c *fanoutConn) Close() error                       { return nil }
func (c *fanoutConn) LocalAddr() net.Addr                { return nil }
func (c *fanoutConn) RemoteAddr() net.Addr               { return nil }
func (c *fanoutConn) SetDeadline(t time.Time) error      { return nil }
func (c *fanoutConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *fanoutConn) SetWriteDeadline(t time.Time) error { return nil }

// fanoutSession builds a bare session wired to conn, bypassing the
// handshake: just enough state for queueUpdate/flushPending.
func fanoutSession(srv *Server, conn net.Conn) *session {
	return &session{
		srv:       srv,
		conn:      conn,
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
		shadowGen: 1,
	}
}

// queueUpdate queues one rate the way an iteration's fan-out pass does,
// creating the session's record for the flow on first use.
func (sess *session) queueUpdate(flow int64, rate float64, seq uint64) {
	var rec *flowRec
	for _, r := range sess.owned {
		if r.id == core.FlowID(flow) {
			rec = r
		}
	}
	if rec == nil {
		rec = &flowRec{id: core.FlowID(flow), pendIdx: -1}
		sess.own(rec)
	}
	sess.pmu.Lock()
	sess.queue(rec, rate)
	sess.pendingSeq = seq
	sess.pmu.Unlock()
}

// decodeRateFrames parses every recorded frame as a RateDelta and returns
// the decoded entries, frame by frame.
func decodeRateFrames(t *testing.T, frames [][]byte) [][]wire.RateEntry {
	t.Helper()
	var out [][]wire.RateEntry
	for _, frame := range frames {
		sc := wire.NewScanner(bytes.NewReader(frame))
		typ, payload, err := sc.Next()
		if err != nil {
			t.Fatalf("scan fan-out frame: %v", err)
		}
		if typ != wire.TypeRateDelta {
			t.Fatalf("fan-out frame type = %d, want TypeRateDelta", typ)
		}
		var d wire.RateDelta
		if err := wire.DecodeRateDelta(payload, &d); err != nil {
			t.Fatalf("decode fan-out frame: %v", err)
		}
		out = append(out, append([]wire.RateEntry(nil), d.Entries...))
	}
	return out
}

// TestFanoutDeltaSuppression drives the writer's flush path directly: a
// session must skip flows whose rate is unchanged since its last sent value,
// resend when the rate moves, and resend everything once the shadows are
// voided (an epoch bump) or on a fresh session (a client reconnect).
func TestFanoutDeltaSuppression(t *testing.T) {
	srv := &Server{}
	conn := &fanoutConn{record: true}
	sess := fanoutSession(srv, conn)

	sess.queueUpdate(7, 5e9, 1)
	sess.queueUpdate(9, 2.5e9, 1)
	if !sess.flushPending() {
		t.Fatal("flushPending reported write error")
	}
	got := decodeRateFrames(t, conn.frames)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("first flush frames = %v, want one frame with 2 entries", got)
	}
	if got[0][0].Flow != 7 || got[0][0].Rate != 5e9 || got[0][1].Flow != 9 || got[0][1].Rate != 2.5e9 {
		t.Fatalf("first flush entries = %v", got[0])
	}

	// Same rates again: both suppressed, no frame at all.
	conn.frames = nil
	sess.queueUpdate(7, 5e9, 2)
	sess.queueUpdate(9, 2.5e9, 2)
	sess.flushPending()
	if len(conn.frames) != 0 {
		t.Fatalf("unchanged rates produced %d frames, want 0", len(conn.frames))
	}

	// One rate moves: only that flow is resent.
	sess.queueUpdate(7, 5e9, 3)
	sess.queueUpdate(9, 3e9, 3)
	sess.flushPending()
	got = decodeRateFrames(t, conn.frames)
	if len(got) != 1 || len(got[0]) != 1 || got[0][0].Flow != 9 || got[0][0].Rate != 3e9 {
		t.Fatalf("changed-rate flush = %v, want only flow 9 at 3e9", got)
	}

	// Advancing the shadow generation (what BumpEpoch does) voids every
	// shadow at once: the same rates go out in full again.
	conn.frames = nil
	sess.pmu.Lock()
	sess.shadowGen++
	sess.pmu.Unlock()
	sess.queueUpdate(7, 5e9, 4)
	sess.queueUpdate(9, 3e9, 4)
	sess.flushPending()
	got = decodeRateFrames(t, conn.frames)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("resend after voiding the shadows = %v, want both flows", got)
	}

	// A fresh session (what Reconnect produces) has no shadows either.
	conn2 := &fanoutConn{record: true}
	sess2 := fanoutSession(srv, conn2)
	sess2.queueUpdate(7, 5e9, 1)
	sess2.queueUpdate(9, 3e9, 1)
	sess2.flushPending()
	got = decodeRateFrames(t, conn2.frames)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("fresh session resend = %v, want both flows", got)
	}
}

// TestQuantizedFanout checks the opt-in lossy mode: rates leave the daemon
// on the paper's 1 Mbps grid, and a rate change too small to move the
// quantized value is suppressed entirely.
func TestQuantizedFanout(t *testing.T) {
	srv := &Server{cfg: Config{QuantizeRates: true}}
	conn := &fanoutConn{record: true}
	sess := fanoutSession(srv, conn)

	rate := 1.2345678e9
	sess.queueUpdate(1, rate, 1)
	sess.flushPending()
	got := decodeRateFrames(t, conn.frames)
	want := wire.DequantizeRate(wire.QuantizeRate(rate))
	if len(got) != 1 || len(got[0]) != 1 || got[0][0].Rate != want {
		t.Fatalf("quantized flush = %v, want rate %v", got, want)
	}

	// A sub-Mbps wiggle lands in the same bucket: suppressed.
	conn.frames = nil
	sess.queueUpdate(1, rate+1e3, 2)
	sess.flushPending()
	if len(conn.frames) != 0 {
		t.Fatalf("sub-grid rate change produced %d frames, want 0", len(conn.frames))
	}

	// A full-Mbps move crosses buckets: sent.
	sess.queueUpdate(1, rate+5e6, 3)
	sess.flushPending()
	got = decodeRateFrames(t, conn.frames)
	want = wire.DequantizeRate(wire.QuantizeRate(rate + 5e6))
	if len(got) != 1 || got[0][0].Rate != want {
		t.Fatalf("cross-bucket flush = %v, want rate %v", got, want)
	}
}

// fillFanout queues a rate for each of the session's first n flows (created
// on the first round) that differs from round to round, so suppression never
// hides the encode work.
func fillFanout(sess *session, n int, round int) {
	for len(sess.owned) < n {
		sess.own(&flowRec{id: core.FlowID(len(sess.owned) * 3), pendIdx: -1})
	}
	sess.pmu.Lock()
	for i, rec := range sess.owned[:n] {
		sess.queue(rec, float64(1e9+i*1000+round))
	}
	sess.pendingSeq = uint64(round)
	sess.pmu.Unlock()
}

// TestFanoutFlushZeroAllocs pins the steady-state fan-out path at zero
// allocations per flush: the entry scratch, encode buffer and pending list
// are reused across iterations (satellite of the wire v4 PR).
func TestFanoutFlushZeroAllocs(t *testing.T) {
	sess := fanoutSession(&Server{}, &fanoutConn{})
	const flows = 256
	// Warm-up rounds grow the scratch slices and map buckets to steady
	// state.
	for round := 0; round < 3; round++ {
		fillFanout(sess, flows, round)
		sess.flushPending()
	}
	round := 3
	avg := testing.AllocsPerRun(50, func() {
		fillFanout(sess, flows, round)
		round++
		sess.flushPending()
	})
	if avg != 0 {
		t.Fatalf("steady-state fan-out flush allocates %.2f objects/op, want 0", avg)
	}
}

// BenchmarkFanoutFlush measures the writer's drain-sort-encode-write cycle
// for one coalesced batch of 1024 changed rates.
func BenchmarkFanoutFlush(b *testing.B) {
	sess := fanoutSession(&Server{}, &fanoutConn{})
	const flows = 1024
	for round := 0; round < 3; round++ {
		fillFanout(sess, flows, round)
		sess.flushPending()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillFanout(sess, flows, i+3)
		sess.flushPending()
	}
}

// TestFlowRecordFanout drives the iteration's single fan-out pass and the
// per-flow record directly: a non-stepping session's rates are queued under
// one lock hold with one writer kick and the iteration's sequence; a flowlet
// end withdraws its undelivered rate; a flowlet reusing a retired ID starts
// from a fresh record; and a step reply withdraws whatever an earlier
// ticker iteration left queued for the stepper.
func TestFlowRecordFanout(t *testing.T) {
	srv, err := New(Config{Topology: testTopology(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	connA, connB := &fanoutConn{record: true}, &fanoutConn{record: true}
	a, b := fanoutSession(srv, connA), fanoutSession(srv, connB)
	srv.sessions[a], srv.sessions[b] = struct{}{}, struct{}{}
	add := func(sess *session, flow core.FlowID) {
		srv.publish([]event{{flow: flow, src: 0, dst: 5, weight: 1, sess: sess}})
	}
	pendingIDs := func(sess *session) []core.FlowID {
		sess.pmu.Lock()
		defer sess.pmu.Unlock()
		var ids []core.FlowID
		for i, rec := range sess.pending {
			if int(rec.pendIdx) != i {
				t.Fatalf("pending[%d] (flow %d) believes it sits at %d", i, rec.id, rec.pendIdx)
			}
			ids = append(ids, rec.id)
		}
		slices.Sort(ids)
		return ids
	}
	flushed := func(conn *fanoutConn) []wire.RateEntry {
		var all []wire.RateEntry
		for _, frame := range decodeRateFrames(t, conn.frames) {
			all = append(all, frame...)
		}
		conn.frames = nil
		return all
	}

	// A steps; B's two rates are queued for its writer, not written.
	add(a, 1)
	add(a, 2)
	add(b, 3)
	add(b, 4)
	if err := srv.iterate(a, 1); err != nil {
		t.Fatal(err)
	}
	if got := flushed(connA); len(got) != 2 || got[0].Flow != 1 || got[1].Flow != 2 {
		t.Fatalf("step reply = %v, want flows 1 and 2", got)
	}
	if got := pendingIDs(b); !slices.Equal(got, []core.FlowID{3, 4}) || len(connB.frames) != 0 {
		t.Fatalf("B pending = %v with %d frames written, want [3 4] and none", got, len(connB.frames))
	}
	if len(b.kick) != 1 || b.pendingSeq != srv.seq || b.fanning || len(srv.fanning) != 0 {
		t.Fatalf("after the pass: %d kicks, pendingSeq %d (iteration %d), fanning %v", len(b.kick), b.pendingSeq, srv.seq, b.fanning)
	}

	// Ending flow 3 withdraws its undelivered rate; flow 4's survives the
	// swap-remove and is what the writer sends.
	srv.publish([]event{{end: true, flow: 3, sess: b}})
	if err := srv.iterate(nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := pendingIDs(b); !slices.Equal(got, []core.FlowID{4}) || len(b.owned) != 1 {
		t.Fatalf("after ending flow 3: B pending = %v, owns %d flows", got, len(b.owned))
	}
	b.flushPending()
	if got := flushed(connB); len(got) != 1 || got[0].Flow != 4 {
		t.Fatalf("B flush = %v, want flow 4 only", got)
	}

	// Flow 3 again is a new record with no last-sent shadow: its first rate
	// goes out.
	add(b, 3)
	if err := srv.iterate(nil, 0); err != nil {
		t.Fatal(err)
	}
	b.flushPending()
	if got := flushed(connB); len(got) == 0 || got[0].Flow != 3 {
		t.Fatalf("B flush after re-adding flow 3 = %v, want flow 3's first rate", got)
	}

	// A ticker iteration queues A's changed rates; A's next step reply carries
	// the newer ones and withdraws the queued copies.
	add(a, 5)
	if err := srv.iterate(nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := pendingIDs(a); len(got) == 0 {
		t.Fatal("ticker iteration queued nothing for A")
	}
	add(a, 6)
	if err := srv.iterate(a, 2); err != nil {
		t.Fatal(err)
	}
	replied := make(map[int64]bool)
	for _, e := range flushed(connA) {
		replied[e.Flow] = true
	}
	for _, id := range pendingIDs(a) {
		if replied[int64(id)] {
			t.Fatalf("flow %d is in the step reply and still queued for the writer", id)
		}
	}
	if !replied[6] {
		t.Fatalf("step reply %v lacks the new flow 6", replied)
	}
}

// TestDrainDisconnectWithdrawsPendingRates: a session that disconnects from a
// draining daemon leaves its flows registered but unowned; the rates it still
// had queued go with it, so a record is never reachable through a session
// that no longer owns it (records are recycled when their flowlet ends).
func TestDrainDisconnectWithdrawsPendingRates(t *testing.T) {
	srv, err := New(Config{Topology: testTopology(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a := fanoutSession(srv, &fanoutConn{})
	srv.sessions[a] = struct{}{}
	srv.publish([]event{
		{flow: 1, src: 0, dst: 5, weight: 1, sess: a},
		{flow: 2, src: 1, dst: 5, weight: 1, sess: a},
	})
	if err := srv.iterate(nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(a.pending) != 2 {
		t.Fatalf("%d rates queued for the session; want 2", len(a.pending))
	}
	srv.Drain()
	srv.removeSession(a)
	if len(a.pending) != 0 {
		t.Fatalf("%d rates still queued for the removed session", len(a.pending))
	}
	checkFlowTable(t, srv)
	for _, rec := range srv.recs {
		if rec != nil && (rec.owner != nil || rec.pendIdx != -1) {
			t.Fatalf("flow %d after its session left a draining daemon: owner %v, pendIdx %d", rec.id, rec.owner, rec.pendIdx)
		}
	}
	if n := srv.NumFlows(); n != 2 {
		t.Fatalf("NumFlows = %d; a draining daemon keeps a disconnected session's flows", n)
	}
}
