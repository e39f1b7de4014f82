package server

import (
	"math"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"
	"unsafe"

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
		srv:  srv,
		conn: conn,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
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
	sess.srv.mu.Lock()
	sess.queue(rec, rate)
	sess.pendingSeq = seq
	sess.srv.mu.Unlock()
}

// decodeRateFrames parses every frame of every recorded write as a RateDelta
// and returns the decoded entries, frame by frame.
func decodeRateFrames(t *testing.T, writes [][]byte) [][]wire.RateEntry {
	t.Helper()
	var out [][]wire.RateEntry
	for _, w := range writes {
		for len(w) > 0 {
			typ, payload, rest, err := wire.ParseFrame(w)
			if err != nil {
				t.Fatalf("parse fan-out frame: %v", err)
			}
			w = rest
			if typ != wire.TypeRateDelta {
				t.Fatalf("fan-out frame type = %d, want TypeRateDelta", typ)
			}
			var d wire.RateDelta
			if err := wire.DecodeRateDelta(payload, &d); err != nil {
				t.Fatalf("decode fan-out frame: %v", err)
			}
			out = append(out, append([]wire.RateEntry(nil), d.Entries...))
		}
	}
	return out
}

// fillFanout queues a rate for each of the session's first n flows (created
// on the first round) that differs from round to round, as the allocator's
// threshold would surface them.
func fillFanout(sess *session, n int, round int) {
	for len(sess.owned) < n {
		sess.own(&flowRec{id: core.FlowID(len(sess.owned) * 3), pendIdx: -1})
	}
	sess.srv.mu.Lock()
	for i, rec := range sess.owned[:n] {
		sess.queue(rec, float64(1e9+i*1000+round))
	}
	sess.pendingSeq = uint64(round)
	sess.srv.mu.Unlock()
}

// TestFanoutFlushZeroAllocs pins the steady-state fan-out path at zero
// allocations per flush: the entry scratch, encode buffer and pending list
// are reused across iterations (satellite of the wire v4 PR).
func TestFanoutFlushZeroAllocs(t *testing.T) {
	sess := fanoutSession(&Server{}, &fanoutConn{})
	const flows = 256
	// Warm-up rounds grow the scratch slices to steady state.
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
	// A record is the flow's ownership and its pending rate, nothing else:
	// four words per live flowlet.
	if size := unsafe.Sizeof(flowRec{}); size != 32 {
		t.Fatalf("flowRec is %d bytes, want 32", size)
	}
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
		srv.mu.Lock()
		defer srv.mu.Unlock()
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
	if len(b.kick) != 1 || b.pendingSeq != srv.seq {
		t.Fatalf("after the pass: %d kicks, pendingSeq %d (iteration %d)", len(b.kick), b.pendingSeq, srv.seq)
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

	// Flow 3 again is a new record: its first rate goes out.
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

// TestFanoutMatchesSurfacedRates drives two sessions through a seeded mix of
// ticker iterations, steps, flowlet ends, re-adds of retired IDs and a
// drain-disconnect, flushing each session's writer at random so
// queued rates coalesce across iterations. The allocator's threshold is the
// fan-out's only suppressor, so every rate a session receives is the latest
// one AppendUpdates surfaced for the flow while the session owned it, no
// surfaced update reaches it twice, and after every flush each flow it owns
// holds the last rate surfaced for it. A flow whose rate returns to the bits
// the client holds before the rate in between was delivered (coalesced away,
// or withdrawn by a step reply) is sent that rate again: nothing tracks what
// a client holds.
func TestFanoutMatchesSurfacedRates(t *testing.T) {
	srv, err := New(Config{Topology: testTopology(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hosts := srv.cfg.Topology.NumServers()
	conns := []*fanoutConn{{record: true}, {record: true}}
	sessions := []*session{fanoutSession(srv, conns[0]), fanoutSession(srv, conns[1])}
	index := make(map[*session]int)
	for i, sess := range sessions {
		sess.id = uint64(i)
		srv.sessions[sess] = struct{}{}
		index[sess] = i
	}
	live := sessions
	// views holds, per session and flow, the last rate surfaced for the
	// flow, how many rates were surfaced and which of them the session
	// received last. A flowlet's end drops its view, so a re-added ID starts
	// afresh.
	type flowView struct {
		rate               float64
		surfaced, received int
	}
	views := []map[core.FlowID]*flowView{{}, {}}
	read := []int{0, 0} // writes consumed from each conn

	// receive consumes the writes session i was sent since the last call.
	// Every write to a session holds its wmu, so reading under it is
	// race-free.
	receive := func(i int) {
		t.Helper()
		sessions[i].wmu.Lock()
		writes := conns[i].frames[read[i]:]
		read[i] = len(conns[i].frames)
		sessions[i].wmu.Unlock()
		var d wire.RateDelta
		for _, w := range writes {
			for len(w) > 0 {
				typ, payload, rest, err := wire.ParseFrame(w)
				if err != nil {
					t.Fatalf("session %d: parse frame: %v", i, err)
				}
				w = rest
				if typ != wire.TypeRateDelta {
					t.Fatalf("session %d: frame type %s, want RateDelta", i, typ)
				}
				if err := wire.DecodeRateDelta(payload, &d); err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
				for _, e := range d.Entries {
					v := views[i][core.FlowID(e.Flow)]
					switch {
					case v == nil || math.Float64bits(v.rate) != math.Float64bits(e.Rate):
						t.Fatalf("session %d: flow %d received %v, not the latest surfaced rate (%+v)", i, e.Flow, e.Rate, v)
					case v.received == v.surfaced:
						t.Fatalf("session %d: flow %d received surfaced rate %d (%v) twice", i, e.Flow, v.surfaced, v.rate)
					}
					v.received = v.surfaced
				}
			}
		}
	}
	check := func(i, round int) {
		t.Helper()
		for _, rec := range sessions[i].owned {
			if v := views[i][rec.id]; v != nil && v.received != v.surfaced {
				t.Fatalf("round %d: session %d flow %d last received surfaced rate %d of %d (latest %v)",
					round, i, rec.id, v.received, v.surfaced, v.rate)
			}
		}
	}

	rng := rand.New(rand.NewSource(37))
	nextID := core.FlowID(1)
	var retired []core.FlowID
	var steps, ends, readds, removedWrites int
	for round := 0; round < 400; round++ {
		if round == 300 {
			// B disconnects from a draining daemon: its flows stay
			// registered, unowned, and it is sent nothing more.
			srv.Drain()
			srv.removeSession(sessions[1])
			live = sessions[:1]
			removedWrites = len(conns[1].frames)
		}

		var burst []event
		var ended []core.FlowID
		for n := rng.Intn(4); n > 0; n-- {
			sess := live[rng.Intn(len(live))]
			switch op := rng.Intn(3); {
			case op == 0 && len(sess.owned) > 0:
				id := sess.owned[rng.Intn(len(sess.owned))].id
				if slices.Contains(ended, id) {
					continue
				}
				burst = append(burst, event{end: true, flow: id, sess: sess})
				ended = append(ended, id)
				retired = append(retired, id)
				ends++
			case op == 1 && len(retired) > 0:
				k := rng.Intn(len(retired))
				id := retired[k]
				retired = slices.Delete(retired, k, k+1)
				src := rng.Intn(hosts)
				burst = append(burst, event{flow: id, src: src, dst: (src + 1 + rng.Intn(hosts-1)) % hosts, weight: 1, sess: sess})
				readds++
			default:
				src := rng.Intn(hosts)
				burst = append(burst, event{flow: nextID, src: src, dst: (src + 1 + rng.Intn(hosts-1)) % hosts, weight: 1, sess: sess})
				nextID++
			}
		}
		srv.publish(burst)

		var stepper *session
		if rng.Intn(2) == 0 {
			stepper = live[rng.Intn(len(live))]
			steps++
		}
		if err := srv.iterate(stepper, uint64(round+1)); err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		for _, id := range ended {
			for i := range sessions {
				delete(views[i], id)
			}
		}
		for _, u := range srv.updates {
			owner := srv.recs[u.Slot].owner
			if owner == nil {
				continue
			}
			v := views[index[owner]][u.Flow]
			if v == nil {
				v = &flowView{}
				views[index[owner]][u.Flow] = v
			}
			v.rate = u.Rate
			v.surfaced++
		}
		srv.mu.Unlock()
		if stepper != nil {
			receive(index[stepper])
		}

		for _, sess := range live {
			if rng.Intn(2) == 0 {
				continue // leave its rates queued to coalesce with the next iteration's
			}
			if !sess.flushPending() {
				t.Fatal("flushPending reported a write error")
			}
			i := index[sess]
			receive(i)
			check(i, round)
		}
	}
	sessions[0].flushPending()
	receive(0)
	check(0, 400)

	if n := len(conns[1].frames); n != removedWrites {
		t.Fatalf("session B was sent %d writes after it disconnected", n-removedWrites)
	}
	st := srv.Stats()
	if steps == 0 || ends == 0 || readds == 0 || st.UpdatesCoalesced == 0 || st.DrainRejects == 0 {
		t.Fatalf("the run exercised %d steps, %d ends, %d re-adds, %d coalesced updates, %d drain rejects; want all",
			steps, ends, readds, st.UpdatesCoalesced, st.DrainRejects)
	}
}
