package server

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// checkFlowTable asserts the flow table's invariant (flowTableErr) on srv's
// loop. It takes srv.mu itself and fails the test only after releasing it, so
// the deferred srv.Close cannot deadlock.
func checkFlowTable(t *testing.T, srv *Server) {
	t.Helper()
	srv.mu.Lock()
	err := flowTableErr(&srv.loop)
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// flowTableErr checks the flow table's invariant: every flowlet the allocator
// holds has exactly one record, at its slot and carrying its ID; there is no
// other record; and every session's owned list agrees with its records'
// back-pointers.
func flowTableErr(l *loop) error {
	live := l.alloc.LiveFlows()
	seen := make(map[int32]bool, len(live))
	for _, f := range live {
		slot, ok := l.alloc.SlotOf(f.ID)
		if !ok || seen[slot] {
			return fmt.Errorf("flow %d: slot %d (registered %v, already seen %v)", f.ID, slot, ok, seen[slot])
		}
		seen[slot] = true
		if int(slot) >= len(l.recs) || l.recs[slot] == nil || l.recs[slot].id != f.ID {
			return fmt.Errorf("flow %d at slot %d has no record of its own in a %d-slot table", f.ID, slot, len(l.recs))
		}
	}
	if n := numRecs(l); n != len(live) {
		return fmt.Errorf("flow table holds %d records for %d registered flows", n, len(live))
	}
	for sess := range l.sessions {
		for i, rec := range sess.owned {
			slot, ok := l.alloc.SlotOf(rec.id)
			if rec.owner != sess || int(rec.ownIdx) != i || !ok || l.recs[slot] != rec {
				return fmt.Errorf("session %d owned[%d] = flow %d: owner ok %v, ownIdx %d, in table %v",
					sess.id, i, rec.id, rec.owner == sess, rec.ownIdx, ok && l.recs[slot] == rec)
			}
		}
	}
	return nil
}

// numRecs counts the flow table's records; numRecsLocked counts srv's, with
// srv.mu held.
func numRecs(l *loop) int {
	n := 0
	for _, rec := range l.recs {
		if rec != nil {
			n++
		}
	}
	return n
}

func numRecsLocked(srv *Server) int { return numRecs(&srv.loop) }

// TestSlotReuseAcrossSessions: session A's flow ends and session B's new flow
// takes the freed slot — and the recycled record — in the same fold. A's
// undelivered rate is withdrawn with its flow, and every later rate for the
// slot reaches B's writer, never A's.
func TestSlotReuseAcrossSessions(t *testing.T) {
	srv, err := New(Config{Topology: testTopology(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	connA, connB := &fanoutConn{record: true}, &fanoutConn{record: true}
	a, b := fanoutSession(srv, connA), fanoutSession(srv, connB)
	a.id, b.id = 1, 2
	srv.sessions[a], srv.sessions[b] = struct{}{}, struct{}{}

	srv.publish([]event{{flow: 1, src: 0, dst: 5, weight: 1, sess: a}})
	if err := srv.iterate(nil, 0); err != nil {
		t.Fatal(err)
	}
	slot, _ := srv.alloc.SlotOf(1)
	if len(a.pending) != 1 {
		t.Fatalf("A has %d rates queued; want flow 1's", len(a.pending))
	}

	srv.publish([]event{
		{end: true, flow: 1, sess: a},
		{flow: 2, src: 3, dst: 9, weight: 1, sess: b},
	})
	for i := 0; i < 5; i++ {
		if err := srv.iterate(nil, 0); err != nil {
			t.Fatal(err)
		}
		checkFlowTable(t, srv)
		if got, _ := srv.alloc.SlotOf(2); got != slot {
			t.Fatalf("flow 2 took slot %d; want flow 1's freed slot %d", got, slot)
		}
		if len(a.pending) != 0 || len(a.owned) != 0 {
			t.Fatalf("iteration %d: A still has %d rates queued and owns %d flows", i, len(a.pending), len(a.owned))
		}
		a.flushPending()
		b.flushPending()
	}
	if len(connA.frames) != 0 {
		t.Fatalf("A's writer sent %d frames after its flow ended", len(connA.frames))
	}
	got := decodeRateFrames(t, connB.frames)
	if len(got) == 0 {
		t.Fatal("B's writer sent nothing for its new flow")
	}
	for _, frame := range got {
		for _, e := range frame {
			if e.Flow != 2 {
				t.Fatalf("B received a rate for flow %d", e.Flow)
			}
		}
	}
}

// TestFlowTableInvariantUnderChurn folds seeded bursts of adds, duplicate
// adds, ends, unknown ends, unowned registrations and session deaths (with
// their clean-up sweeps) through step-driven and stepper iterations, at one
// block and two, and checks the one-record-per-slot invariant after every
// iteration.
func TestFlowTableInvariantUnderChurn(t *testing.T) {
	for _, blocks := range []int{1, 2} {
		srv, err := New(Config{Topology: testTopology(t), Blocks: blocks})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		n := srv.cfg.Topology.NumServers()
		rng := rand.New(rand.NewSource(int64(blocks)))
		sessions := make([]*session, 3)
		for i := range sessions {
			sessions[i] = fanoutSession(srv, &fanoutConn{})
			srv.sessions[sessions[i]] = struct{}{}
		}
		var burst []event
		for round := 0; round < 400; round++ {
			burst = burst[:0]
			for k := rng.Intn(40); k > 0; k-- {
				sess := sessions[rng.Intn(len(sessions))]
				id := core.FlowID(rng.Intn(150))
				if rng.Intn(2) == 0 {
					burst = append(burst, event{end: true, flow: id, sess: sess})
					continue
				}
				if rng.Intn(8) == 0 {
					sess = nil // an unowned registration
				}
				src := rng.Intn(n)
				burst = append(burst, event{flow: id, src: src, dst: (src + 1 + rng.Intn(n-1)) % n, weight: 1, sess: sess})
			}
			srv.publish(burst)
			if rng.Intn(20) == 0 {
				// A session dies: its flows are swept at the next fold, and a
				// fresh session takes its place.
				i := rng.Intn(len(sessions))
				srv.removeSession(sessions[i])
				sessions[i] = fanoutSession(srv, &fanoutConn{})
				srv.mu.Lock()
				srv.sessions[sessions[i]] = struct{}{}
				srv.mu.Unlock()
			}
			var stepper *session
			if rng.Intn(2) == 0 {
				stepper = sessions[rng.Intn(len(sessions))]
			}
			if err := srv.iterate(stepper, uint64(round)); err != nil {
				t.Fatal(err)
			}
			for _, sess := range sessions {
				sess.flushPending()
			}
			checkFlowTable(t, srv)
		}
		if st := srv.Stats(); st.DuplicateAdds == 0 || st.UnknownEnds == 0 {
			t.Fatalf("blocks %d: the churn never hit a duplicate add (%d) or an unknown end (%d)", blocks, st.DuplicateAdds, st.UnknownEnds)
		}
	}
}
