package server

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/wire"
)

// loop is the daemon's control loop: the state the allocator owns and the
// passes an iteration runs over it. fold applies the flowlet notifications
// published since the last iteration, step runs one NED + F-NORM iteration
// and its notification filter, and route hands every rate that changed to
// the session that registered its flow. The loop does no I/O, starts no
// goroutine and takes no lock: Server, the shell around it, calls it with
// s.mu — the one loop lock — held.
type loop struct {
	alloc     *core.ParallelAllocator
	threshold float64
	maxFlows  int                     // live flows per session, 0 = unlimited
	owns      func(src, dst int) bool // this shard's flowlets; nil unsharded
	log       func(format string, args ...any)

	// sessions are the connected sessions, the only ones whose adds are
	// admitted; draining refuses new registrations (see detach too).
	sessions map[*session]struct{}
	draining bool

	// recs is the flow table, indexed by the allocator's flow slot: one record
	// per flowlet the allocator holds, owned or not, nil at a free slot. The
	// allocator's FlowID→slot map is the only flow index, so route reaches a
	// record through RateUpdate.Slot without a lookup. freeRecs recycles
	// retired records, so steady-state churn allocates none.
	recs     []*flowRec
	freeRecs []*flowRec
	// inbox holds the flowlet events published since the last fold;
	// inboxHigh decides whether a fold keeps its capacity (wire.Recycle).
	inbox     []event
	inboxHigh int
	// updates are the rates the last step surfaced, seq counts the steps,
	// and queued lists the sessions the last route gave rates to send.
	updates []core.RateUpdate
	seq     uint64
	queued  []*session
	// tally counts the passes' drops and coalesced rates until the shell
	// adds it to the Stats counters.
	tally tally
}

type tally struct {
	dupAdds, unknownEnds, rejected, limited, adopted, drainRejects, coalesced int64
}

// newLoop builds the loop of cfg, whose defaults New has filled in.
func newLoop(cfg Config) (loop, error) {
	alloc, err := core.NewParallelAllocator(core.ParallelConfig{
		Topology:  cfg.Topology,
		Blocks:    cfg.Blocks,
		Gamma:     cfg.Gamma,
		Headroom:  cfg.UpdateThreshold,
		Normalize: true,
	})
	if err != nil {
		return loop{}, err
	}
	log := cfg.Logf
	if log == nil {
		log = func(string, ...any) {}
	}
	return loop{
		alloc:     alloc,
		threshold: cfg.UpdateThreshold,
		maxFlows:  cfg.MaxSessionFlows,
		log:       log,
		sessions:  make(map[*session]struct{}),
	}, nil
}

// flowRec is the loop's one record per registered flowlet — who owns it and
// the rate waiting for its owner's writer — so a fold does a single table
// lookup per flowlet event and route one per rate update.
type flowRec struct {
	id core.FlowID
	// owner is the session that registered the flow and receives its rates;
	// nil for a flow that lives in the allocator without one (restored from a
	// snapshot, seeded from a peer replica, or left by a session that
	// disconnected mid-drain), which a matching add adopts (see fold). ownIdx
	// is the record's slot in owner.owned.
	owner  *session
	ownIdx int32

	// pendIdx is the record's slot in owner.pending while rate is waiting
	// for the writer, -1 otherwise. Every rate queued here already passed the
	// allocator's notification threshold, so the writer sends it as is.
	pendIdx int32
	rate    float64
}

// owner is the loop's half of a session, the only fields of a session the
// loop touches. owned are its records. pending are those holding a rate
// (flowRec.rate, the latest) its writer has not taken yet, so a slow client
// costs O(its flows) and catches up to the current allocation, never a
// backlog; pendingSeq is the iteration that queued the latest. reply is its
// share of a step it asked for, as indices into loop.updates.
type owner struct {
	owned      []*flowRec
	pending    []*flowRec
	pendingSeq uint64
	reply      []int32
}

// own and disown keep sess.owned and the record's back-pointers in step.
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

// queue records a rate for the writer, coalescing with an undelivered one for
// the same flow (latest rate wins, and queue reports it); unqueue withdraws
// it.
func (o *owner) queue(rec *flowRec, rate float64) (coalesced bool) {
	if coalesced = rec.pendIdx >= 0; !coalesced {
		rec.pendIdx = int32(len(o.pending))
		o.pending = append(o.pending, rec)
	}
	rec.rate = rate
	return coalesced
}

func (o *owner) unqueue(rec *flowRec) {
	last := len(o.pending) - 1
	moved := o.pending[last]
	o.pending[rec.pendIdx] = moved
	moved.pendIdx = rec.pendIdx
	o.pending[last] = nil
	o.pending = o.pending[:last]
	rec.pendIdx = -1
}

// take empties the pending list onto entries, in no particular order, and
// returns them with the iteration that queued the latest.
func (o *owner) take(entries []wire.RateEntry) ([]wire.RateEntry, uint64) {
	for i, rec := range o.pending {
		o.pending[i] = nil
		rec.pendIdx = -1
		entries = append(entries, wire.RateEntry{Flow: int64(rec.id), Rate: rec.rate})
	}
	o.pending = o.pending[:0]
	return entries, o.pendingSeq
}

// event is one flowlet notification waiting for the next fold. The two flags
// share the last word, so an event is 48 bytes, not 56.
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

// fold applies the inbox to the allocator, in arrival order, with
// duplicate/unknown defense — one flow-index probe per event: an end is
// Unbind, an add is Bind, and a refused add releases the binding it made.
func (l *loop) fold() {
	for _, ev := range l.inbox {
		if ev.end {
			slot, known := l.alloc.Unbind(ev.flow)
			if !known {
				l.tally.unknownEnds++
				continue
			}
			if ev.cleanup && l.recs[slot].owner != ev.sess {
				// Stale orphan sweep: the flow was re-registered (by a
				// reconnected client under a new session) after the dead
				// session's cleanup was scheduled. The new owner's
				// registration stands.
				l.alloc.Rebind(ev.flow, slot)
				continue
			}
			l.retire(slot)
			continue
		}
		slot, known := l.alloc.Bind(ev.flow)
		if known {
			// Adoption without churn: a flow restored from a snapshot, seeded
			// from a peer replica, or kept by a drain after its session died
			// sits in the allocator unowned. When a reconnecting client
			// re-registers it with the registration the allocator holds —
			// same route and weight — ownership transfers in place: the
			// allocator never sees a retire/re-add pair, so prices and rates
			// are undisturbed and a warm restart costs zero registrations.
			rec := l.recs[slot]
			if rec.owner == nil && ev.sess != nil {
				if f := l.alloc.FlowAt(slot); f.Src == ev.src && f.Dst == ev.dst && f.Weight == ev.weight {
					if _, live := l.sessions[ev.sess]; live {
						ev.sess.own(rec)
						l.tally.adopted++
					}
					continue
				}
				// Same ID, different registration: the stored flow is stale.
				// Retire it and fall through to a fresh registration. The ID
				// stays bound to the slot, which is the one the next Admit
				// takes: EndSlot freed it last.
				l.retire(slot)
			} else {
				l.tally.dupAdds++
				continue
			}
		}
		if !l.admissible(&ev) {
			l.alloc.Unbind(ev.flow)
			continue
		}
		rec, err := l.admit(ev.flow, ev.src, ev.dst, ev.weight)
		if err != nil {
			l.tally.rejected++
			l.log("flowlet %d add rejected: %v", ev.flow, err)
			continue
		}
		if ev.sess != nil {
			ev.sess.own(rec)
		}
	}
	// A one-off burst — the set-up's registrations, a reconnecting client's —
	// is let go about 45 folds after it (20 k events followed by 4 k-event
	// steps), while a free-running daemon's churn bursts between empty ticks
	// keep their capacity and append without reallocating.
	l.inbox = wire.Recycle(l.inbox, &l.inboxHigh)
}

// admissible applies the daemon's own admission rules to an add the
// allocator does not hold, counting a refusal; the allocator's rules (route
// and weight) are Admit's.
func (l *loop) admissible(ev *event) bool {
	if l.draining {
		// A draining daemon admits no new flowlets: it is about to hand its
		// state to a successor, and anything admitted now would miss the
		// snapshot already replicated to peers.
		l.tally.drainRejects++
		return false
	}
	if ev.sess != nil {
		if _, live := l.sessions[ev.sess]; !live {
			// The registering session disconnected before this add was
			// folded in; its one-shot cleanup has already run, so
			// registering now would leak the flow forever.
			l.tally.rejected++
			return false
		}
		if l.maxFlows > 0 && len(ev.sess.owned) >= l.maxFlows {
			l.tally.limited++
			l.log("flowlet %d add dropped: session %d at its %d-flow limit", ev.flow, ev.sess.id, l.maxFlows)
			return false
		}
	}
	if l.owns != nil && !l.owns(ev.src, ev.dst) {
		// A sharded daemon allocates only flowlets sourced in its own racks;
		// anything else belongs to a peer and registering it here would
		// double-allocate its path.
		l.tally.rejected++
		l.log("flowlet %d add rejected: server %d is served by another shard", ev.flow, ev.src)
		return false
	}
	return true
}

// admit registers a flowlet with the allocator and enters its record,
// unowned, into the flow table at the slot the allocator gave it. The caller
// has bound id (core.ParallelAllocator.Bind); a refusal releases the binding.
func (l *loop) admit(id core.FlowID, src, dst int, weight float64) (*flowRec, error) {
	slot, err := l.alloc.Admit(id, src, dst, weight)
	if err != nil {
		return nil, err
	}
	var rec *flowRec
	if n := len(l.freeRecs); n > 0 {
		rec, l.freeRecs = l.freeRecs[n-1], l.freeRecs[:n-1]
	} else {
		rec = new(flowRec)
	}
	*rec = flowRec{id: id, pendIdx: -1}
	if n := int(slot) + 1; n > len(l.recs) {
		l.recs = append(l.recs, make([]*flowRec, n-len(l.recs))...)
	}
	l.recs[slot] = rec
	return rec, nil
}

// admitUnowned re-admits one flow of a snapshot or a peer replica as an
// unowned registration, in the allocator and in the flow table, for a
// reconnecting client's bare add to claim without allocator churn. It is the
// one admission path of Restore and adoptLocked, one flow-index probe per
// flow: known reports an ID the allocator already holds, which is left as it
// is.
func (l *loop) admitUnowned(e wire.FlowStateEntry) (known bool, err error) {
	id := core.FlowID(e.Flow)
	if _, dup := l.alloc.Bind(id); dup {
		return true, nil
	}
	_, err = l.admit(id, int(e.Src), int(e.Dst), e.Weight)
	return false, err
}

// retire ends the flowlet at slot in the allocator, whose ID the caller has
// unbound (or is about to re-admit), and drops its record: out of the flow
// table, out of its owner's set, and any undelivered rate withdrawn. That
// leaves the record unreachable, so it is recycled; callers must not touch it
// afterwards.
func (l *loop) retire(slot int32) {
	l.alloc.EndSlot(slot)
	rec := l.recs[slot]
	l.recs[slot] = nil
	if owner := rec.owner; owner != nil {
		owner.disown(rec)
		if rec.pendIdx >= 0 {
			owner.unqueue(rec)
		}
	}
	l.freeRecs = append(l.freeRecs, rec)
}

// step runs one allocator iteration and surfaces, as updates, the rates that
// moved past the notification threshold.
func (l *loop) step() {
	l.alloc.Iterate()
	l.updates = l.alloc.AppendUpdates(l.threshold, l.updates[:0])
	l.seq++
}

// route hands every update of the last step to the session that owns its
// flow. The stepper's become its reply (in the allocator's order),
// withdrawing any copy still queued for its writer, which would be stale
// after the reply; everyone else's are queued. queued lists the sessions
// whose pending list route made non-empty: a list that was already non-empty
// has a writer wake-up outstanding, since taking the list empties it.
func (l *loop) route(stepper *session) {
	clear(l.queued)
	l.queued = l.queued[:0]
	if stepper != nil {
		stepper.reply = stepper.reply[:0]
	}
	for i, u := range l.updates {
		rec := l.recs[u.Slot]
		owner := rec.owner
		if owner == nil {
			continue
		}
		if owner != stepper {
			if len(owner.pending) == 0 {
				l.queued = append(l.queued, owner)
			}
			if owner.queue(rec, u.Rate) {
				l.tally.coalesced++
			}
			owner.pendingSeq = l.seq
			continue
		}
		stepper.reply = append(stepper.reply, int32(i))
		if rec.pendIdx >= 0 {
			owner.unqueue(rec)
		}
	}
}

// detach unregisters sess, reporting whether it was registered and how many
// of its flowlets it scheduled for retirement: an orphan-retirement event per
// flow, in flow order, so a crashed endpoint's flowlets do not hold fabric
// shares forever. A draining loop keeps them instead — they are about to be
// written to the snapshot and are already replicated to the successor shard —
// unowned, for a reconnecting client's matching add to adopt, and withdraws
// their queued rates, so no record stays reachable through a session that
// does not own it.
func (l *loop) detach(sess *session) (swept int, ok bool) {
	if _, ok := l.sessions[sess]; !ok {
		return 0, false
	}
	delete(l.sessions, sess)
	if l.draining {
		for _, rec := range sess.pending {
			rec.pendIdx = -1
		}
		sess.pending = nil
		for _, rec := range sess.owned {
			rec.owner = nil
		}
		sess.owned = nil
		return 0, true
	}
	n := len(l.inbox)
	for _, rec := range sess.owned {
		l.inbox = append(l.inbox, event{end: true, flow: rec.id, sess: sess, cleanup: true})
	}
	slices.SortFunc(l.inbox[n:], func(a, b event) int { return cmp.Compare(a.flow, b.flow) })
	return len(sess.owned), true
}
