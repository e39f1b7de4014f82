package server

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestRefusedAddLeavesNoTrace folds one event the daemon declines to act on —
// an add refused because the daemon is draining, the session is dead, the
// session is at MaxSessionFlows, the shard is foreign, the destination is
// unroutable or the weight is non-finite; a duplicate add; a stale orphan
// sweep — into a daemon with live flows and free slots, and checks it against
// a twin that never saw the event: SlotOf answers for the event's flow as it
// did before, NumFlows is unchanged, the next admission would take the same
// slot in both, and every live flow's rate has the same bits after three
// iterations. The fold binds an ID before it knows whether it admits it, so
// each refusal must release exactly the binding it made.
func TestRefusedAddLeavesNoTrace(t *testing.T) {
	cases := []struct {
		name    string
		cfg     func(t *testing.T) Config
		prep    func(f *refusalFixture) // applied to both daemons
		event   func(f *refusalFixture) event
		counter func(Stats) int64 // the counter the event bumps, if any
	}{
		{
			name:    "draining",
			prep:    func(f *refusalFixture) { f.srv.Drain() },
			event:   func(f *refusalFixture) event { return event{flow: 50, src: 0, dst: 5, weight: 1, sess: f.b} },
			counter: func(st Stats) int64 { return st.DrainRejects },
		},
		{
			name:    "dead session",
			event:   func(f *refusalFixture) event { return event{flow: 50, src: 0, dst: 5, weight: 1, sess: f.dead} },
			counter: func(st Stats) int64 { return st.RejectedAdds },
		},
		{
			name:    "session flow limit",
			cfg:     func(t *testing.T) Config { return Config{Topology: testTopology(t), MaxSessionFlows: 10} },
			event:   func(f *refusalFixture) event { return event{flow: 50, src: 0, dst: 5, weight: 1, sess: f.a} },
			counter: func(st Stats) int64 { return st.LimitedAdds },
		},
		{
			name: "foreign shard",
			cfg:  func(t *testing.T) Config { return Config{Topology: clusterTopo(t), NumShards: 2, ShardIndex: 0} },
			event: func(f *refusalFixture) event {
				return event{flow: 50, src: f.foreign, dst: (f.foreign + 1) % f.srv.cfg.Topology.NumServers(), weight: 1, sess: f.b}
			},
			counter: func(st Stats) int64 { return st.RejectedAdds },
		},
		{
			name: "unroutable destination",
			event: func(f *refusalFixture) event {
				return event{flow: 50, src: 0, dst: f.srv.cfg.Topology.NumServers(), weight: 1, sess: f.b}
			},
			counter: func(st Stats) int64 { return st.RejectedAdds },
		},
		{
			name:    "non-finite weight",
			event:   func(f *refusalFixture) event { return event{flow: 50, src: 0, dst: 5, weight: math.Inf(1), sess: f.b} },
			counter: func(st Stats) int64 { return st.RejectedAdds },
		},
		{
			name: "duplicate add",
			event: func(f *refusalFixture) event {
				slot, _ := f.srv.alloc.SlotOf(102)
				rf := f.srv.alloc.FlowAt(slot)
				return event{flow: 102, src: rf.Src, dst: rf.Dst, weight: rf.Weight, sess: f.b}
			},
			counter: func(st Stats) int64 { return st.DuplicateAdds },
		},
		{
			// b owns flow 102; a's clean-up end for it is stale.
			name:  "stale orphan sweep",
			event: func(f *refusalFixture) event { return event{end: true, flow: 102, sess: f.a, cleanup: true} },
		},
	}

	// build boots a daemon with sessions a and b live and dead never
	// registered: a owns flows 1–10, b owns 100, 102 and 104, and b's ended
	// 101 and 103 left two slots free.
	build := func(t *testing.T, cfg Config) *refusalFixture {
		t.Helper()
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		f := &refusalFixture{srv: srv, foreign: -1}
		f.a, f.b, f.dead = fanoutSession(srv, &fanoutConn{}), fanoutSession(srv, &fanoutConn{}), fanoutSession(srv, &fanoutConn{})
		f.a.id, f.b.id, f.dead.id = 1, 2, 3
		srv.sessions[f.a], srv.sessions[f.b] = struct{}{}, struct{}{}
		n := cfg.Topology.NumServers()
		var owned []int // sources whose flows to src+1 this daemon serves
		for src := 0; src < n; src++ {
			if srv.shard == nil || srv.shard.ownsFlow(src, (src+1)%n) {
				owned = append(owned, src)
			} else if f.foreign < 0 {
				f.foreign = src
			}
		}
		var adds []event
		add := func(id core.FlowID, sess *session) {
			src := owned[int(id)%len(owned)]
			adds = append(adds, event{flow: id, src: src, dst: (src + 1) % n, weight: float64(1 + id%3), sess: sess})
		}
		for id := core.FlowID(1); id <= 10; id++ {
			add(id, f.a)
		}
		for id := core.FlowID(100); id <= 104; id++ {
			add(id, f.b)
		}
		srv.publish(adds)
		f.iterate(t, 2)
		srv.publish([]event{{end: true, flow: 101, sess: f.b}, {end: true, flow: 103, sess: f.b}})
		f.iterate(t, 1)
		if got := srv.NumFlows(); got != 13 {
			t.Fatalf("the fixture holds %d flows, want 13", got)
		}
		return f
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Topology: testTopology(t)}
			if c.cfg != nil {
				cfg = c.cfg(t)
			}
			with, without := build(t, cfg), build(t, cfg)
			if c.prep != nil {
				c.prep(with)
				c.prep(without)
			}
			ev := c.event(with)
			before := with.srv.Stats()
			slot, known := with.srv.alloc.SlotOf(ev.flow)
			flows := with.srv.NumFlows()

			with.srv.publish([]event{ev})
			with.iterate(t, 3)
			without.iterate(t, 3)

			if c.counter != nil {
				if d := c.counter(with.srv.Stats()) - c.counter(before); d != 1 {
					t.Fatalf("the event moved its refusal counter by %d, want 1", d)
				}
			}
			if s, ok := with.srv.alloc.SlotOf(ev.flow); s != slot || ok != known {
				t.Fatalf("SlotOf(%d) = %d, %v after the event; %d, %v before", ev.flow, s, ok, slot, known)
			}
			if got := with.srv.NumFlows(); got != flows {
				t.Fatalf("NumFlows = %d after the event, %d before", got, flows)
			}
			if got, want := with.nextSlot(), without.nextSlot(); got != want {
				t.Fatalf("the next admission would take slot %d, %d without the event", got, want)
			}
			got, want := with.srv.Rates(), without.srv.Rates()
			if len(got) != len(want) {
				t.Fatalf("%d live rates, %d without the event", len(got), len(want))
			}
			for id, r := range want {
				if math.Float64bits(got[id]) != math.Float64bits(r) {
					t.Fatalf("flow %d rate %v, %v without the event", id, got[id], r)
				}
			}
			checkFlowTable(t, with.srv)
		})
	}
}

// refusalFixture is one daemon of TestRefusedAddLeavesNoTrace.
type refusalFixture struct {
	srv        *Server
	a, b, dead *session
	foreign    int // a server this daemon's shard does not own, or -1
}

// nextSlot returns the slot the daemon's next admission would take, by binding
// an unused ID and releasing it.
func (f *refusalFixture) nextSlot() int32 {
	const probe = core.FlowID(1) << 40
	f.srv.mu.Lock()
	defer f.srv.mu.Unlock()
	slot, _ := f.srv.alloc.Bind(probe)
	f.srv.alloc.Unbind(probe)
	return slot
}

// iterate runs k step-driven iterations, flushing both sessions' rates.
func (f *refusalFixture) iterate(t *testing.T, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if err := f.srv.iterate(nil, 0); err != nil {
			t.Fatal(err)
		}
		f.a.flushPending()
		f.b.flushPending()
	}
}
