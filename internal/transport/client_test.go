package transport

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/wire"
)

// scriptedDaemon plays a daemon over conn: it answers the Hello, and answers
// every Step with one RateDelta carrying a rate for each flow added and each
// flow ended since the previous Step, so the client decodes hits and drops
// misses. It reuses its buffers, so in steady state it allocates nothing.
func scriptedDaemon(t *testing.T, conn net.Conn) {
	sc := wire.NewScanner(conn)
	if typ, _, err := sc.Next(); err != nil || typ != wire.TypeHello {
		t.Errorf("daemon side read %s, %v; want a hello", typ, err)
		return
	}
	if _, err := conn.Write(wire.AppendWelcome(nil, wire.Welcome{Version: wire.Version, Epoch: 1})); err != nil {
		t.Error(err)
		return
	}
	var entries []wire.RateEntry
	var reply []byte
	for {
		typ, payload, err := sc.Next()
		if err != nil {
			return // the client closed
		}
		switch typ {
		case wire.TypeFlowletAdd:
			m, err := wire.DecodeFlowletAdd(payload)
			if err != nil {
				t.Error(err)
				return
			}
			entries = append(entries, wire.RateEntry{Flow: m.Flow, Rate: 1e9 + float64(m.Flow)})
		case wire.TypeFlowletEnd:
			m, err := wire.DecodeFlowletEnd(payload)
			if err != nil {
				t.Error(err)
				return
			}
			entries = append(entries, wire.RateEntry{Flow: m.Flow, Rate: 5e8})
		case wire.TypeStep:
			m, err := wire.DecodeStep(payload)
			if err != nil {
				t.Error(err)
				return
			}
			reply = wire.AppendRateDelta(reply[:0], m.Seq|wire.StepReplyFlag, false, entries)
			entries = entries[:0]
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}
}

// TestAllocClientChurnAllocFree pins the endpoint's half of churn-20k: an
// AllocClient holding 20 000 flowlets, ending the oldest 2 000 and starting
// 2 000 new ones per round, then decoding the daemon's 4 000-entry RateDelta
// (2 000 rates for live flows, 2 000 for flows it already ended), allocates
// nothing once warm, and Step returns every (Flow, Rate) pair the frame
// carried, in frame order, ended flows included: dropping those is the
// caller's business. A Go map keyed by flow ID fails this: FIFO churn at a
// constant live count keeps regrowing its tables.
func TestAllocClientChurnAllocFree(t *testing.T) {
	const (
		resident = 20000
		churn    = 2000
		servers  = 64
	)
	// Free registrations are told apart without a mark, so a record stays
	// four words.
	if size := unsafe.Sizeof(flowReg{}); size != 32 {
		t.Fatalf("flowReg is %d bytes, want 32", size)
	}
	client, daemon := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		scriptedDaemon(t, daemon)
	}()
	defer func() {
		client.Close()
		<-done
		daemon.Close()
	}()
	c, err := NewAllocClient(client, 1)
	if err != nil {
		t.Fatal(err)
	}
	var oldest, next core.FlowID
	start := func() {
		src := int(next % servers)
		if err := c.FlowletStart(next, src, (src+1)%servers, 1); err != nil {
			t.Fatal(err)
		}
		next++
	}
	step := func(wantUpdates int) []core.RateUpdate {
		ups, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(ups) != wantUpdates {
			t.Fatalf("Step returned %d updates, want %d", len(ups), wantUpdates)
		}
		return ups
	}
	want := func(u core.RateUpdate, flow core.FlowID, rate float64) {
		if u != (core.RateUpdate{Flow: flow, Rate: rate}) {
			t.Fatalf("update %+v: want flow %d at rate %g", u, flow, rate)
		}
	}
	round := func() {
		ended, started := oldest, next
		for k := 0; k < churn; k++ {
			if err := c.FlowletEnd(oldest); err != nil {
				t.Fatal(err)
			}
			oldest++
			start()
		}
		ups := step(2 * churn)
		for k := 0; k < churn; k++ {
			e, s := ended+core.FlowID(k), started+core.FlowID(k)
			want(ups[2*k], e, 5e8)
			want(ups[2*k+1], s, 1e9+float64(s))
		}
	}
	for next < resident {
		start()
	}
	for i, u := range step(resident) {
		want(u, core.FlowID(i), 1e9+float64(i))
	}
	for r := 0; r < 20; r++ {
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a churn round allocates %.1f times, want 0", allocs)
	}
	if c.NumFlows() != resident {
		t.Fatalf("NumFlows = %d, want %d", c.NumFlows(), resident)
	}
	regs := c.Registrations()
	for i, r := range regs {
		if want := oldest + core.FlowID(i); r.ID != want || r.Src != int(want%servers) {
			t.Fatalf("registration %d = %+v, want flow %d from server %d", i, r, want, want%servers)
		}
	}
}

// TestAllocClientReregistersLiveFlowsOnly: after ends that free registration
// entries and starts that reuse them, Registrations, Reconnect and
// ResumeReconnect see exactly the live flows, sorted by ID — a free entry is
// never re-registered, even one whose ID has since started again elsewhere,
// and a reused one carries its new flow.
func TestAllocClientReregistersLiveFlowsOnly(t *testing.T) {
	client, daemon := net.Pipe()
	go scriptedDaemon(t, daemon)
	c, err := NewAllocClient(client, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for id := core.FlowID(9); id >= 0; id-- {
		if err := c.FlowletStart(id, int(id), int(id)+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []core.FlowID{3, 7, 0, 42} { // 42 is unknown
		if err := c.FlowletEnd(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlowletStart(20, 20, 21, 2); err != nil { // reuses 0's entry
		t.Fatal(err)
	}
	// 3 comes back in 7's entry; its own old entry stays free, still
	// holding ID 3.
	if err := c.FlowletStart(3, 3, 4, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.FlowletStart(5, 0, 1, 1); err != nil { // a duplicate: no-op
		t.Fatal(err)
	}
	live := []core.FlowID{1, 2, 3, 4, 5, 6, 8, 9, 20}
	regs := c.Registrations()
	if len(regs) != len(live) || c.NumFlows() != len(live) {
		t.Fatalf("%d registrations (NumFlows %d), want %d: %+v", len(regs), c.NumFlows(), len(live), regs)
	}
	for i, r := range regs {
		w := FlowRegistration{ID: live[i], Src: int(live[i]), Dst: int(live[i]) + 1, Weight: 1}
		if live[i] == 3 || live[i] == 20 {
			w.Weight = 2
		}
		if r != w {
			t.Fatalf("registration %d = %+v, want %+v", i, r, w)
		}
	}

	for _, resume := range []bool{false, true} {
		client, daemon := net.Pipe()
		frames := recordingDaemon(t, daemon)
		var err error
		if resume {
			err = c.ResumeReconnect(client)
		} else {
			err = c.Reconnect(client)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		client.Close()
		var want []string
		for _, id := range live {
			if !resume {
				want = append(want, fmt.Sprintf("end %d", id))
			}
			want = append(want, fmt.Sprintf("add %d", id))
		}
		if got := <-frames; !slices.Equal(got, want) {
			t.Fatalf("resume %v: the daemon read %q, want %q", resume, got, want)
		}
	}
}

// recordingDaemon answers the handshake on conn, then records every
// FlowletEnd and FlowletAdd it reads as "end <id>" or "add <id>" until the
// client closes, and sends the record.
func recordingDaemon(t *testing.T, conn net.Conn) <-chan []string {
	frames := make(chan []string, 1)
	go func() {
		defer conn.Close()
		var got []string
		sc := wire.NewScanner(conn)
		if _, _, err := sc.Next(); err != nil { // the hello
			t.Error(err)
		}
		if _, err := conn.Write(wire.AppendWelcome(nil, wire.Welcome{Version: wire.Version, Epoch: 2})); err != nil {
			t.Error(err)
		}
		for {
			typ, payload, err := sc.Next()
			if err != nil {
				frames <- got
				return
			}
			switch typ {
			case wire.TypeFlowletAdd:
				m, err := wire.DecodeFlowletAdd(payload)
				if err != nil {
					t.Error(err)
				}
				got = append(got, fmt.Sprintf("add %d", m.Flow))
			case wire.TypeFlowletEnd:
				m, err := wire.DecodeFlowletEnd(payload)
				if err != nil {
					t.Error(err)
				}
				got = append(got, fmt.Sprintf("end %d", m.Flow))
			}
		}
	}()
	return frames
}
