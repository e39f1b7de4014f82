package transport

import (
	"net"
	"testing"

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
// nothing once warm. A Go map keyed by flow ID fails this: FIFO churn at a
// constant live count keeps regrowing its tables.
func TestAllocClientChurnAllocFree(t *testing.T) {
	const (
		resident = 20000
		churn    = 2000
		servers  = 64
	)
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
	step := func(wantUpdates int) {
		ups, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(ups) != wantUpdates {
			t.Fatalf("Step returned %d updates, want %d", len(ups), wantUpdates)
		}
		for _, u := range ups {
			if u.Src != int32(u.Flow%servers) || u.Rate != 1e9+float64(u.Flow) {
				t.Fatalf("update %+v: want src %d, rate %g", u, u.Flow%servers, 1e9+float64(u.Flow))
			}
		}
	}
	round := func() {
		for k := 0; k < churn; k++ {
			if err := c.FlowletEnd(oldest); err != nil {
				t.Fatal(err)
			}
			oldest++
			start()
		}
		step(churn)
	}
	for next < resident {
		start()
	}
	step(resident)
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
