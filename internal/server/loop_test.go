package server

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/wire"
)

// BenchmarkLoopFold measures the fold alone on churn-20k's shape: one
// session's 2 000 ends of its oldest flowlets and 2 000 new adds, folded into
// 20 000 live flowlets per op, with no socket, no session goroutine, no lock
// and no step. Steady state is 0 allocs/op.
func BenchmarkLoopFold(b *testing.B) {
	cfg := topology.DefaultSimConfig()
	cfg.Racks, cfg.ServersPerRack, cfg.Spines = 4, 4, 2
	topo, err := topology.NewTwoTier(cfg)
	if err != nil {
		b.Fatal(err)
	}
	l, err := newLoop(Config{Topology: topo, UpdateThreshold: 0.01, Gamma: 0.4, Blocks: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.alloc.Close()
	sess := &session{}
	l.sessions[sess] = struct{}{}

	const resident, churn = 20000, 2000
	n := topo.NumServers()
	next := core.FlowID(0)
	add := func() {
		src := int(next) % n
		l.inbox = append(l.inbox, event{flow: next, src: src, dst: (src + 1 + int(next)/n%(n-1)) % n, weight: 1, sess: sess})
		next++
	}
	for next < resident {
		add()
	}
	l.fold()
	op := func() {
		for k := 0; k < churn; k++ {
			l.inbox = append(l.inbox, event{end: true, flow: next - resident, sess: sess})
			add()
		}
		l.fold()
	}
	// Warm up until the inbox has let go of the set-up burst.
	for i := 0; i < 60; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*churn), "ns/event")
}

// loopOp is one step of a TestLoopMatchesServer schedule, taken by the client
// in slot c: a flowlet add or end, a Step, a reconnect (the client goes away
// and a new one takes its slot), or a drain of the daemon.
type loopOp struct {
	kind     loopOpKind
	c        int
	flow     core.FlowID
	src, dst int
	weight   float64
}

type loopOpKind int

const (
	opAdd loopOpKind = iota
	opEnd
	opStep
	opReconnect
	opDrain
)

// loopSchedule builds a seeded schedule for two client slots: churn with
// duplicate adds and unknown ends; a stale clean-up (slot 0 ends a flowlet,
// slot 1 registers the same ID, slot 0 disconnects, all before one fold);
// a disconnect whose flowlets are swept; and a drain in which slot 1
// disconnects and its successor re-registers some flowlets exactly (adopted),
// some with another weight (retired, the fresh add refused) and a new one
// (refused). Steps come from both slots throughout.
func loopSchedule(seed int64, hosts int) []loopOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []loopOp
	regs := make(map[core.FlowID]loopOp) // the schedule's view of who registered what
	next := core.FlowID(1)
	add := func(op loopOp) {
		op.kind = opAdd
		ops = append(ops, op)
		regs[op.flow] = op
	}
	newAdd := func(c int) {
		src := rng.Intn(hosts)
		add(loopOp{c: c, flow: next, src: src, dst: (src + 1 + rng.Intn(hosts-1)) % hosts, weight: float64(1 + rng.Intn(3))})
		next++
	}
	end := func(c int, id core.FlowID) {
		ops = append(ops, loopOp{kind: opEnd, c: c, flow: id})
		delete(regs, id)
	}
	mine := func(c int) []core.FlowID {
		var ids []core.FlowID
		for id, op := range regs {
			if op.c == c {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		return ids
	}
	reconnect := func(c int) {
		ops = append(ops, loopOp{kind: opReconnect, c: c})
	}
	step := func(c int) { ops = append(ops, loopOp{kind: opStep, c: c}) }
	churn := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for k := rng.Intn(6); k > 0; k-- {
				c := rng.Intn(2)
				ids := mine(c)
				switch x := rng.Intn(10); {
				case x < 3 && len(ids) > 0:
					end(c, ids[rng.Intn(len(ids))])
				case x == 3 && len(ids) > 0:
					dup := regs[ids[rng.Intn(len(ids))]]
					dup.kind = opAdd
					ops = append(ops, dup) // a duplicate add
				case x == 4:
					ops = append(ops, loopOp{kind: opEnd, c: c, flow: next + 1<<20}) // an unknown end
				default:
					newAdd(c)
				}
			}
			step(rng.Intn(2))
		}
	}

	churn(50)

	// Stale clean-up: slot 0's sweep must leave slot 1's registration of the
	// ID standing.
	for len(mine(0)) < 3 {
		newAdd(0)
	}
	stale := mine(0)[0]
	end(0, stale)
	add(loopOp{c: 1, flow: stale, src: 1, dst: 6, weight: 1})
	for _, id := range mine(0) {
		delete(regs, id)
	}
	reconnect(0)
	step(1)
	churn(20)

	// Drain with adoption.
	for len(mine(1)) < 6 {
		newAdd(1)
	}
	step(0)
	ops = append(ops, loopOp{kind: opDrain})
	kept := mine(1)
	reconnect(1)
	for i, id := range kept {
		op := regs[id]
		op.c = 1
		switch i % 3 {
		case 0:
			add(op) // adopted in place
		case 1:
			op.weight++
			add(op) // a stale registration: retired, and the fresh add refused
		}
	}
	newAdd(1) // refused
	step(1)
	for r := 0; r < 10; r++ {
		if ids := mine(1); r == 4 && len(ids) > 0 {
			end(1, ids[0])
		}
		step(rng.Intn(2))
	}
	return ops
}

// rateBits is one delivered rate as a session's stream carries it.
type rateBits struct {
	flow int64
	bits uint64
}

// TestLoopMatchesServer drives the loop on the test goroutine through a
// seeded schedule and checks the flow-table invariant after every fold, then
// runs the same schedule through a step-driven Server over net.Pipe: every
// connection's stream of delivered rates (flow, rate bits, order) must equal
// the one the loop routes to its session, step replies in the allocator's
// order and writer flushes in flow order.
func TestLoopMatchesServer(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		topo := testTopology(t)
		cfg := Config{Topology: topo, UpdateThreshold: 0.01, Gamma: 0.4, Blocks: 1}
		ops := loopSchedule(seed, topo.NumServers())
		want, marks, wantRates := loopStreams(t, cfg, ops)
		got, gotRates, st := serverStreams(t, cfg, ops, marks)
		if st.DuplicateAdds == 0 || st.UnknownEnds == 0 || st.AdoptedFlows == 0 || st.DrainRejects == 0 {
			t.Fatalf("seed %d: the schedule made %d duplicate adds, %d unknown ends, %d adoptions and %d drain rejects; want all",
				seed, st.DuplicateAdds, st.UnknownEnds, st.AdoptedFlows, st.DrainRejects)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d connections, the loop had %d sessions", seed, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("seed %d: connection %d received %d rates, the loop routed %d to its session:\n got %v\nwant %v",
					seed, i, len(got[i]), len(want[i]), got[i], want[i])
			}
		}
		if len(gotRates) != len(wantRates) {
			t.Fatalf("seed %d: the daemon holds %d flows, the loop %d", seed, len(gotRates), len(wantRates))
		}
		for id, r := range wantRates {
			if math.Float64bits(gotRates[id]) != math.Float64bits(r) {
				t.Fatalf("seed %d: flow %d rate %v in the daemon, %v in the loop", seed, id, gotRates[id], r)
			}
		}
	}
}

// loopStreams runs ops on a bare loop and returns, per session in the order
// the schedule connects them, the rates routed to it: each step's reply, and
// after every step each session's pending list as its writer would send it.
// marks holds, for each step, every stream's length after it.
func loopStreams(t *testing.T, cfg Config, ops []loopOp) (streams [][]rateBits, marks [][]int, rates map[core.FlowID]float64) {
	t.Helper()
	l, err := newLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.alloc.Close()
	slots := make([]*session, 2)
	inst := make([]int, 2)
	connect := func(c int) {
		slots[c] = &session{id: uint64(len(streams))}
		l.sessions[slots[c]] = struct{}{}
		inst[c] = len(streams)
		streams = append(streams, nil)
	}
	connect(0)
	connect(1)
	var flushed []wire.RateEntry
	for i, op := range ops {
		switch op.kind {
		case opAdd:
			l.inbox = append(l.inbox, event{flow: op.flow, src: op.src, dst: op.dst, weight: op.weight, sess: slots[op.c]})
		case opEnd:
			l.inbox = append(l.inbox, event{end: true, flow: op.flow, sess: slots[op.c]})
		case opReconnect:
			l.detach(slots[op.c])
			connect(op.c)
		case opDrain:
			l.draining = true
		case opStep:
			l.fold()
			if err := flowTableErr(&l); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			l.step()
			stepper := slots[op.c]
			l.route(stepper)
			for _, k := range stepper.reply {
				u := l.updates[k]
				streams[inst[op.c]] = append(streams[inst[op.c]], rateBits{int64(u.Flow), math.Float64bits(u.Rate)})
			}
			for c, sess := range slots {
				flushed, _ = sess.take(flushed[:0])
				slices.SortFunc(flushed, func(a, b wire.RateEntry) int { return cmp.Compare(a.Flow, b.Flow) })
				for _, e := range flushed {
					streams[inst[c]] = append(streams[inst[c]], rateBits{e.Flow, math.Float64bits(e.Rate)})
				}
			}
			mark := make([]int, len(streams))
			for k := range streams {
				mark[k] = len(streams[k])
			}
			marks = append(marks, mark)
		}
	}
	return streams, marks, l.alloc.Rates()
}

// rawClient is one raw-frame client of serverStreams: a reader goroutine
// collects the rates it is sent and signals each step reply.
type rawClient struct {
	conn    net.Conn
	rates   chan []rateBits
	replies chan struct{}
	got     []rateBits
}

// serverStreams runs ops against a step-driven Server over net.Pipe and
// returns each connection's delivered rates. Every event is in the inbox
// before the next is sent, and every step waits for its reply, for every
// writer to take its pending rates, and for every connection to hold as many
// rates as marks says the loop had routed to its session by then, so what
// each iteration folds and routes is the schedule's, not the scheduler's.
func serverStreams(t *testing.T, cfg Config, ops []loopOp, marks [][]int) ([][]rateBits, map[core.FlowID]float64, Stats) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var clients []*rawClient
	slots := make([]*rawClient, 2)
	connect := func(c int) {
		clientEnd, serverEnd := net.Pipe()
		go srv.ServeConn(serverEnd)
		pc := &rawClient{conn: clientEnd, rates: make(chan []rateBits, 64), replies: make(chan struct{}, 1)}
		welcome := make(chan error, 1)
		go pc.read(welcome)
		if _, err := clientEnd.Write(wire.AppendHello(nil, wire.Hello{Version: wire.Version, ClientID: uint64(len(clients))})); err != nil {
			t.Fatal(err)
		}
		if err := <-welcome; err != nil {
			t.Fatal(err)
		}
		slots[c] = pc
		clients = append(clients, pc)
	}
	send := func(frame []byte, c int) {
		t.Helper()
		if _, err := slots[c].conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	connect(0)
	connect(1)
	events := int64(0)
	steps := 0
	for i, op := range ops {
		switch op.kind {
		case opAdd:
			send(wire.AppendFlowletAdd(nil, wire.FlowletAdd{Flow: int64(op.flow), Src: int32(op.src), Dst: int32(op.dst), Weight: op.weight}), op.c)
			events++
			waitFor(t, func() bool { return srv.Stats().EventsReceived == events })
		case opEnd:
			send(wire.AppendFlowletEnd(nil, wire.FlowletEnd{Flow: int64(op.flow)}), op.c)
			events++
			waitFor(t, func() bool { return srv.Stats().EventsReceived == events })
		case opReconnect:
			slots[op.c].conn.Close()
			waitFor(t, func() bool {
				srv.mu.Lock()
				defer srv.mu.Unlock()
				return len(srv.sessions) == 1
			})
			connect(op.c)
		case opDrain:
			srv.Drain()
		case opStep:
			send(wire.AppendStep(nil, wire.Step{Seq: uint64(i + 1)}), op.c)
			select {
			case <-slots[op.c].replies:
			case <-time.After(5 * time.Second):
				t.Fatalf("op %d: no step reply", i)
			}
			waitFor(t, srv.fanoutDrained)
			checkFlowTable(t, srv)
			for k, pc := range clients {
				pc.collect(t, marks[steps][k])
			}
			steps++
		}
	}
	got := make([][]rateBits, len(clients))
	for k, pc := range clients {
		got[k] = pc.got
	}
	return got, srv.Rates(), srv.Stats()
}

// read collects the rates the client is sent until the connection closes,
// after reporting the handshake's outcome on welcome.
func (pc *rawClient) read(welcome chan<- error) {
	sc := wire.NewScanner(pc.conn)
	if typ, _, err := sc.Next(); err != nil || typ != wire.TypeWelcome {
		welcome <- fmt.Errorf("handshake: %s frame, %v", typ, err)
		return
	}
	welcome <- nil
	var d wire.RateDelta
	for {
		typ, payload, err := sc.Next()
		if err != nil {
			return
		}
		if typ != wire.TypeRateDelta || wire.DecodeRateDelta(payload, &d) != nil {
			pc.rates <- []rateBits{{flow: -1}} // fails the comparison
			continue
		}
		batch := make([]rateBits, len(d.Entries))
		for i, e := range d.Entries {
			batch[i] = rateBits{e.Flow, math.Float64bits(e.Rate)}
		}
		pc.rates <- batch
		if d.Seq&wire.StepReplyFlag != 0 {
			pc.replies <- struct{}{}
		}
	}
}

// collect takes what the reader has received until the client holds at least
// n rates, or reports a timeout.
func (pc *rawClient) collect(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case batch := <-pc.rates:
			pc.got = append(pc.got, batch...)
			continue
		default:
		}
		if len(pc.got) >= n {
			return
		}
		select {
		case batch := <-pc.rates:
			pc.got = append(pc.got, batch...)
		case <-deadline:
			t.Fatalf("a client holds %d rates, the loop routed %d to its session", len(pc.got), n)
		}
	}
}
