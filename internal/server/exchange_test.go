package server

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/wire"
)

// exchangeRound is one round of a TestExchangeMatchesServers schedule: the
// daemon killed before it (-1 for none), the flowlet adds and ends sent to
// each daemon (loopOp.c is the daemon), then one step of every live daemon in
// shard order.
type exchangeRound struct {
	kill int
	ops  []loopOp
}

// exchangeSchedule builds a seeded cross-shard churn schedule: every round
// each live daemon registers flowlets from the racks it serves into any rack
// and ends some of its own. Daemon dead is killed before round kill; its
// successor heir adopts it at the next round's step, and from the round after
// that the schedule re-registers dead's flowlets on heir (adopted in place)
// and sends heir the flowlets of dead's racks.
func exchangeSchedule(seed int64, smap *topology.ShardMap, rounds, kill, dead, heir int) []exchangeRound {
	rng := rand.New(rand.NewSource(seed))
	hosts := smap.Topology().NumServers()
	servedBy := make([]int, smap.NumShards())
	for s := range servedBy {
		servedBy[s] = s
	}
	regs := make(map[core.FlowID]loopOp)
	mine := func(d int) []core.FlowID {
		var ids []core.FlowID
		for id, op := range regs {
			if op.c == d {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		return ids
	}
	next := core.FlowID(1)
	var sched []exchangeRound
	for r := 0; r < rounds; r++ {
		rd := exchangeRound{kill: -1}
		if r == kill {
			rd.kill = dead
		}
		if r == kill+2 {
			servedBy[dead] = heir
			for _, id := range mine(dead) {
				op := regs[id]
				op.c = heir
				regs[id] = op
				rd.ops = append(rd.ops, op)
			}
		}
		for d := range servedBy {
			if d == dead && r >= kill {
				continue
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				if ids := mine(d); rng.Intn(3) == 0 && len(ids) > 0 {
					id := ids[rng.Intn(len(ids))]
					rd.ops = append(rd.ops, loopOp{kind: opEnd, c: d, flow: id})
					delete(regs, id)
					continue
				}
				src := rng.Intn(hosts)
				for servedBy[smap.ShardOfServer(src)] != d {
					src = rng.Intn(hosts)
				}
				op := loopOp{kind: opAdd, c: d, flow: next, src: src, dst: (src + 1 + rng.Intn(hosts-1)) % hosts, weight: float64(1 + rng.Intn(3))}
				rd.ops = append(rd.ops, op)
				regs[next] = op
				next++
			}
		}
		sched = append(sched, rd)
	}
	return sched
}

// exchangeRun is what one run of a schedule produced: bundles[i][j] lists
// the bundles daemon i built for daemon j, rates[r][d] is daemon d's
// allocation after round r (nil once it is dead), and stats each daemon's
// counters at the end.
type exchangeRun struct {
	bundles [][][][]byte
	rates   [][]map[core.FlowID]float64
	stats   []Stats
}

func newExchangeRun(shards int) *exchangeRun {
	run := &exchangeRun{bundles: make([][][][]byte, shards), stats: make([]Stats, shards)}
	for i := range run.bundles {
		run.bundles[i] = make([][][]byte, shards)
	}
	return run
}

// TestExchangeMatchesServers drives bare (loop, exchange) pairs of a
// three-daemon takeover cluster on the test goroutine, handing every bundle
// to its receiver through the wire decoders, then runs the same schedule
// through a step-driven cluster of Servers over net.Pipe: every bundle's
// bytes, every rate's bits after every round and every counter must be the
// same. The schedule kills a daemon mid-run, so the run covers the failed
// push, the successor's adoption, its announcement and the re-homed flowlets.
func TestExchangeMatchesServers(t *testing.T) {
	const shards, rounds, kill, dead, heir = 3, 24, 10, 1, 2
	topo, err := topology.NewTwoTier(topology.Config{Racks: 6, ServersPerRack: 2, Spines: 2, LinkCapacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	smap, err := topology.NewShardMap(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topology: topo, UpdateThreshold: 0.01, Gamma: 0.4, Blocks: 1, Epoch: 1, NumShards: shards, Takeover: true}
	for _, seed := range []int64{1, 2} {
		sched := exchangeSchedule(seed, smap, rounds, kill, dead, heir)
		want := bareExchange(t, cfg, sched)
		got := serverExchange(t, cfg, sched)
		if st := got.stats[heir]; st.Takeovers != 1 || st.AdoptedFlows == 0 {
			t.Fatalf("seed %d: heir made %d takeovers and adopted %d flowlets; want 1 and some", seed, st.Takeovers, st.AdoptedFlows)
		}
		for i := range want.bundles {
			for j := range want.bundles[i] {
				w, g := want.bundles[i][j], got.bundles[i][j]
				if len(g) != len(w) {
					t.Fatalf("seed %d: daemon %d pushed %d bundles to %d, the exchange built %d", seed, i, len(g), j, len(w))
				}
				for k := range w {
					if !bytes.Equal(g[k], w[k]) {
						t.Fatalf("seed %d: daemon %d's bundle %d to %d differs from the exchange's:\n got %x\nwant %x", seed, i, k, j, g[k], w[k])
					}
				}
			}
		}
		for r := range want.rates {
			for d, w := range want.rates[r] {
				g := got.rates[r][d]
				if len(g) != len(w) {
					t.Fatalf("seed %d round %d: daemon %d holds %d flows, the loop %d", seed, r, d, len(g), len(w))
				}
				for id, rate := range w {
					if math.Float64bits(g[id]) != math.Float64bits(rate) {
						t.Fatalf("seed %d round %d: daemon %d flow %d rate %v, the loop's %v", seed, r, d, id, g[id], rate)
					}
				}
			}
		}
		for d := range want.stats {
			if g := modelledStats(got.stats[d]); g != want.stats[d] {
				t.Fatalf("seed %d: daemon %d counters %+v, the bare pair's %+v", seed, d, g, want.stats[d])
			}
		}
	}
}

// modelledStats keeps the counters the bare pairs keep: the ones the loop's
// and the exchange's passes count, and the peer frames a reader refuses.
func modelledStats(st Stats) Stats {
	return Stats{
		DuplicateAdds: st.DuplicateAdds, UnknownEnds: st.UnknownEnds, RejectedAdds: st.RejectedAdds,
		AdoptedFlows: st.AdoptedFlows, UpdatesCoalesced: st.UpdatesCoalesced,
		PeerRejected: st.PeerRejected, Takeovers: st.Takeovers,
		ExchangeFolds: st.ExchangeFolds, ExchangeStalenessIters: st.ExchangeStalenessIters,
		ExchangeBytes: st.ExchangeBytes, ExchangeBytesFixed: st.ExchangeBytesFixed,
	}
}

// bareExchange runs sched on one (loop, exchange) pair per daemon, each with
// one session, on the test goroutine. A step is what Server.iterate does
// under s.mu — exchange fold and deaths, loop fold, step and route, then a
// bundle built for every attached peer — followed by the push: the bundle's
// frames are decoded and queued at a live peer, as a session reader and the
// next fold do, while a push to a dead
// one detaches it and marks it dead, as dropPeer does.
func bareExchange(t *testing.T, cfg Config, sched []exchangeRound) *exchangeRun {
	t.Helper()
	shards := cfg.NumShards
	loops := make([]loop, shards)
	xs := make([]exchange, shards)
	sessions := make([]*session, shards)
	attached := make([][]bool, shards)
	for i := range loops {
		c := cfg
		c.ShardIndex = i
		var err error
		if loops[i], err = newLoop(c); err != nil {
			t.Fatal(err)
		}
		defer loops[i].alloc.Close()
		if xs[i], err = newExchange(c); err != nil {
			t.Fatal(err)
		}
		loops[i].owns = xs[i].ownsFlow
		sessions[i] = &session{}
		loops[i].sessions[sessions[i]] = struct{}{}
		attached[i] = make([]bool, shards)
		for j := range attached[i] {
			// What ConnectPeer does to the exchange.
			attached[i][j] = i != j
			xs[i].peers[j].needReset = true
		}
	}
	run := newExchangeRun(shards)
	alive := slices.Repeat([]bool{true}, shards)
	var (
		buf []byte
		dec peerDecoder
	)
	for _, rd := range sched {
		if rd.kill >= 0 {
			alive[rd.kill] = false
		}
		for _, op := range rd.ops {
			l := &loops[op.c]
			ev := event{flow: op.flow, src: op.src, dst: op.dst, weight: op.weight, sess: sessions[op.c], end: op.kind == opEnd}
			l.inbox = append(l.inbox, ev)
		}
		for i := range loops {
			if !alive[i] {
				continue
			}
			l, x := &loops[i], &xs[i]
			x.fold(l)
			x.deaths(l)
			l.fold()
			l.step()
			l.route(sessions[i])
			if slices.Contains(attached[i], true) {
				x.prepare(l)
			}
			for j := range attached[i] {
				if !attached[i][j] {
					continue
				}
				var acks int
				buf, acks = x.build(buf[:0], l, j, l.seq, cfg.Epoch)
				if !alive[j] {
					// The push fails before writing: a net.Pipe whose far
					// end is closed refuses the push deadline.
					attached[i][j] = false
					x.peers[j].deathPending = true
					continue
				}
				run.bundles[i][j] = append(run.bundles[i][j], bytes.Clone(buf))
				for frames := buf; len(frames) > 0; {
					typ, payload, rest, err := wire.ParseFrame(frames)
					if err != nil {
						t.Fatal(err)
					}
					m, err := dec.decode(uint32(i), cfg.Epoch, typ, payload)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case m.kind == msgRefused:
						loops[j].stats.PeerRejected++
					case m.kind > msgRefused:
						xs[j].queue(m)
					}
					if typ == wire.TypePriceSnapshotDelta {
						acks--
					}
					frames = rest
				}
				if acks != 0 {
					t.Fatalf("daemon %d's bundle to %d: %d snapshot chunks unaccounted for", i, j, acks)
				}
			}
		}
		rates := make([]map[core.FlowID]float64, shards)
		for d := range loops {
			if alive[d] {
				rates[d] = loops[d].alloc.Rates()
			}
		}
		run.rates = append(run.rates, rates)
	}
	for i := range loops {
		run.stats[i] = modelledStats(loops[i].stats)
	}
	return run
}

// bundleConn is an outbound peer connection that keeps a copy of every write:
// the PeerHello, then one bundle per push.
type bundleConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *bundleConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(b))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// serverExchange runs sched on a step-driven cluster of Servers connected
// over net.Pipe, one raw client per daemon; a round's events precede its
// steps on each client's stream, and every step waits for its reply, by which
// time its bundles sit acknowledged in every live peer's queue.
func serverExchange(t *testing.T, cfg Config, sched []exchangeRound) *exchangeRun {
	t.Helper()
	shards := cfg.NumShards
	srvs := make([]*Server, shards)
	for i := range srvs {
		c := cfg
		c.ShardIndex = i
		srv, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs[i] = srv
	}
	outs := make([][]*bundleConn, shards)
	for i := range srvs {
		outs[i] = make([]*bundleConn, shards)
		for j := range srvs {
			if i == j {
				continue
			}
			out, in := net.Pipe()
			go srvs[j].ServeConn(in)
			outs[i][j] = &bundleConn{Conn: out}
			if _, err := srvs[i].ConnectPeer(outs[i][j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	clients := make([]*rawClient, shards)
	for i, srv := range srvs {
		clientEnd, serverEnd := net.Pipe()
		go srv.ServeConn(serverEnd)
		defer clientEnd.Close()
		clients[i] = &rawClient{conn: clientEnd, rates: make(chan []rateBits, 64), replies: make(chan struct{}, 1)}
		welcome := make(chan error, 1)
		go clients[i].read(welcome)
		if _, err := clientEnd.Write(wire.AppendHello(nil, wire.Hello{Version: wire.Version, ClientID: uint64(i)})); err != nil {
			t.Fatal(err)
		}
		if err := <-welcome; err != nil {
			t.Fatal(err)
		}
	}

	run := newExchangeRun(shards)
	alive := slices.Repeat([]bool{true}, shards)
	for r, rd := range sched {
		if rd.kill >= 0 {
			srvs[rd.kill].Close()
			alive[rd.kill] = false
		}
		frames := make([][]byte, shards)
		for _, op := range rd.ops {
			if op.kind == opEnd {
				frames[op.c] = wire.AppendFlowletEnd(frames[op.c], wire.FlowletEnd{Flow: int64(op.flow)})
			} else {
				frames[op.c] = wire.AppendFlowletAdd(frames[op.c], wire.FlowletAdd{Flow: int64(op.flow), Src: int32(op.src), Dst: int32(op.dst), Weight: op.weight})
			}
		}
		for i, pc := range clients {
			if !alive[i] {
				continue
			}
			if _, err := pc.conn.Write(wire.AppendStep(frames[i], wire.Step{Seq: uint64(r + 1)})); err != nil {
				t.Fatal(err)
			}
			select {
			case <-pc.replies:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: daemon %d sent no step reply", r, i)
			}
			for len(pc.rates) > 0 {
				<-pc.rates
			}
		}
		rates := make([]map[core.FlowID]float64, shards)
		for d, srv := range srvs {
			if alive[d] {
				rates[d] = srv.Rates()
			}
		}
		run.rates = append(run.rates, rates)
	}
	for i := range outs {
		for j, c := range outs[i] {
			if c == nil {
				continue
			}
			c.mu.Lock()
			run.bundles[i][j] = c.writes[1:] // after the PeerHello
			c.mu.Unlock()
		}
		run.stats[i] = modelledStats(srvs[i].Stats())
	}
	return run
}
