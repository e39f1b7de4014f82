package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/transport"
)

// goldenExchangeHash is TestExchangeGoldenBytes' digest of a 4-shard
// takeover cluster's whole peer plane. A change that moves it changed what a
// daemon puts on a peer connection, what it folds, or the rates that result.
const goldenExchangeHash = "46560b0f65682c2c3615933ac0cec0af690b2aff3f4effca2155b7cb7e4fa024"

// recordConn is an outbound peer connection that feeds every byte the daemon
// writes — its PeerHello and every exchange bundle, before the write can fail
// — into the daemon's stream hash.
type recordConn struct {
	net.Conn
	mu *sync.Mutex
	h  hash.Hash
}

func (c recordConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.h.Write(b)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// TestExchangeGoldenBytes pins the sharded peer plane byte for byte: a
// step-driven 4-shard cluster with Takeover on, over net.Pipe, runs churn
// whose every flow crosses the boundary, and daemon 2 is killed mid-run — its
// successor adopts it, and the endpoint fails over. One hash covers every
// bundle each daemon built (digest, heartbeat, takeover, replica and
// snapshot frames, in push order), the final rate bits of every live daemon,
// and each daemon's exchange counters.
func TestExchangeGoldenBytes(t *testing.T) {
	const (
		shards = 4
		rounds = 40
		kill   = 15 // daemon 2 dies before this round's step
		dead   = 2
		heir   = 3
	)
	topo := clusterTopo(t) // one rack (two servers) per shard
	smap, err := topology.NewShardMap(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	var srvs [shards]*Server
	var streams [shards]hash.Hash
	var mus [shards]sync.Mutex
	for i := range srvs {
		srv, err := New(Config{Topology: topo, NumShards: shards, ShardIndex: i, Takeover: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i], streams[i] = srv, sha256.New()
	}
	for i := range srvs {
		for j := range srvs {
			if i == j {
				continue
			}
			out, in := net.Pipe()
			go srvs[j].ServeConn(in)
			if _, err := srvs[i].ConnectPeer(recordConn{Conn: out, mu: &mus[i], h: streams[i]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	conns := make([]net.Conn, shards)
	for i := range conns {
		clientEnd, serverEnd := net.Pipe()
		go srvs[i].ServeConn(serverEnd)
		conns[i] = clientEnd
	}
	cli, err := transport.NewShardedClient(conns, smap, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	cli.SetFreezeOnFailure(true)

	failedOver := false
	for r := 0; r < rounds; r++ {
		// Each shard starts one flow into another shard's rack and ends the
		// one it started six rounds ago.
		for s := 0; s < shards; s++ {
			id := core.FlowID(100*s + r + 1)
			src := 2*s + r%2
			dst := (2*(s+1+r%3) + (r/2)%2) % (2 * shards)
			if err := cli.FlowletStart(id, src, dst, float64(1+r%3)); err != nil {
				t.Fatal(err)
			}
			if r >= 6 {
				if err := cli.FlowletEnd(id - 6); err != nil {
					t.Fatal(err)
				}
			}
		}
		if r == kill {
			srvs[dead].Close()
		}
		if _, err := cli.Step(); err != nil {
			t.Fatal(err)
		}
		if r > kill && !failedOver && srvs[heir].ServesShard(dead) {
			if err := cli.Failover(dead, heir); err != nil {
				t.Fatal(err)
			}
			failedOver = true
		}
	}
	if !failedOver {
		t.Fatalf("daemon %d never adopted dead daemon %d", heir, dead)
	}
	if st := srvs[heir].Stats(); st.Takeovers != 1 || st.AdoptedFlows == 0 {
		t.Fatalf("heir: %d takeovers, %d adopted flows; want 1 and some", st.Takeovers, st.AdoptedFlows)
	}

	sum := sha256.New()
	word := func(v uint64) { sum.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for i, srv := range srvs {
		sum.Write(streams[i].Sum(nil))
		st := srv.Stats()
		for _, v := range []int64{st.ExchangeBytes, st.ExchangeFolds, st.Takeovers, st.AdoptedFlows} {
			word(uint64(v))
		}
		if i == dead {
			continue
		}
		rates := srv.Rates()
		ids := make([]core.FlowID, 0, len(rates))
		for id := range rates {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			word(uint64(id))
			word(math.Float64bits(rates[id]))
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenExchangeHash {
		t.Fatalf("peer plane moved:\n got %s\nwant %s", got, goldenExchangeHash)
	}
}
