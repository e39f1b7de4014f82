package cluster

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Config configures an in-process allocator cluster.
type Config struct {
	// Topology is the fabric the cluster schedules. Required; it must be a
	// two-tier fabric whose rack count Shards divides.
	Topology *topology.Topology
	// Shards is the number of flowtuned daemons; each owns one rack block.
	Shards int
	// Interval is passed through to every daemon (see server.Config).
	Interval time.Duration
	// Blocks is each daemon's rack-block count (0 means 1; see
	// server.Config), so Blocks > 1 makes each shard span cores.
	Blocks int
	// Takeover enables peer shard failover on every daemon: each replicates
	// its flow state to its successor and adopts a dead peer's rack block
	// (see server.Config.Takeover).
	Takeover bool
}

// Cluster is a cooperating set of sharded flowtuned daemons hosted in one
// process, their peer mesh wired over in-memory pipes. It is the harness the
// sharded scenarios and tests run on; production clusters run the same
// daemons as separate flowtuned processes connected over TCP (see
// cmd/flowtuned's -shard and -peers flags).
type Cluster struct {
	smap    *topology.ShardMap
	servers []*server.Server
}

// New builds the daemons and connects the full peer mesh. Every daemon dials
// every other, so each direction of every shard pair has a dedicated push
// connection, exactly as in a TCP deployment.
func New(cfg Config) (*Cluster, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("cluster: Config.Topology is required")
	}
	smap, err := topology.NewShardMap(cfg.Topology, cfg.Shards)
	if err != nil {
		return nil, err
	}
	c := &Cluster{smap: smap}
	for i := 0; i < cfg.Shards; i++ {
		srv, err := server.New(server.Config{
			Topology:   cfg.Topology,
			Interval:   cfg.Interval,
			Blocks:     cfg.Blocks,
			NumShards:  cfg.Shards,
			ShardIndex: i,
			Takeover:   cfg.Takeover,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
	}
	for i := 0; i < cfg.Shards; i++ {
		for j := 0; j < cfg.Shards; j++ {
			if i == j {
				continue
			}
			out, in := net.Pipe()
			go c.servers[j].ServeConn(in)
			if _, err := c.servers[i].ConnectPeer(out); err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: peer %d→%d: %w", i, j, err)
			}
		}
	}
	return c, nil
}

// NumShards returns the number of daemons.
func (c *Cluster) NumShards() int { return len(c.servers) }

// Server returns shard i's daemon.
func (c *Cluster) Server(i int) *server.Server { return c.servers[i] }

// Client connects a ShardedClient to every daemon over in-memory pipes and
// performs the handshakes.
func (c *Cluster) Client(clientID uint64) (*transport.ShardedClient, error) {
	conns := make([]net.Conn, len(c.servers))
	for i, srv := range c.servers {
		clientEnd, serverEnd := net.Pipe()
		go srv.ServeConn(serverEnd)
		conns[i] = clientEnd
	}
	return transport.NewShardedClient(conns, c.smap, clientID)
}

// Kill closes daemon i abruptly — no drain, no snapshot — simulating a
// crashed shard. Its peers detect the death when their next exchange push
// fails and, with Takeover enabled, the successor adopts its rack block.
func (c *Cluster) Kill(i int) error { return c.servers[i].Close() }

// Drain puts daemon i into graceful drain: it keeps iterating and serving
// its flows but refuses new flowlet adds (see server.Server.Drain). A drain
// followed by a Kill before the operator finishes the handover is the
// kill-during-drain fault scenario.
func (c *Cluster) Drain(i int) { c.servers[i].Drain() }

// SetLinkCapacity broadcasts a live link-capacity change to every daemon
// still alive, so all shards re-price the link at their next iteration
// boundary. Dead (closed) daemons are skipped: the fabric event outlives
// them, and a takeover successor already carries the updated capacity.
func (c *Cluster) SetLinkCapacity(l topology.LinkID, capacity float64) error {
	var first error
	for _, srv := range c.servers {
		err := srv.SetLinkCapacity(l, capacity)
		if err != nil && !errors.Is(err, net.ErrClosed) && first == nil {
			first = err
		}
	}
	return first
}

// Rates merges every shard's current rate map (a diagnostic mirror of
// server.Server.Rates; flow ownership makes the maps disjoint).
func (c *Cluster) Rates() map[int64]float64 {
	out := make(map[int64]float64)
	for _, srv := range c.servers {
		for id, rate := range srv.Rates() {
			out[int64(id)] = rate
		}
	}
	return out
}

// WireStats sums the control-plane byte counters across every daemon:
// rate fan-out bytes actually written (and their fixed v3-encoding cost),
// and boundary-exchange bytes built (and their fixed cost). The fixed/actual
// ratios are the wire v4 compression factors the scaling artifact reports.
type WireStats struct {
	FanoutBytes        int64
	FanoutBytesFixed   int64
	ExchangeBytes      int64
	ExchangeBytesFixed int64
}

// WireStats aggregates the wire byte counters over all shards.
func (c *Cluster) WireStats() WireStats {
	var w WireStats
	for _, srv := range c.servers {
		st := srv.Stats()
		w.FanoutBytes += st.FanoutBytes
		w.FanoutBytesFixed += st.FanoutBytesFixed
		w.ExchangeBytes += st.ExchangeBytes
		w.ExchangeBytesFixed += st.ExchangeBytesFixed
	}
	return w
}

// Close shuts every daemon down.
func (c *Cluster) Close() error {
	var first error
	for _, srv := range c.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
