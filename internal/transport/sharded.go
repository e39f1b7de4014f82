package transport

import (
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/topology"
)

// ShardedClient is the endpoint side of a sharded allocator cluster: one
// AllocClient per flowtuned shard, multiplexed behind the AllocatorBackend
// interface. Every flowlet is hashed to its owning shard (the shard of its
// source server, matching the daemons' ownership rule), notifications are
// buffered on the owning shard's session, and Step drives the daemons in
// shard order, merging their rate updates into one stream. Like AllocClient
// it is not safe for concurrent use.
type ShardedClient struct {
	smap    *topology.ShardMap
	clients []*AllocClient
	shardOf core.FlowIndex // flow → daemon (client index) registered with
	updates []core.RateUpdate

	// daemonOf[x] is the daemon currently serving shard x — initially the
	// identity, re-pointed by Failover when a peer adopts a dead daemon's
	// rack block. It mirrors the daemons' own servedBy table.
	daemonOf []int
	dead     []bool
}

// ShardError wraps an error from one shard's session with the shard index,
// so a caller can repair exactly the session that failed (see Reconnect).
type ShardError struct {
	Shard int
	Err   error
}

// Error implements error.
func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// NewShardedClient wraps one established connection per shard (conns[i]
// must reach the daemon owning shard i of smap) and performs every
// handshake. On failure all connections are closed.
func NewShardedClient(conns []net.Conn, smap *topology.ShardMap, clientID uint64) (*ShardedClient, error) {
	closeAll := func() {
		for _, conn := range conns {
			conn.Close()
		}
	}
	if len(conns) != smap.NumShards() {
		closeAll()
		return nil, fmt.Errorf("transport: sharded client needs %d connections, got %d", smap.NumShards(), len(conns))
	}
	c := &ShardedClient{
		smap:     smap,
		clients:  make([]*AllocClient, len(conns)),
		daemonOf: make([]int, len(conns)),
		dead:     make([]bool, len(conns)),
	}
	for i := range c.daemonOf {
		c.daemonOf[i] = i
	}
	for i, conn := range conns {
		cli, err := NewAllocClient(conn, clientID)
		if err != nil {
			closeAll()
			return nil, &ShardError{Shard: i, Err: err}
		}
		c.clients[i] = cli
	}
	return c, nil
}

// DialShardedCluster connects to a flowtuned cluster over TCP, one address
// per shard in shard order.
func DialShardedCluster(addrs []string, smap *topology.ShardMap, clientID uint64) (*ShardedClient, error) {
	conns := make([]net.Conn, 0, len(addrs))
	for i, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, &ShardError{Shard: i, Err: fmt.Errorf("transport: dial shard: %w", err)}
		}
		conns = append(conns, conn)
	}
	return NewShardedClient(conns, smap, clientID)
}

// NumShards returns the cluster size.
func (c *ShardedClient) NumShards() int { return len(c.clients) }

// Client exposes one shard's underlying session (tests and reconnect logic
// use it).
func (c *ShardedClient) Client(shard int) *AllocClient { return c.clients[shard] }

// NumFlows returns the number of flowlets registered across all shards.
func (c *ShardedClient) NumFlows() int { return c.shardOf.Len() }

// FlowletStart buffers a flowlet-start notification on the owning shard's
// session. Duplicate registrations are no-ops, mirroring AllocClient.
func (c *ShardedClient) FlowletStart(id core.FlowID, src, dst int, weight float64) error {
	return c.FlowletStartSized(id, src, dst, weight, 0)
}

// FlowletStartSized is FlowletStart carrying the wire v4 flowlet-size hint
// (bytes, 0 = unknown) to the owning shard's daemon.
func (c *ShardedClient) FlowletStartSized(id core.FlowID, src, dst int, weight float64, size int64) error {
	if _, dup := c.shardOf.Get(id); dup {
		return nil
	}
	if src < 0 || src >= c.smap.Topology().NumServers() {
		return fmt.Errorf("transport: flowlet %d: source server %d out of range", id, src)
	}
	daemon := c.daemonOf[c.smap.ShardOfFlow(src, dst)]
	if err := c.clients[daemon].FlowletStartSized(id, src, dst, weight, size); err != nil {
		return &ShardError{Shard: daemon, Err: err}
	}
	c.shardOf.Put(id, int32(daemon))
	return nil
}

// FlowletEnd buffers a flowlet-end notification on the shard that owns the
// flow. Unknown flows are ignored.
func (c *ShardedClient) FlowletEnd(id core.FlowID) error {
	shard, ok := c.shardOf.Get(id)
	if !ok {
		return nil
	}
	c.shardOf.Delete(id)
	if err := c.clients[shard].FlowletEnd(id); err != nil {
		return &ShardError{Shard: int(shard), Err: err}
	}
	return nil
}

// Flush writes all buffered notifications to their daemons.
func (c *ShardedClient) Flush() error {
	for i, cli := range c.clients {
		if c.dead[i] {
			continue
		}
		if err := cli.Flush(); err != nil {
			return &ShardError{Shard: i, Err: err}
		}
	}
	return nil
}

// Step steps every shard daemon once, in shard order, and returns the
// merged rate updates (each shard's updates in its own deterministic order,
// concatenated shard by shard). Stepping shard by shard also sequences the
// cluster's boundary-price exchange: a daemon pushes its bundle — and waits
// for the ack — before its step returns, so by the time shard i+1 steps,
// shard i's digest for this iteration is already queued there. The returned
// slice is reused across calls.
func (c *ShardedClient) Step() ([]core.RateUpdate, error) {
	c.updates = c.updates[:0]
	for i, cli := range c.clients {
		if c.dead[i] {
			continue
		}
		ups, err := cli.Step()
		if err != nil {
			return nil, &ShardError{Shard: i, Err: err}
		}
		c.updates = append(c.updates, ups...)
	}
	return c.updates, nil
}

// Reconnect re-establishes one shard's session over a new connection after
// it failed (or its daemon restarted with a new epoch): only that shard's
// flowlets are re-registered, the others keep their live sessions — the
// per-shard half of AllocClient.Reconnect.
func (c *ShardedClient) Reconnect(shard int, conn net.Conn) error {
	if err := c.clients[shard].Reconnect(conn); err != nil {
		return &ShardError{Shard: shard, Err: err}
	}
	return nil
}

// Epoch returns one shard's allocator epoch from its handshake (or the last
// EpochNotify it pushed).
func (c *ShardedClient) Epoch(shard int) uint64 { return c.clients[shard].Epoch() }

// SetFreezeOnFailure applies freeze-on-failure to every shard session: a
// shard whose daemon dies freezes at last-known rates instead of failing the
// whole cluster step. Frozen reports per-shard state; Failover repairs it.
func (c *ShardedClient) SetFreezeOnFailure(on bool) {
	for _, cli := range c.clients {
		cli.SetFreezeOnFailure(on)
	}
}

// Frozen reports whether one daemon's session froze after a failure.
func (c *ShardedClient) Frozen(daemon int) bool { return c.clients[daemon].Frozen() }

// Successor returns the daemon that adopts dead's rack block under the
// cluster's takeover rule — the next index after it, skipping daemons the
// client has already failed over — so the endpoint and the daemons agree on
// where orphaned flows land. Returns -1 when no live daemon remains.
func (c *ShardedClient) Successor(dead int) int {
	n := len(c.clients)
	for i := 1; i < n; i++ {
		cand := (dead + i) % n
		if !c.dead[cand] {
			return cand
		}
	}
	return -1
}

// Failover re-homes a dead daemon's flows onto the peer daemon that adopted
// its rack block (the cluster's takeover successor): the dead session's
// registrations are re-sent, sorted, as bare adds on the adopter's live
// session — the adopter holds them unowned from the dead daemon's replica,
// so each add transfers ownership without engine churn — and future flows
// hashed to the dead daemon's shards route to the adopter. The dead session
// is closed; its daemon is skipped by Step from now on.
func (c *ShardedClient) Failover(dead, adopter int) error {
	if dead == adopter || dead < 0 || dead >= len(c.clients) || adopter < 0 || adopter >= len(c.clients) {
		return fmt.Errorf("transport: failover %d → %d out of range", dead, adopter)
	}
	if c.dead[dead] {
		return nil
	}
	if c.dead[adopter] {
		return fmt.Errorf("transport: failover %d → %d: adopter is dead", dead, adopter)
	}
	c.dead[dead] = true
	c.clients[dead].Close()
	for x := range c.daemonOf {
		if c.daemonOf[x] == dead {
			c.daemonOf[x] = adopter
		}
	}
	// Flows that ended while the dead session was frozen still sit in the
	// adopter's replica; retire them there before re-registering survivors.
	for _, id := range c.clients[dead].TakeFrozenEnds() {
		c.clients[adopter].EndOrphan(id)
	}
	for _, r := range c.clients[dead].Registrations() {
		if err := c.clients[adopter].FlowletStartSized(r.ID, r.Src, r.Dst, r.Weight, r.Size); err != nil {
			return &ShardError{Shard: adopter, Err: err}
		}
		c.shardOf.Put(r.ID, int32(adopter))
	}
	return nil
}

// Close closes every shard session, returning the first error.
func (c *ShardedClient) Close() error {
	var first error
	for _, cli := range c.clients {
		if err := cli.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
