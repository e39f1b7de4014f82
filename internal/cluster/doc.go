// Package cluster runs N flowtuned daemons as a cooperating sharded
// allocator: a deterministic shard map (topology.ShardMap) derived from the
// FlowBlock/LinkBlock rack partition assigns each rack block — its servers
// plus every link anchored at its racks — to one daemon, endpoints hash each
// flowlet to the shard of its source server (transport.ShardedClient), and
// the daemons reconcile cross-shard paths by exchanging only boundary state:
// each shard pushes its local load on remote downward links to their owner
// (wire.PriceDigestDelta) and publishes the prices of its own downward links
// (wire.PriceSnapshotDelta) after every iteration, listing only what changed.
// All daemons of a cluster speak one wire generation: a cluster is installed
// and upgraded as a unit, and the peer handshake refuses anything else.
//
// On partition-local traffic (flows that stay inside one shard) the cluster
// is byte-identical to a single daemon, because no two shards' flows share a
// link and NED's per-link price updates are independent given loads. The
// one caveat is floating-point summation order: a retirement that is not
// the most recent registration swap-deletes the single daemon's global flow
// array differently from a shard's local one, which can reorder per-link
// load accumulation and perturb rates at ULP scale — an associativity
// artifact bounded by the convergence tests, not exchange divergence. On
// cross-shard traffic the exchange makes every boundary link's price update
// use cluster-wide load and sensitivity — exact except for the one-iteration
// staleness of the remote contributions — so the cluster converges to the
// global allocation within a tolerance set by churn and the exchange lag.
//
// This package hosts the in-process harness (daemons + full peer mesh over
// net.Pipe) used by tests and the sharded-incast scenario; production
// clusters run the same daemons as flowtuned processes over TCP.
package cluster
