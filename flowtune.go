// Package flowtune is a Go implementation of Flowtune (Perry, Balakrishnan
// and Shah; "Flowtune: Flowlet Control for Datacenter Networks", NSDI 2017):
// centralized, flowlet-granularity rate allocation for datacenter networks.
//
// Flowtune replaces per-packet congestion control with flowlet control: when
// a flowlet (a batch of backlogged packets) starts or ends, the endpoint
// notifies a centralized allocator; the allocator solves a network utility
// maximization problem with the Newton-Exact-Diagonal (NED) method, scales
// the result with F-NORM so no link is over-subscribed, and returns explicit
// rates that endpoints use to pace their traffic.
//
// The package exposes five layers:
//
//   - The rate allocator: NewParallelAllocator (the FlowBlock/LinkBlock
//     multicore design of §5 of the paper; one block is what the daemon and
//     the simulator run) and NewAllocator, its single-core reference.
//   - The networked daemon: NewDaemon hosts the multicore allocator (one
//     FlowBlock unless DaemonConfig.Blocks asks for more) as a long-running
//     service (flowtuned) that endpoints drive over a compact
//     binary wire protocol with DialDaemon/NewDaemonClient.
//   - The optimization machinery: NED and the baseline algorithms (Gradient,
//     FGM, Newton-like) plus the U-NORM/F-NORM normalizers, for use outside
//     the allocator.
//   - The evaluation substrate: leaf-spine and fat-tree topology models, a
//     trace-driven workload engine (empirical size CDFs × Poisson or
//     closed-loop arrivals × uniform/permutation/incast/shuffle patterns),
//     and a packet-level simulator with Flowtune, DCTCP, pFabric,
//     Cubic-over-sfqCoDel and XCP endpoints.
//   - Experiment drivers that regenerate every table and figure of the
//     paper's evaluation, plus a scenario runner that drives the allocator
//     and simulator under workload churn and emits machine-readable results
//     (see RunScenario and cmd/flowtune-bench).
//
// Quick start:
//
//	topo, _ := flowtune.NewTopology(flowtune.DefaultSimTopologyConfig())
//	alloc, _ := flowtune.NewAllocator(flowtune.AllocatorConfig{Topology: topo})
//	alloc.FlowletStart(1, 0, 17, 1)   // flow 1: server 0 -> server 17
//	alloc.FlowletStart(2, 3, 17, 1)   // flow 2: server 3 -> server 17
//	for i := 0; i < 50; i++ {
//		alloc.Iterate()
//	}
//	fmt.Println(alloc.Rate(1), alloc.Rate(2)) // ≈ half the 10 Gbit/s link each
package flowtune

import (
	"net"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/norm"
	"repro/internal/num"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Topology

// Topology is a two-tier Clos fabric (see NewTopology).
type Topology = topology.Topology

// TopologyConfig describes a two-tier Clos fabric.
type TopologyConfig = topology.Config

// Link and node types of the fabric.
type (
	// Link is one unidirectional fabric link.
	Link = topology.Link
	// LinkID identifies a link within a Topology.
	LinkID = topology.LinkID
	// NodeID identifies a node within a Topology.
	NodeID = topology.NodeID
	// Path is an ordered list of links from source to destination.
	Path = topology.Path
)

// NewTopology builds a two-tier Clos (leaf-spine) topology.
func NewTopology(cfg TopologyConfig) (*Topology, error) { return topology.NewTwoTier(cfg) }

// DefaultSimTopologyConfig returns the paper's simulation fabric: 9 racks of
// 16 servers, 4 spines, 10 Gbit/s links.
func DefaultSimTopologyConfig() TopologyConfig { return topology.DefaultSimConfig() }

// FatTreeConfig describes a three-tier k-ary fat-tree fabric.
type FatTreeConfig = topology.FatTreeConfig

// NewFatTree builds a three-tier k-ary fat-tree topology.
func NewFatTree(cfg FatTreeConfig) (*Topology, error) { return topology.NewFatTree(cfg) }

// ---------------------------------------------------------------------------
// Allocator

// Allocator is the single-core reference of the centralized flowlet rate
// allocator: the whole fabric as one NUM problem, which the one-block
// ParallelAllocator every runtime path uses matches bit for bit.
type Allocator = core.Allocator

// AllocatorConfig configures an Allocator: its topology, NED's step size γ
// and the notification threshold (also the capacity headroom). The solver is
// always NED and the normalizer F-NORM; compare other solvers and normalizers
// by calling them on a Problem directly.
type AllocatorConfig = core.Config

// FlowID identifies a flowlet registered with an allocator.
type FlowID = core.FlowID

// RateUpdate is one rate notification produced by Allocator.Iterate: the flow
// and its new rate. It does not name the sender; the caller that registered
// the flow knows it.
type RateUpdate = core.RateUpdate

// NewAllocator creates the single-core reference allocator.
func NewAllocator(cfg AllocatorConfig) (*Allocator, error) { return core.NewAllocator(cfg) }

// ParallelAllocator is the FlowBlock/LinkBlock multicore allocator (§5).
// Like Allocator it maintains its flow set incrementally: FlowletStart and
// FlowletEnd fold churn into the owning FlowBlock's CSR arenas in O(route
// length), SetFlows bulk-loads a whole set, and AppendUpdates walks the
// per-block notification state without allocating. Close releases the worker
// pool.
type ParallelAllocator = core.ParallelAllocator

// ParallelAllocatorConfig configures a ParallelAllocator.
type ParallelAllocatorConfig = core.ParallelConfig

// ParallelFlow is one flow handed to a ParallelAllocator.
type ParallelFlow = core.ParallelFlow

// NewParallelAllocator creates the multicore allocator.
func NewParallelAllocator(cfg ParallelAllocatorConfig) (*ParallelAllocator, error) {
	return core.NewParallelAllocator(cfg)
}

// ---------------------------------------------------------------------------
// Daemon

// WireVersion is the version of the flowtuned wire protocol.
const WireVersion = wire.Version

// Daemon is the networked allocator daemon (flowtuned): a long-running
// process endpoints talk to over the wire protocol. Flowlet notifications
// are folded in at iteration boundaries and rate updates are fanned back out
// to the registering sessions with per-client coalescing backpressure.
type Daemon = server.Server

// DaemonConfig configures a Daemon.
type DaemonConfig = server.Config

// DaemonStats is a snapshot of daemon counters.
type DaemonStats = server.Stats

// NewDaemon creates an allocator daemon. Serve it with Daemon.Serve (TCP) or
// Daemon.ServeConn (any net.Conn, e.g. a net.Pipe end).
func NewDaemon(cfg DaemonConfig) (*Daemon, error) { return server.New(cfg) }

// DaemonClient is the endpoint side of the flowtuned wire protocol. It also
// implements AllocatorBackend, so a Simulation can terminate its control
// plane in an external daemon. After a connection loss, Reconnect
// re-handshakes over a new connection and re-registers the live flowlet set
// through the daemon's incremental churn path (the daemon retires a
// disconnected session's flowlets as orphans, and a restarted daemon
// advertises a new epoch).
type DaemonClient = transport.AllocClient

// DialDaemon connects to a flowtuned daemon over TCP.
func DialDaemon(addr string, clientID uint64) (*DaemonClient, error) {
	return transport.DialAlloc(addr, clientID)
}

// NewDaemonClient wraps an established connection to a flowtuned daemon.
func NewDaemonClient(conn net.Conn, clientID uint64) (*DaemonClient, error) {
	return transport.NewAllocClient(conn, clientID)
}

// AllocatorBackend is where a Flowtune simulation's control plane
// terminates: the in-process allocator by default, or a DaemonClient.
type AllocatorBackend = transport.AllocatorBackend

// LoopStats summarizes allocator control-loop latency and throughput (see
// Daemon.LoopStats).
type LoopStats = metrics.LoopStats

// ErrEpochChanged reports that a daemon announced a new allocator epoch
// mid-session with an EpochNotify frame that is not drain-flagged; the
// client should Reconnect, which re-registers its live flowlets.
var ErrEpochChanged = transport.ErrEpochChanged

// ErrDaemonDraining reports that the daemon pushed a drain-flagged epoch
// notification during graceful shutdown: no more rate updates are coming,
// and the client should hold its last-known rates (the freeze-on-failure
// behavior of AllocClient.SetFreezeOnFailure) until it fails over — via
// ResumeReconnect onto a warm-restarted daemon, or ShardedClient.Failover
// onto the peer that adopted the shard.
var ErrDaemonDraining = transport.ErrDaemonDraining

// ---------------------------------------------------------------------------
// Sharded cluster

// ShardMap partitions a two-tier fabric across a cluster of allocator
// daemons: each shard owns a rack block (its servers plus every link
// anchored at its racks), flowlets belong to their source server's shard,
// and downward links form the boundary whose prices the cluster exchanges.
type ShardMap = topology.ShardMap

// NewShardMap splits a fabric's racks into shards equal groups.
func NewShardMap(t *Topology, shards int) (*ShardMap, error) {
	return topology.NewShardMap(t, shards)
}

// Cluster runs N flowtuned daemons as a cooperating sharded allocator in
// one process, with the peer mesh wired over in-memory pipes — the harness
// behind the sharded scenarios. Production clusters run the same daemons as
// separate flowtuned processes (see cmd/flowtuned's -shard and -peers).
type Cluster = cluster.Cluster

// ClusterConfig configures a Cluster.
type ClusterConfig = cluster.Config

// NewCluster builds the daemons and connects the full peer mesh.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// ShardedClient is the endpoint side of a sharded cluster: one daemon
// session per shard behind the AllocatorBackend interface, hashing each
// flowlet to its owning shard and merging rate updates, with per-shard
// Reconnect.
type ShardedClient = transport.ShardedClient

// ShardError wraps an error from one shard's session with its shard index.
type ShardError = transport.ShardError

// NewShardedClient wraps one established connection per shard.
func NewShardedClient(conns []net.Conn, smap *ShardMap, clientID uint64) (*ShardedClient, error) {
	return transport.NewShardedClient(conns, smap, clientID)
}

// DialShardedCluster connects to a flowtuned cluster over TCP, one address
// per shard in shard order.
func DialShardedCluster(addrs []string, smap *ShardMap, clientID uint64) (*ShardedClient, error) {
	return transport.DialShardedCluster(addrs, smap, clientID)
}

// ---------------------------------------------------------------------------
// Optimization machinery

// Problem is a static NUM instance (link capacities plus flows).
type Problem = num.Problem

// Flow is one flow of a Problem.
type Flow = num.Flow

// State is mutable solver state: link prices and flow rates.
type State = num.State

// Solver is one iteration of a NUM price-update algorithm.
type Solver = num.Solver

// NED returns the Newton-Exact-Diagonal solver with step size γ.
func NED(gamma float64) Solver { return &num.NED{Gamma: gamma} }

// GradientSolver returns the gradient-projection baseline.
func GradientSolver() Solver { return num.NewGradient() }

// FGMSolver returns the fast weighted gradient method baseline.
func FGMSolver() Solver { return num.NewFGM() }

// NewtonLikeSolver returns the measurement-based Newton-like baseline.
func NewtonLikeSolver() Solver { return num.NewNewtonLike() }

// NewState creates solver state for a problem with all prices at 1.
func NewState(p *Problem) *State { return num.NewState(p) }

// Solve iterates a solver to convergence.
func Solve(s Solver, p *Problem, st *State, opts SolveOptions) (int, error) {
	return num.Solve(s, p, st, opts)
}

// SolveOptions configures Solve.
type SolveOptions = num.SolveOptions

// Normalizer scales flow rates so no link exceeds capacity.
type Normalizer = norm.Normalizer

// FNorm returns the per-flow normalizer (Flowtune's default).
func FNorm() Normalizer { return norm.NewFNorm() }

// UNorm returns the uniform normalizer.
func UNorm() Normalizer { return norm.NewUNorm() }

// ---------------------------------------------------------------------------
// Workloads

// WorkloadKind selects a built-in flow-size distribution.
type WorkloadKind = workload.Kind

// Built-in flow-size distributions: the paper's Facebook workloads plus the
// DCTCP web-search and VL2 data-mining distributions.
const (
	Web        = workload.Web
	Cache      = workload.Cache
	Hadoop     = workload.Hadoop
	WebSearch  = workload.WebSearch
	DataMining = workload.DataMining
)

// Flowlet is one generated flowlet.
type Flowlet = workload.Flowlet

// WorkloadConfig configures a flowlet generator.
type WorkloadConfig = workload.GeneratorConfig

// WorkloadGenerator produces Poisson flowlet arrivals at a target load.
type WorkloadGenerator = workload.Generator

// NewWorkloadGenerator creates a flowlet generator.
func NewWorkloadGenerator(cfg WorkloadConfig) (*WorkloadGenerator, error) {
	return workload.NewGenerator(cfg)
}

// SizeDist is a flow-size distribution sampled by workload traces.
type SizeDist = workload.SizeDist

// LoadCDFFile reads an empirical flow-size CDF from a trace file in the
// classic two- or three-column simulator format.
func LoadCDFFile(path string) (SizeDist, error) { return workload.LoadCDFFile(path) }

// TrafficPattern selects how flowlet endpoints are chosen.
type TrafficPattern = workload.PatternKind

// Traffic patterns for workload traces.
const (
	PatternUniform     = workload.PatternUniform
	PatternPermutation = workload.PatternPermutation
	PatternIncast      = workload.PatternIncast
	PatternShuffle     = workload.PatternShuffle
)

// ArrivalProcess selects open-loop Poisson or closed-loop arrivals.
type ArrivalProcess = workload.ArrivalKind

// Arrival processes for workload traces.
const (
	ArrivalPoisson    = workload.ArrivalPoisson
	ArrivalClosedLoop = workload.ArrivalClosedLoop
)

// TraceConfig configures a deterministic flowlet trace (size distribution ×
// arrival process × traffic pattern).
type TraceConfig = workload.TraceConfig

// Trace is a deterministic, seeded flowlet stream.
type Trace = workload.Trace

// NewTrace creates a flowlet trace.
func NewTrace(cfg TraceConfig) (*Trace, error) { return workload.NewTrace(cfg) }

// ChurnEvent is one flowlet add/remove event of a churn stream.
type ChurnEvent = workload.Event

// ChurnEvents expands a flowlet trace into a time-ordered add/remove stream
// for allocator-only churn runs; hold decides how long each flowlet stays.
func ChurnEvents(flows []Flowlet, hold func(Flowlet) float64) []ChurnEvent {
	return workload.ChurnEvents(flows, hold)
}

// ---------------------------------------------------------------------------
// Simulation

// Scheme identifies a congestion-control scheme for simulation.
type Scheme = transport.Scheme

// Schemes available in the simulator.
const (
	SchemeFlowtune = transport.Flowtune
	SchemeDCTCP    = transport.DCTCP
	SchemePFabric  = transport.PFabric
	SchemeSFQCoDel = transport.SFQCoDel
	SchemeXCP      = transport.XCP
	SchemeTCP      = transport.TCP
)

// Simulation runs one scheme over a set of flowlets on a simulated fabric.
type Simulation = transport.Engine

// SimulationConfig configures a Simulation.
type SimulationConfig = transport.EngineConfig

// NewSimulation creates a packet-level simulation of one scheme.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) { return transport.NewEngine(cfg) }

// FlowRecord is the outcome of one simulated flow.
type FlowRecord = metrics.FlowRecord

// Percentile returns the p-th percentile of values.
func Percentile(values []float64, p float64) float64 { return metrics.Percentile(values, p) }

// DistStats summarizes one sample (count, mean, p50, p99, max).
type DistStats = metrics.DistStats

// Summarize computes DistStats over a sample.
func Summarize(values []float64) DistStats { return metrics.Summarize(values) }

// ---------------------------------------------------------------------------
// Scenarios

// ScenarioConfig describes one trace-driven scenario run: a fabric, a
// workload trace, and a scheme driven through the packet simulator.
type ScenarioConfig = experiments.ScenarioConfig

// ScenarioResult is the machine-readable outcome of a scenario run (the
// BENCH_*.json schema of cmd/flowtune-bench).
type ScenarioResult = experiments.ScenarioResult

// RunScenario executes one scenario end to end.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	return experiments.RunScenario(cfg)
}

// NamedScenario returns the configuration of a named scenario (see
// ScenarioNames); short selects the shrunken CI smoke variant.
func NamedScenario(name string, short bool, seed int64) (ScenarioConfig, error) {
	return experiments.NamedScenario(name, short, seed)
}

// ScenarioNames lists the named scenarios of cmd/flowtune-bench.
func ScenarioNames() []string { return experiments.ScenarioNames() }
