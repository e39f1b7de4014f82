package server

import (
	"repro/internal/core"
	"repro/internal/topology"
)

// engine abstracts the daemon's optimizer: the sequential NED allocator or
// the FlowBlock/LinkBlock parallel allocator, both behind churn-at-iteration
// semantics. Besides allocation it covers what the daemon's other subsystems
// need of the optimizer: flow-state export (snapshots, peer replicas, warm
// restart) and the boundary-price exchange of a sharded cluster.
type engine interface {
	FlowletStart(id core.FlowID, src, dst int, weight float64) error
	// FlowletStartSized is FlowletStart carrying the endpoint's
	// flowlet-size hint in bytes (0 = unknown), recorded in the flow
	// metadata and ignored by the solvers.
	FlowletStartSized(id core.FlowID, src, dst int, weight float64, size int64) error
	FlowletEnd(id core.FlowID) error
	// Iterate runs one allocation and returns the rate updates whose
	// change exceeded the notification threshold. The returned slice is
	// only valid until the next call.
	Iterate() []core.RateUpdate
	// Objective returns the NUM objective Σ U(x) at the rates of the most
	// recent Iterate (0 with no flows; -Inf while rates are still zero).
	// Allocation-free in steady state — it sits on the telemetry path.
	Objective() float64
	NumFlows() int
	Rates() map[core.FlowID]float64
	// SetLinkCapacity changes one link's raw capacity in place; the next
	// Iterate re-prices against it (see core.Allocator.SetLinkCapacity).
	SetLinkCapacity(l topology.LinkID, capacity float64) error
	Close()

	// LiveFlows exports the live flow set in canonical engine order.
	LiveFlows() []core.ParallelFlow

	// The boundary API: price export and import for the sharded exchange,
	// snapshots and the flight recorder's price residual (internal/core's
	// boundary.go and parallel_boundary.go). A multicore shard exports its
	// digests in the same canonical link order as a sequential one, so it
	// speaks bit-identical wire bytes on partition-local traffic.
	SetExternalLoads(links []topology.LinkID, loads, hdiag []float64)
	PinPrices(links []topology.LinkID, prices []float64)
	BoundaryDigest(links []topology.LinkID, loads, hdiag []float64)
	LinkPrices(links []topology.LinkID, prices []float64)
	SeedPrices(links []topology.LinkID, prices []float64)
	UnpinPrices(links []topology.LinkID)
}

// coreEngine is the sequential core.Allocator, which has the engine's methods
// but nothing to release.
type coreEngine struct{ *core.Allocator }

func newCoreEngine(cfg Config) (coreEngine, error) {
	alloc, err := core.NewAllocator(core.Config{
		Topology:        cfg.Topology,
		Gamma:           cfg.Gamma,
		UpdateThreshold: cfg.UpdateThreshold,
	})
	return coreEngine{alloc}, err
}

func (coreEngine) Close() {}

// parallelEngine is the multicore core.ParallelAllocator, whose Iterate only
// computes rates: the engine adds the sequential allocator's idle skip and
// turns the rates into updates. Update suppression runs inside the allocator
// over dense per-FlowBlock lastNotified arrays (AppendUpdates), so the engine
// keeps no per-flow state of its own.
type parallelEngine struct {
	*core.ParallelAllocator
	threshold float64
	updates   []core.RateUpdate // reused across Iterate calls
}

func newParallelEngine(cfg Config) (*parallelEngine, error) {
	pa, err := core.NewParallelAllocator(core.ParallelConfig{
		Topology:   cfg.Topology,
		Blocks:     cfg.Blocks,
		Gamma:      cfg.Gamma,
		Headroom:   cfg.UpdateThreshold,
		Normalize:  true,
		PinWorkers: cfg.PinWorkers,
	})
	if err != nil {
		return nil, err
	}
	return &parallelEngine{ParallelAllocator: pa, threshold: cfg.UpdateThreshold}, nil
}

func (e *parallelEngine) Iterate() []core.RateUpdate {
	// Skip the iteration entirely while idle, mirroring the sequential
	// allocator: prices neither advance nor decay when no flows are
	// registered.
	if e.NumFlows() == 0 {
		return nil
	}
	e.ParallelAllocator.Iterate()
	e.updates = e.AppendUpdates(e.threshold, e.updates[:0])
	return e.updates
}
