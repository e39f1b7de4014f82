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
	// snapshots and the flight recorder's price residual. Each adapter below
	// says how its allocator provides it.
	SetExternalLoads(links []topology.LinkID, loads, hdiag []float64)
	PinPrices(links []topology.LinkID, prices []float64)
	BoundaryDigest(links []topology.LinkID, loads, hdiag []float64)
	LinkPrices(links []topology.LinkID, prices []float64)
	SeedPrices(links []topology.LinkID, prices []float64)
	UnpinPrices(links []topology.LinkID)
}

// coreEngine adapts the sequential core.Allocator.
type coreEngine struct {
	alloc *core.Allocator
}

func newCoreEngine(cfg Config) (*coreEngine, error) {
	alloc, err := core.NewAllocator(core.Config{
		Topology:        cfg.Topology,
		Gamma:           cfg.Gamma,
		UpdateThreshold: cfg.UpdateThreshold,
	})
	if err != nil {
		return nil, err
	}
	return &coreEngine{alloc: alloc}, nil
}

func (e *coreEngine) FlowletStart(id core.FlowID, src, dst int, weight float64) error {
	return e.alloc.FlowletStart(id, src, dst, weight)
}
func (e *coreEngine) FlowletStartSized(id core.FlowID, src, dst int, weight float64, size int64) error {
	return e.alloc.FlowletStartSized(id, src, dst, weight, size)
}
func (e *coreEngine) FlowletEnd(id core.FlowID) error { return e.alloc.FlowletEnd(id) }
func (e *coreEngine) Iterate() []core.RateUpdate      { return e.alloc.Iterate() }
func (e *coreEngine) Objective() float64              { return e.alloc.Objective() }
func (e *coreEngine) NumFlows() int                   { return e.alloc.NumFlows() }
func (e *coreEngine) Rates() map[core.FlowID]float64  { return e.alloc.Rates() }
func (e *coreEngine) Close()                          {}
func (e *coreEngine) SetLinkCapacity(l topology.LinkID, capacity float64) error {
	return e.alloc.SetLinkCapacity(l, capacity)
}

func (e *coreEngine) LiveFlows() []core.ParallelFlow { return e.alloc.LiveFlows() }

// The sequential engine supports the sharded boundary exchange by
// delegating to the allocator's boundary API (see internal/core/boundary.go
// and this package's cluster.go).

func (e *coreEngine) SetExternalLoads(links []topology.LinkID, loads, hdiag []float64) {
	e.alloc.SetExternalLoads(links, loads, hdiag)
}
func (e *coreEngine) PinPrices(links []topology.LinkID, prices []float64) {
	e.alloc.PinPrices(links, prices)
}
func (e *coreEngine) BoundaryDigest(links []topology.LinkID, loads, hdiag []float64) {
	e.alloc.BoundaryDigest(links, loads, hdiag)
}
func (e *coreEngine) LinkPrices(links []topology.LinkID, prices []float64) {
	e.alloc.LinkPrices(links, prices)
}
func (e *coreEngine) SeedPrices(links []topology.LinkID, prices []float64) {
	e.alloc.SeedPrices(links, prices)
}
func (e *coreEngine) UnpinPrices(links []topology.LinkID) {
	e.alloc.UnpinPrices(links)
}

// parallelEngine adapts the multicore core.ParallelAllocator, which now
// maintains its flow set incrementally: FlowletStart/FlowletEnd are O(route
// length) CSR operations on the owning FlowBlock, so the engine keeps no
// shadow flow list, no dirty flag, and performs no full reload at iteration
// boundaries. Errors surface directly from FlowletStart (a bad route is
// rejected — and counted — when the add is folded in, never swallowed at
// reload time). Update suppression runs inside the allocator over dense
// per-FlowBlock lastNotified arrays carried alongside the CSR, replacing the
// former per-flow map lookup in the update walk.
type parallelEngine struct {
	pa        *core.ParallelAllocator
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
	return &parallelEngine{pa: pa, threshold: cfg.UpdateThreshold}, nil
}

func (e *parallelEngine) FlowletStart(id core.FlowID, src, dst int, weight float64) error {
	return e.pa.FlowletStart(id, src, dst, weight)
}

func (e *parallelEngine) FlowletStartSized(id core.FlowID, src, dst int, weight float64, size int64) error {
	return e.pa.FlowletStartSized(id, src, dst, weight, size)
}

func (e *parallelEngine) FlowletEnd(id core.FlowID) error { return e.pa.FlowletEnd(id) }

func (e *parallelEngine) Iterate() []core.RateUpdate {
	// Skip the iteration entirely while idle, mirroring the sequential
	// allocator: prices neither advance nor decay when no flows are
	// registered.
	if e.pa.NumFlows() == 0 {
		return nil
	}
	e.pa.Iterate()
	e.updates = e.pa.AppendUpdates(e.threshold, e.updates[:0])
	return e.updates
}

func (e *parallelEngine) Objective() float64 { return e.pa.Objective() }

func (e *parallelEngine) NumFlows() int { return e.pa.NumFlows() }

func (e *parallelEngine) Rates() map[core.FlowID]float64 { return e.pa.Rates() }

func (e *parallelEngine) Close() { e.pa.Close() }

func (e *parallelEngine) SetLinkCapacity(l topology.LinkID, capacity float64) error {
	return e.pa.SetLinkCapacity(l, capacity)
}

func (e *parallelEngine) LiveFlows() []core.ParallelFlow { return e.pa.LiveFlows() }

// The multicore engine supports the sharded boundary exchange by delegating
// to the parallel allocator's boundary API (see
// internal/core/parallel_boundary.go): external loads and pinned prices are
// folded into the owning LinkBlock at the merge/price-update phases, and
// digests are exported from the owner FlowBlocks' merged accumulators in the
// same canonical link order the sequential engine uses — so a multicore shard
// speaks bit-identical wire bytes on partition-local traffic.

func (e *parallelEngine) SetExternalLoads(links []topology.LinkID, loads, hdiag []float64) {
	e.pa.SetExternalLoads(links, loads, hdiag)
}
func (e *parallelEngine) PinPrices(links []topology.LinkID, prices []float64) {
	e.pa.PinPrices(links, prices)
}
func (e *parallelEngine) BoundaryDigest(links []topology.LinkID, loads, hdiag []float64) {
	e.pa.BoundaryDigest(links, loads, hdiag)
}
func (e *parallelEngine) LinkPrices(links []topology.LinkID, prices []float64) {
	e.pa.LinkPrices(links, prices)
}
func (e *parallelEngine) SeedPrices(links []topology.LinkID, prices []float64) {
	e.pa.SeedPrices(links, prices)
}
func (e *parallelEngine) UnpinPrices(links []topology.LinkID) {
	e.pa.UnpinPrices(links)
}
