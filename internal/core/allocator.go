package core

import (
	"fmt"
	"math"

	"repro/internal/norm"
	"repro/internal/num"
	"repro/internal/topology"
)

// Control-message payload sizes from §6.2: notifications of flowlet start,
// flowlet end, and rate updates are encoded in 16, 4 and 6 bytes plus
// standard TCP/IP overheads.
const (
	// FlowletStartBytes is the payload size of a flowlet-start notification.
	FlowletStartBytes = 16
	// FlowletEndBytes is the payload size of a flowlet-end notification.
	FlowletEndBytes = 4
	// RateUpdateBytes is the payload size of one rate update.
	RateUpdateBytes = 6
)

// FlowID identifies a flowlet registered with the allocator.
type FlowID int64

// Config configures an Allocator.
type Config struct {
	// Topology is the fabric the allocator schedules. Required.
	Topology *topology.Topology
	// Gamma is NED's step-size parameter γ (default 0.4, the value used in
	// the paper's simulations).
	Gamma float64
	// UpdateThreshold is the relative rate-change threshold above which
	// endpoints are notified (default 0.01). To keep links from being
	// over-utilized between notifications, the allocator reserves the same
	// fraction of link capacity as headroom (§6.4).
	UpdateThreshold float64
}

// withDefaults fills in unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Topology == nil {
		return c, fmt.Errorf("core: Config.Topology is required")
	}
	if !(c.Gamma >= 0) || math.IsInf(c.Gamma, 1) {
		return c, fmt.Errorf("core: Gamma must be finite and non-negative, got %g", c.Gamma)
	}
	if c.Gamma == 0 {
		c.Gamma = 0.4
	}
	if c.UpdateThreshold == 0 {
		c.UpdateThreshold = 0.01
	}
	if !(c.UpdateThreshold >= 0 && c.UpdateThreshold < 1) {
		return c, fmt.Errorf("core: UpdateThreshold must be in [0,1), got %g", c.UpdateThreshold)
	}
	return c, nil
}

// RateUpdate is one rate notification for an endpoint (24 bytes). It names
// the flow, not its sender: whoever delivers it resolves the recipient from
// its own registration of the flow.
type RateUpdate struct {
	// Flow identifies the flowlet.
	Flow FlowID
	// Slot is the flow's ParallelAllocator slot (see SlotOf), so a caller
	// keeping per-flow state in a slice indexed by slot reaches it without a
	// lookup. The reference Allocator has no slots and leaves it 0, as do
	// updates decoded off the wire.
	Slot int32
	// Rate is the newly allocated rate in bits per second.
	Rate float64
}

// Allocator is the single-core reference of Flowtune's centralized rate
// allocator: NED(γ) followed by F-NORM over one num.Problem spanning the whole
// fabric. Every runtime path — the flowtuned daemon, the packet simulator and
// the fluid update-traffic model — runs the one-block ParallelAllocator, which
// the equivalence tests hold to this type's bits; the repository benchmark
// replays its events through it as a mirror. It is not safe for concurrent
// use.
type Allocator struct {
	cfg   Config
	topo  *topology.Topology
	ned   num.NED
	fnorm norm.FNorm

	// freeRoutes recycles the route slices of ended flowlets (each of
	// capacity topology.MaxRouteLinks), so steady-state churn allocates
	// nothing.
	freeRoutes [][]int32

	problem   num.Problem
	state     *num.State
	indexByID map[FlowID]int

	// Per-flow state, parallel slices in problem order: FlowletStart appends
	// to all of them and FlowletEnd applies the problem's swap-delete to all
	// of them, together with state.Rates. The notify filter reads ids,
	// normalized and lastNotified — 24 contiguous bytes per flow.
	ids []FlowID
	// normalized is the rate Iterate most recently computed for the flow, 0
	// until the first Iterate after its registration.
	normalized []float64
	// lastNotified is the rate most recently sent to the endpoint, or 0 if
	// the endpoint has never been notified.
	lastNotified []float64

	updates []RateUpdate // reused across Iterate calls
}

// NewAllocator creates an allocator for the given topology.
func NewAllocator(cfg Config) (*Allocator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	topo := cfg.Topology
	a := &Allocator{
		cfg:       cfg,
		topo:      topo,
		ned:       num.NED{Gamma: cfg.Gamma},
		indexByID: make(map[FlowID]int),
	}
	// Links are scaled down by the update threshold so they are not
	// over-utilized between notifications.
	for _, c := range topo.Capacities() {
		a.problem.Capacities = append(a.problem.Capacities, c*(1-cfg.UpdateThreshold))
	}
	// An endpoint cannot send faster than its NIC; capping per-flow rates
	// here keeps transient over-allocations physical.
	a.problem.MaxFlowRate = topo.Config().LinkCapacity
	a.state = num.NewState(&a.problem)
	return a, nil
}

// Config returns the allocator's effective configuration.
func (a *Allocator) Config() Config { return a.cfg }

// NumFlows returns the number of currently registered flowlets.
func (a *Allocator) NumFlows() int { return len(a.ids) }

// FlowletStart registers a new flowlet from server src to server dst with the
// given weight (1 for plain proportional fairness). It corresponds to a
// flowlet-start notification arriving at the allocator.
func (a *Allocator) FlowletStart(id FlowID, src, dst int, weight float64) error {
	if _, ok := a.indexByID[id]; ok {
		return fmt.Errorf("core: flowlet %d already registered", id)
	}
	weight, scaled, err := admitWeight(weight, a.topo.Config().LinkCapacity)
	if err != nil {
		return fmt.Errorf("core: flowlet %d: %w", id, err)
	}
	// Path selection mirrors ECMP: hash the flow ID over the spines so the
	// allocator and the network agree on paths (§7). The route is written
	// straight into the slice the problem keeps for this flow.
	var links []int32
	if n := len(a.freeRoutes); n > 0 {
		links, a.freeRoutes = a.freeRoutes[n-1][:0], a.freeRoutes[:n-1]
	} else {
		links = make([]int32, 0, topology.MaxRouteLinks)
	}
	links, err = a.topo.RouteInto(links, src, dst, int(id))
	if err != nil {
		a.freeRoutes = append(a.freeRoutes, links)
		return fmt.Errorf("core: flowlet %d: %w", id, err)
	}
	a.indexByID[id] = len(a.ids)
	a.ids = append(a.ids, id)
	a.normalized = append(a.normalized, 0)
	a.lastNotified = append(a.lastNotified, 0)
	// Flow weights are scaled by the link capacity so optimal prices are
	// O(1), the same scale they are initialized to. Proportional fairness
	// is unaffected by a uniform scaling of weights. AppendFlow keeps the
	// compiled CSR index in sync incrementally.
	a.problem.AppendFlow(num.Flow{Route: links, Weight: scaled})
	a.state.Resize(len(a.problem.Flows))
	return nil
}

// FlowletStartSized is FlowletStart carrying the endpoint's flowlet-size
// hint in bytes (0 = unknown), which does not affect allocation and is not
// stored.
func (a *Allocator) FlowletStartSized(id FlowID, src, dst int, weight float64, _ int64) error {
	return a.FlowletStart(id, src, dst, weight)
}

// admitWeight is both engines' admission rule for a flowlet's weight, which
// arrives unchecked from an endpoint's FlowletAdd frame: zero or negative
// means the default weight 1; a weight that is not finite, or whose
// capacity-scaled value (the log-utility weight the solver runs on) is not, is
// refused — one such flow would turn the price of every link on its route, and
// through them every neighbour's rate, into NaN for good.
func admitWeight(weight, linkCap float64) (base, scaled float64, err error) {
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return 0, 0, fmt.Errorf("weight %g is not finite", weight)
	}
	if weight <= 0 {
		weight = 1
	}
	scaled = weight * linkCap
	if math.IsInf(scaled, 0) {
		return 0, 0, fmt.Errorf("weight %g overflows when scaled by the link capacity %g", weight, linkCap)
	}
	return weight, scaled, nil
}

// FlowletEnd removes a flowlet. It corresponds to a flowlet-end notification.
func (a *Allocator) FlowletEnd(id FlowID) error {
	idx, ok := a.indexByID[id]
	if !ok {
		return fmt.Errorf("core: flowlet %d is not registered", id)
	}
	last := len(a.ids) - 1
	if idx != last {
		a.ids[idx] = a.ids[last]
		a.normalized[idx] = a.normalized[last]
		a.lastNotified[idx] = a.lastNotified[last]
		a.state.Rates[idx] = a.state.Rates[last]
		a.indexByID[a.ids[idx]] = idx
	}
	a.ids = a.ids[:last]
	a.normalized = a.normalized[:last]
	a.lastNotified = a.lastNotified[:last]
	a.freeRoutes = append(a.freeRoutes, a.problem.Flows[idx].Route)
	// RemoveFlowSwap applies the same swap-delete to the problem and its
	// compiled CSR index.
	a.problem.RemoveFlowSwap(idx)
	a.state.Resize(last)
	delete(a.indexByID, id)
	return nil
}

// Iterate runs one allocator iteration: a NED step over the registered flows,
// normalization, and threshold-based rate-update generation. It returns the
// rate updates that would be sent to endpoints this iteration. The returned
// slice is reused across calls and is only valid until the next call.
func (a *Allocator) Iterate() []RateUpdate {
	if len(a.ids) == 0 {
		return nil
	}
	a.ned.Step(&a.problem, a.state)
	// The step's rate update summed exactly the link loads normalization
	// needs; hand them over instead of walking every route a second time.
	loads, _ := a.ned.LastLoads()
	a.normalized = a.fnorm.NormalizeLoads(&a.problem, a.state.Rates, loads, a.normalized)

	// The notify filter is its own pass over two dense float arrays — fusing
	// it into the normalizer's CSR sweep measured slower — and touches ids
	// only for the flows it reports.
	a.updates = appendSignificant(a.updates[:0], a.ids, nil, a.normalized, a.lastNotified, a.cfg.UpdateThreshold)
	return a.updates
}

// appendSignificant is the notify filter over one dense run of flows: it
// appends a RateUpdate for every flow whose rate changed significantly since
// it was last reported, and records the reported rate. slots, when non-nil,
// fills RateUpdate.Slot.
func appendSignificant(buf []RateUpdate, ids []FlowID, slots []int32, rates, lastNotified []float64, thr float64) []RateUpdate {
	lastNotified = lastNotified[:len(rates)]
	for i, rate := range rates {
		if SignificantRateChange(lastNotified[i], rate, thr) {
			lastNotified[i] = rate
			u := RateUpdate{Flow: ids[i], Rate: rate}
			if slots != nil {
				u.Slot = slots[i]
			}
			buf = append(buf, u)
		}
	}
	return buf
}

// SignificantRateChange reports whether a rate change from old to new
// exceeds the relative notification threshold. It is the single definition
// of the update-suppression rule (§6.4), shared by this allocator and
// ParallelAllocator so they can never drift apart.
func SignificantRateChange(old, new, threshold float64) bool {
	if old == 0 {
		return new != 0
	}
	return math.Abs(new-old) > threshold*old
}

// Rate returns the current normalized rate of a flowlet (the value most
// recently computed by Iterate), or 0 if the flowlet is unknown or no
// iteration has run since it was registered.
func (a *Allocator) Rate(id FlowID) float64 {
	idx, ok := a.indexByID[id]
	if !ok {
		return 0
	}
	return a.normalized[idx]
}

// Rates returns the normalized rates of all registered flowlets keyed by
// flowlet ID.
func (a *Allocator) Rates() map[FlowID]float64 {
	out := make(map[FlowID]float64, len(a.ids))
	for i, id := range a.ids {
		out[id] = a.normalized[i]
	}
	return out
}

// Problem exposes the allocator's current NUM problem (for experiments that
// need reference optimal allocations). The returned problem aliases internal
// state and must not be modified.
func (a *Allocator) Problem() *num.Problem { return &a.problem }

// State exposes the allocator's solver state (prices and raw rates). The
// returned state aliases internal state and must not be modified.
func (a *Allocator) State() *num.State { return a.state }
