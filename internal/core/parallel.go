package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/norm"
	"repro/internal/num"
	"repro/internal/topology"
)

// ParallelFlow is one flow handed to the multicore allocator.
type ParallelFlow struct {
	// ID is an opaque identifier reported back with rates.
	ID FlowID
	// Src and Dst are server indices.
	Src, Dst int
	// Weight is the log-utility weight (1 when zero).
	Weight float64
}

// flowBlock is the state of one FlowBlock: its flows, its local copy of the
// two LinkBlocks they traverse, and the accumulators the merge rounds reduce.
//
// A FlowBlock is a NUM problem of its own over a local link space: local link
// i < downBase is position i of the source block's upward LinkBlock, local
// link downBase+j position j of the destination block's downward LinkBlock.
// Its flows are a standalone num.Compiled whose routes are local link indices
// in route order, so the per-flow phases of an iteration are num's and norm's
// kernels run on (csr, price, load, hdiag, ratio) — the code the sequential
// engine runs on the whole fabric — and churn is the index's AppendLog and
// RemoveSwap (a fixed-stride row appended, or the last row copied into the
// gap) plus the columns below.
type flowBlock struct {
	srcBlock, dstBlock int

	// Per-flow columns beside the index, swap-deleted with it. csr.Weights
	// holds the capacity-scaled weight the solver consumes; baseWeights keep
	// the caller's original weight so LiveFlows can reproduce registrations
	// bit-exactly (scaling is not a reversible float operation for arbitrary
	// weights). lastNotified is the rate most recently reported through
	// AppendUpdates, so the daemon's update walk runs on dense arrays with no
	// per-flow map lookups. slots holds each flow's allocator slot, which
	// outlives the swap-deletes that move the flow within the block.
	ids          []FlowID
	slots        []int32
	srcs         []int32
	dsts         []int32
	baseWeights  []float64
	rates        []float64
	lastNotified []float64

	// csr routes are resolved from the topology once, when the flow is added;
	// churn of other flows never re-routes this one.
	csr num.Compiled
	// downBase is the upward LinkBlock's length rounded up to a cache line, so
	// the two halves of every local array never share one: in a merge round a
	// worker adds into its own up half while its partner reads its down half.
	downBase int

	// Local link state (§5), one array each over the local link space:
	// prices are copied in during the distribute step, ratios at the normalize
	// phase (nil unless the allocator normalizes); loads and Hessian diagonals
	// are accumulated during the rate update. Each spans whole cache lines
	// (see paddedFloats) so concurrent writers never false-share.
	price, load, hdiag, ratio []float64
	// The up and down halves of load and hdiag, for the merge rounds, the
	// LinkBlock owners' price update and BoundaryDigest.
	upLoad, downLoad   []float64
	upHdiag, downHdiag []float64
}

// numFlows returns the number of flows loaded into the block.
func (fb *flowBlock) numFlows() int { return len(fb.ids) }

// layOut allocates the local link arrays for LinkBlocks of nUp and nDown
// links.
func (fb *flowBlock) layOut(nUp, nDown int, normalize bool) {
	fb.downBase = (nUp + cacheLineFloats - 1) &^ (cacheLineFloats - 1)
	n := fb.downBase + nDown
	fb.price, fb.load, fb.hdiag = paddedFloats(n), paddedFloats(n), paddedFloats(n)
	if normalize {
		fb.ratio = paddedFloats(n)
	}
	fb.upLoad, fb.downLoad = fb.load[:nUp], fb.load[fb.downBase:]
	fb.upHdiag, fb.downHdiag = fb.hdiag[:nUp], fb.hdiag[fb.downBase:]
}

// addFlow appends one flow whose route is already in local link indices.
func (fb *flowBlock) addFlow(id FlowID, src, dst int, slot int32, weight, baseWeight float64, route []int32) {
	fb.ids = append(fb.ids, id)
	fb.slots = append(fb.slots, slot)
	fb.srcs = append(fb.srcs, int32(src))
	fb.dsts = append(fb.dsts, int32(dst))
	fb.baseWeights = append(fb.baseWeights, baseWeight)
	fb.rates = append(fb.rates, 0)
	fb.lastNotified = append(fb.lastNotified, 0)
	fb.csr.AppendLog(route, weight)
}

// removeSwap removes flow i by moving the block's last flow into its place. It
// returns the allocator slot of the flow that moved to index i (the removed
// flow's own slot when it was last) so the allocator can fix its locator.
func (fb *flowBlock) removeSwap(i int) int32 {
	last := len(fb.ids) - 1
	moved := fb.slots[last]
	fb.ids[i] = fb.ids[last]
	fb.slots[i] = moved
	fb.srcs[i] = fb.srcs[last]
	fb.dsts[i] = fb.dsts[last]
	fb.baseWeights[i] = fb.baseWeights[last]
	fb.rates[i] = fb.rates[last]
	fb.lastNotified[i] = fb.lastNotified[last]
	fb.truncate(last)
	fb.csr.RemoveSwap(i)
	return moved
}

// truncate keeps the first n entries of the per-flow columns.
func (fb *flowBlock) truncate(n int) {
	fb.ids = fb.ids[:n]
	fb.slots = fb.slots[:n]
	fb.srcs = fb.srcs[:n]
	fb.dsts = fb.dsts[:n]
	fb.baseWeights = fb.baseWeights[:n]
	fb.rates = fb.rates[:n]
	fb.lastNotified = fb.lastNotified[:n]
}

// reset clears all per-flow state, keeping capacity.
func (fb *flowBlock) reset() {
	fb.truncate(0)
	fb.csr.Reset()
}

// linkBlockState is the authoritative state of one LinkBlock (prices persist
// across iterations; capacities are fixed).
type linkBlockState struct {
	links []topology.LinkID
	price []float64
	cap   []float64
	// ext and extH, when non-nil, carry remote shards' load and
	// Hessian-diagonal contributions per block position (see
	// ParallelAllocator.SetExternalLoads). The price-update phase folds
	// them into the merged accumulators exactly as the sequential NED
	// solver folds num.Problem.ExternalLoads, and the normalize phase
	// counts ext toward link utilization.
	ext, extH []float64
	// pinned, when non-nil, holds imported remote-owner prices per block
	// position (-1 = locally priced); re-imposed after every price update,
	// mirroring num.Problem.PinnedPrices.
	pinned []float64
	// ratio is each link's utilization (load + ext) / cap for the iteration
	// in flight, written once per link by the block's owner at the price
	// update and copied into every FlowBlock's local ratios at its normalize
	// phase (one barrier later). Allocated only when the allocator normalizes.
	ratio []float64
}

func newLinkBlockState(t *topology.Topology, links []topology.LinkID, headroom float64) *linkBlockState {
	s := &linkBlockState{
		links: links,
		price: make([]float64, len(links)),
		cap:   make([]float64, len(links)),
	}
	for i, l := range links {
		s.price[i] = 1
		s.cap[i] = t.Link(l).Capacity * (1 - headroom)
	}
	return s
}

// ParallelConfig configures the multicore allocator.
type ParallelConfig struct {
	// Topology is the fabric to schedule. Required.
	Topology *topology.Topology
	// Blocks is the number of rack blocks n: the flows are partitioned into
	// n² FlowBlocks (the paper's 4-, 16- and 64-core rows are 2, 4 and 8
	// blocks), a data layout run by min(n², GOMAXPROCS) workers, the
	// goroutine calling Iterate being one.
	Blocks int
	// Gamma is NED's step size (default 1).
	Gamma float64
	// Headroom is the fraction of link capacity withheld so links are not
	// over-utilized between notifications (the daemon passes its update
	// threshold); default 0.
	Headroom float64
	// Normalize enables the parallel F-NORM pass after the price update.
	Normalize bool
}

// flowLoc locates a registered flow: the FlowBlock that holds it and its
// block-local index. The index moves under swap-deletes; EndSlot keeps the
// slot table consistent. A free slot has fb = -1.
type flowLoc struct {
	fb  int32
	idx int32
}

// ParallelAllocator is the FlowBlock/LinkBlock multicore implementation of
// the NED optimizer (§5). Flows are partitioned by (source block, destination
// block) into FlowBlocks; each FlowBlock updates only its own local copies of
// the source block's upward LinkBlock and the destination block's downward
// LinkBlock, eliminating concurrent writes. Local copies are then merged into
// authoritative copies in log2(n) pairwise aggregation rounds (Figure 3),
// prices are updated on the authoritative copies, and the new prices are
// distributed back to the FlowBlocks — all by min(n², GOMAXPROCS) workers.
//
// The flow set is maintained incrementally: FlowletStart and FlowletEnd are
// O(route length) operations on the owning FlowBlock's CSR index, so flowlet
// churn between iterations never rebuilds or re-routes the rest of the flow
// set. SetFlows remains as the bulk-load path.
//
// Every registered flow holds a slot: a dense int32, stable from admission to
// end, reused after it. SlotOf resolves an ID to it, AppendUpdates reports it
// in RateUpdate.Slot, and EndSlot retires by it, so a caller keeping per-flow
// state in a slice indexed by slot needs no index of its own. Churn costs one
// index probe per event: an admission is Bind then Admit, a retirement Unbind
// then EndSlot, and FlowletStart, FlowletEnd and SetFlows are compositions of
// the two.
type ParallelAllocator struct {
	cfg  ParallelConfig
	topo *topology.Topology
	part *topology.BlockPartition
	// routeBuf is Admit's route scratch: routing is table lookups into it
	// (topology.RouteInto), so FlowletStart is allocation-free, which
	// BenchmarkParallelChurn and TestChurnAllocFree pin.
	routeBuf []int32

	numBlocks int
	gamma     float64
	maxRate   float64 // per-flow rate cap (the server NIC line rate)
	linkCap   float64 // weight scale (see FlowletStart)

	up   []*linkBlockState // authoritative upward LinkBlocks, indexed by block
	down []*linkBlockState // authoritative downward LinkBlocks, indexed by block

	// Dense LinkID→owning-LinkBlock lookup, the one link→position index:
	// flow admission, capacity changes and the boundary API all resolve
	// through it (every fabric link lives in exactly one LinkBlock; allocator
	// uplinks in none, so their ownerLB entry is nil). ownerPos is the link's
	// position within the block, ownerBlk the block index, ownerIsUp whether
	// it is the block's upward half.
	ownerLB   []*linkBlockState
	ownerPos  []int32
	ownerBlk  []int32
	ownerIsUp []bool

	// fbs holds the FlowBlocks in Morton (bit-interleaved) order of their
	// (srcBlock, dstBlock) coordinates, so the partners of the early
	// pairwise merge rounds sit next to each other — both in the slice and
	// in the heap, since their local link arrays are allocated in the same
	// order. fbAt is the row-major lookup: fbAt[sb*numBlocks+db].
	fbs  []*flowBlock
	fbAt []*flowBlock

	// loc indexes every registered flow's slot by ID, and slots maps a slot
	// to the flow's FlowBlock and index; freeSlots lists the ended flows'
	// slots, reused last-in first-out, so len(slots) is the peak flow count
	// and the slot Bind reserves is the one EndSlot freed last. They are
	// touched only on churn, never in the iteration hot path.
	loc       FlowIndex
	slots     []flowLoc
	freeSlots []int32

	// shares splits fbs into W = min(len(fbs), GOMAXPROCS) contiguous Morton
	// runs, one per worker: shares[0] runs on the goroutine calling Iterate,
	// the rest on goroutines start launches. phase, the one barrier (W
	// parties), starts an iteration, separates its phases and ends it.
	shares  [][]*flowBlock
	phase   *barrier
	wg      sync.WaitGroup
	stop    atomic.Bool
	started bool
}

// NewParallelAllocator builds the multicore allocator.
func NewParallelAllocator(cfg ParallelConfig) (*ParallelAllocator, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("core: ParallelConfig.Topology is required")
	}
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("core: ParallelConfig.Blocks must be positive, got %d", cfg.Blocks)
	}
	if cfg.Blocks&(cfg.Blocks-1) != 0 {
		return nil, fmt.Errorf("core: ParallelConfig.Blocks must be a power of two, got %d", cfg.Blocks)
	}
	if !(cfg.Gamma >= 0) || math.IsInf(cfg.Gamma, 1) {
		return nil, fmt.Errorf("core: ParallelConfig.Gamma must be finite and non-negative, got %g", cfg.Gamma)
	}
	if !(cfg.Headroom >= 0 && cfg.Headroom < 1) {
		return nil, fmt.Errorf("core: ParallelConfig.Headroom must be in [0,1), got %g", cfg.Headroom)
	}
	part, err := topology.NewBlockPartition(cfg.Topology, cfg.Blocks)
	if err != nil {
		return nil, err
	}
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 1
	}
	p := &ParallelAllocator{
		cfg:       cfg,
		topo:      cfg.Topology,
		part:      part,
		routeBuf:  make([]int32, 0, topology.MaxRouteLinks),
		numBlocks: cfg.Blocks,
		gamma:     gamma,
		maxRate:   cfg.Topology.Config().LinkCapacity,
		linkCap:   cfg.Topology.Config().LinkCapacity,
	}
	for b := 0; b < cfg.Blocks; b++ {
		p.up = append(p.up, newLinkBlockState(cfg.Topology, part.UpwardLinkBlock(b), cfg.Headroom))
		p.down = append(p.down, newLinkBlockState(cfg.Topology, part.DownwardLinkBlock(b), cfg.Headroom))
		if cfg.Normalize {
			p.up[b].ratio = make([]float64, len(p.up[b].links))
			p.down[b].ratio = make([]float64, len(p.down[b].links))
		}
	}
	p.ownerLB = make([]*linkBlockState, cfg.Topology.NumLinks())
	p.ownerPos = make([]int32, cfg.Topology.NumLinks())
	p.ownerBlk = make([]int32, cfg.Topology.NumLinks())
	p.ownerIsUp = make([]bool, cfg.Topology.NumLinks())
	for b := 0; b < cfg.Blocks; b++ {
		for i, l := range p.up[b].links {
			p.ownerLB[l], p.ownerPos[l], p.ownerBlk[l], p.ownerIsUp[l] = p.up[b], int32(i), int32(b), true
		}
		for i, l := range p.down[b].links {
			p.ownerLB[l], p.ownerPos[l], p.ownerBlk[l], p.ownerIsUp[l] = p.down[b], int32(i), int32(b), false
		}
	}
	n := cfg.Blocks
	p.fbs = make([]*flowBlock, n*n)
	p.fbAt = make([]*flowBlock, n*n)
	// Allocate the FlowBlocks (and their local link arrays) in Morton order
	// so round-1 merge partners get adjacent heap placements.
	for m := 0; m < n*n; m++ {
		sb, db := mortonCoords(m, n)
		fb := &flowBlock{srcBlock: sb, dstBlock: db}
		fb.layOut(len(p.up[sb].links), len(p.down[db].links), cfg.Normalize)
		p.distributePrices(fb)
		p.fbs[m] = fb
		p.fbAt[sb*n+db] = fb
	}
	w := min(len(p.fbs), runtime.GOMAXPROCS(0))
	for k := range w {
		p.shares = append(p.shares, p.fbs[k*len(p.fbs)/w:(k+1)*len(p.fbs)/w])
	}
	p.phase = newBarrier(w)
	return p, nil
}

// cacheLineFloats is the number of float64 words per 64-byte cache line.
const cacheLineFloats = 8

// paddedFloats allocates a float64 slice of length n whose backing array
// spans whole cache lines, so per-FlowBlock arrays written concurrently in the
// rate-update phase never share a line with another block's (Go's size
// classes place multiple-of-64-byte allocations on 64-byte boundaries).
func paddedFloats(n int) []float64 {
	padded := (n + cacheLineFloats - 1) &^ (cacheLineFloats - 1)
	if padded == 0 {
		padded = cacheLineFloats
	}
	return make([]float64, n, padded)
}

// mortonCoords decodes Morton index m into (srcBlock, dstBlock) for n blocks:
// dstBlock occupies the even bits, srcBlock the odd bits. With this
// interleaving the round-1 up-merge partner (sb, db±1) is the neighbouring
// slot and the round-1 down-merge partner (sb±1, db) is two slots away.
func mortonCoords(m, n int) (sb, db int) {
	for bit := 0; 1<<bit < n; bit++ {
		db |= (m >> (2 * bit) & 1) << bit
		sb |= (m >> (2*bit + 1) & 1) << bit
	}
	return sb, db
}

// NumWorkers returns W, the number of workers, the caller of Iterate included.
func (p *ParallelAllocator) NumWorkers() int { return len(p.shares) }

// NumFlows returns the number of loaded flows.
func (p *ParallelAllocator) NumFlows() int { return p.loc.Len() }

// AggregationSteps returns the number of pairwise merge rounds per iteration.
func (p *ParallelAllocator) AggregationSteps() int { return p.part.AggregationSteps() }

// SlotOf returns the slot of a registered flowlet, and false if id is not
// registered.
func (p *ParallelAllocator) SlotOf(id FlowID) (int32, bool) {
	return p.loc.Get(id)
}

// nextSlot returns the slot the next admission takes: the most recently freed
// one, or a new one past the end of the slot table.
func (p *ParallelAllocator) nextSlot() int32 {
	if n := len(p.freeSlots); n > 0 {
		return p.freeSlots[n-1]
	}
	return int32(len(p.slots))
}

// Bind resolves id in one index probe, the first half of an admission. If id
// is registered it returns its slot and true. Otherwise it binds id to the
// slot the next admission takes and returns that slot and false; the caller
// must then either Admit id or release the binding with Unbind before any
// other churn call.
func (p *ParallelAllocator) Bind(id FlowID) (int32, bool) {
	return p.loc.GetOrPut(id, p.nextSlot())
}

// Unbind removes id from the flow index in one probe, the first half of a
// retirement, and returns the slot it was bound to, and false if it had none.
// The caller then retires the slot with EndSlot, re-binds it with Rebind, or,
// for a binding Bind made, simply drops it.
func (p *ParallelAllocator) Unbind(id FlowID) (int32, bool) {
	return p.loc.Take(id)
}

// Rebind restores the binding of a registered flowlet that Unbind took, for a
// caller that decides not to retire it after all.
func (p *ParallelAllocator) Rebind(id FlowID, slot int32) {
	p.loc.Put(id, slot)
}

// FlowletStart registers one new flowlet (Bind, then Admit), refusing an ID
// that is already registered.
func (p *ParallelAllocator) FlowletStart(id FlowID, src, dst int, weight float64) error {
	if _, dup := p.Bind(id); dup {
		return fmt.Errorf("core: flowlet %d already registered", id)
	}
	_, err := p.Admit(id, src, dst, weight)
	return err
}

// FlowletStartSized is FlowletStart carrying the endpoint's flowlet-size
// hint in bytes (0 = unknown), which does not affect allocation and is not
// stored.
func (p *ParallelAllocator) FlowletStartSized(id FlowID, src, dst int, weight float64, _ int64) error {
	return p.FlowletStart(id, src, dst, weight)
}

// Admit registers one new flowlet and returns its slot, resolving its route to
// the owning FlowBlock's local link indices once and appending it to the
// block's CSR index — an O(route length) operation that leaves every other
// flow untouched. Every link of the route must be owned by the source block's
// upward or the destination block's downward LinkBlock — the two the
// FlowBlock holds local copies of. A weight admitWeight refuses is an error.
// id must be freshly bound by Bind, so the slot is already in the flow index
// and an admission touches the index only when it is refused: the error
// releases the binding, leaving the allocator as it was before Bind. It may
// only be called while no Iterate call is in flight.
func (p *ParallelAllocator) Admit(id FlowID, src, dst int, weight float64) (int32, error) {
	slot, err := p.admit(id, src, dst, weight)
	if err != nil {
		p.loc.Delete(id)
	}
	return slot, err
}

// admit is Admit without the release of a refused binding.
func (p *ParallelAllocator) admit(id FlowID, src, dst int, weight float64) (int32, error) {
	// Weights are scaled by link capacity (as in the sequential allocator)
	// so prices stay O(1).
	weight, scaled, err := admitWeight(weight, p.linkCap)
	if err != nil {
		return 0, fmt.Errorf("core: flow %d: %w", id, err)
	}
	route, err := p.topo.RouteInto(p.routeBuf[:0], src, dst, int(id))
	if err != nil {
		return 0, fmt.Errorf("core: flow %d: %w", id, err)
	}
	sb := p.part.BlockOfServer(src)
	db := p.part.BlockOfServer(dst)
	fbi := mortonIndex(sb, db, p.numBlocks)
	fb := p.fbs[fbi]
	for k, l := range route {
		switch p.ownerLB[l] {
		case p.up[sb]:
			route[k] = p.ownerPos[l]
		case p.down[db]:
			route[k] = int32(fb.downBase) + p.ownerPos[l]
		default:
			return 0, fmt.Errorf("core: flow %d: link %d is in neither its upward nor its downward LinkBlock", id, l)
		}
	}
	at := flowLoc{fb: int32(fbi), idx: int32(fb.numFlows())}
	slot := p.nextSlot()
	if n := len(p.freeSlots); n > 0 {
		p.freeSlots = p.freeSlots[:n-1]
		p.slots[slot] = at
	} else {
		p.slots = append(p.slots, at)
	}
	fb.addFlow(id, src, dst, slot, scaled, weight, route)
	return slot, nil
}

// mortonIndex interleaves the bits of (srcBlock, dstBlock): the inverse of
// mortonCoords.
func mortonIndex(sb, db, n int) int {
	m := 0
	for bit := 0; 1<<bit < n; bit++ {
		m |= (db >> bit & 1) << (2 * bit)
		m |= (sb >> bit & 1) << (2*bit + 1)
	}
	return m
}

// FlowletEnd removes a registered flowlet (Unbind, then EndSlot).
func (p *ParallelAllocator) FlowletEnd(id FlowID) error {
	slot, ok := p.Unbind(id)
	if !ok {
		return fmt.Errorf("core: flowlet %d is not registered", id)
	}
	p.EndSlot(slot)
	return nil
}

// EndSlot removes the flowlet holding slot by swap-deleting it from its
// FlowBlock — an O(1) operation (plus an amortized arena compaction once
// holes outnumber live entries) that touches no index — and frees the slot for
// the next admission. slot must hold a flowlet (a free slot panics) whose ID
// Unbind has removed from the index; the exception is a flowlet retired to be
// replaced under the same ID, whose binding stays valid for the replacement
// because the slot just freed is the one the next Admit takes. It may only be
// called while no Iterate call is in flight.
func (p *ParallelAllocator) EndSlot(slot int32) {
	l := p.slots[slot]
	fb := p.fbs[l.fb]
	if moved := fb.removeSwap(int(l.idx)); moved != slot {
		p.slots[moved] = l
	}
	p.slots[slot] = flowLoc{fb: -1}
	p.freeSlots = append(p.freeSlots, slot)
}

// SetLinkCapacity replaces one link's raw capacity in the LinkBlock that owns
// it. The stored value is headroom-scaled, matching construction, and the next
// Iterate's price-update phase reads it — no CSR rebuild, no price or rate
// loss. Like all mutators it may only be called
// while no Iterate is in flight.
func (p *ParallelAllocator) SetLinkCapacity(l topology.LinkID, capacity float64) error {
	if l < 0 || int(l) >= p.topo.NumLinks() {
		return fmt.Errorf("core: SetLinkCapacity link %d out of range (%d links)", l, p.topo.NumLinks())
	}
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return fmt.Errorf("core: SetLinkCapacity link %d: invalid capacity %g", l, capacity)
	}
	lb := p.ownerLB[l]
	if lb == nil {
		return fmt.Errorf("core: SetLinkCapacity link %d is not covered by any LinkBlock", l)
	}
	lb.cap[p.ownerPos[l]] = capacity * (1 - p.cfg.Headroom)
	return nil
}

// SetFlows replaces the allocator's flow set in bulk, re-routing every flow.
// Link prices persist across calls. Incremental churn should use
// FlowletStart/FlowletEnd instead; SetFlows remains as the bulk-load path.
// Flow IDs must be distinct; the flows get slots 0..len(flows)-1 in order. It
// may only be called while no Iterate call is in flight.
func (p *ParallelAllocator) SetFlows(flows []ParallelFlow) error {
	for _, fb := range p.fbs {
		fb.reset()
	}
	p.loc.Clear()
	p.slots = p.slots[:0]
	p.freeSlots = p.freeSlots[:0]
	for _, f := range flows {
		if _, dup := p.Bind(f.ID); dup {
			return fmt.Errorf("core: duplicate flow ID %d", f.ID)
		}
		if _, err := p.Admit(f.ID, f.Src, f.Dst, f.Weight); err != nil {
			return err
		}
	}
	return nil
}

// LiveFlows returns the registered flows in the allocator's internal
// (FlowBlock-major) order — the canonical order in which rates are reported
// and loads are accumulated. Feeding the result to SetFlows on an allocator
// with the same configuration reproduces this allocator's layout exactly.
func (p *ParallelAllocator) LiveFlows() []ParallelFlow {
	out := make([]ParallelFlow, 0, p.loc.Len())
	for _, fb := range p.fbs {
		for i := range fb.ids {
			out = append(out, fb.flow(i))
		}
	}
	return out
}

// FlowAt returns the registration of the flowlet holding slot, as LiveFlows
// reports it. slot must hold a flowlet (see EndSlot).
func (p *ParallelAllocator) FlowAt(slot int32) ParallelFlow {
	l := p.slots[slot]
	return p.fbs[l.fb].flow(int(l.idx))
}

// flow returns flow i's registration: its ID, endpoints and original weight.
func (fb *flowBlock) flow(i int) ParallelFlow {
	return ParallelFlow{ID: fb.ids[i], Src: int(fb.srcs[i]), Dst: int(fb.dsts[i]), Weight: fb.baseWeights[i]}
}

// start launches the goroutines of workers 1..W-1 (none if W = 1) once.
func (p *ParallelAllocator) start() {
	if p.started {
		return
	}
	p.started = true
	for w := 1; w < len(p.shares); w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
}

// Close shuts down the worker pool. The allocator cannot be used afterwards.
func (p *ParallelAllocator) Close() {
	if !p.started {
		return
	}
	p.stop.Store(true)
	p.phase.wait() // release the workers into an iteration; they observe stop
	p.wg.Wait()
	p.started = false
}

// Iterate runs one parallel NED iteration (rate update, aggregation, price
// update, distribution, and optionally F-NORM), the calling goroutine acting
// as worker 0, and returns once every worker has finished. With no flows
// loaded it returns at once: prices neither advance nor decay while idle.
func (p *ParallelAllocator) Iterate() {
	if p.loc.Len() == 0 {
		return
	}
	p.start()
	p.phase.wait() // release the other workers into the iteration
	p.iterateShare(p.shares[0])
}

// worker is the body of the goroutine running shares[w], w ≥ 1.
func (p *ParallelAllocator) worker(w int) {
	defer p.wg.Done()
	for {
		p.phase.wait() // wait for Iterate (or Close)
		if p.stop.Load() {
			return
		}
		p.iterateShare(p.shares[w])
	}
}

// iterateShare runs one iteration's phases over a worker's FlowBlocks, meeting
// the other workers at the barrier after each. Every phase writes only state
// its own FlowBlock or LinkBlock owns, and no merge round's target is one of
// its sources, so no split of the FlowBlocks over workers changes a bit.
func (p *ParallelAllocator) iterateShare(share []*flowBlock) {
	// Phase 1: rate update on local copies (Equation 3), accumulating
	// per-link loads and Hessian diagonals locally.
	for _, fb := range share {
		p.rateUpdatePhase(fb)
	}
	p.phase.wait()

	// Phase 2: log2(n) pairwise aggregation rounds. Upward LinkBlocks are
	// reduced across the destination-block dimension; downward LinkBlocks
	// across the source-block dimension (Figure 3). The Morton layout of fbs
	// makes the stride-1 partners heap neighbours, and usually share-mates.
	n := p.numBlocks
	for stride := 1; stride < n; stride *= 2 {
		for _, fb := range share {
			if fb.dstBlock%(2*stride) == 0 && fb.dstBlock+stride < n {
				other := p.fbAt[fb.srcBlock*n+fb.dstBlock+stride]
				addInto(fb.upLoad, other.upLoad)
				addInto(fb.upHdiag, other.upHdiag)
			}
			if fb.srcBlock%(2*stride) == 0 && fb.srcBlock+stride < n {
				other := p.fbAt[(fb.srcBlock+stride)*n+fb.dstBlock]
				addInto(fb.downLoad, other.downLoad)
				addInto(fb.downHdiag, other.downHdiag)
			}
		}
		p.phase.wait()
	}

	// Phase 3: price update (Equation 4) on the authoritative copies.
	// FlowBlock (b, 0) owns block b's upward LinkBlock; FlowBlock (0, b)
	// owns block b's downward LinkBlock.
	for _, fb := range share {
		if fb.dstBlock == 0 {
			p.priceUpdatePhase(p.up[fb.srcBlock], fb.upLoad, fb.upHdiag)
		}
		if fb.srcBlock == 0 {
			p.priceUpdatePhase(p.down[fb.dstBlock], fb.downLoad, fb.downHdiag)
		}
	}
	p.phase.wait()

	// Phase 4: distribute the new prices back to local copies, then the
	// parallel F-NORM: each FlowBlock scales its flows by the worst
	// utilization ratio along their paths, from ratios the LinkBlock owners
	// wrote in phase 3.
	for _, fb := range share {
		p.distributePrices(fb)
		if p.cfg.Normalize {
			p.normalizePhase(fb)
		}
	}
	p.phase.wait() // iteration complete: Iterate returns, workers park
}

// rateUpdatePhase computes flow rates from the FlowBlock's local prices and
// accumulates loads and Hessian diagonals locally: NED's rate update on the
// block's own link space. A cross-rack route — two upward and two downward
// links on the two-tier Clos a BlockPartition accepts — is a 4-link route to
// the kernel.
func (p *ParallelAllocator) rateUpdatePhase(fb *flowBlock) {
	clear(fb.load)
	clear(fb.hdiag)
	num.NEDRateUpdate(&fb.csr, p.maxRate, fb.price, fb.rates, fb.load, fb.hdiag)
}

// priceUpdatePhase applies NED's price update to one authoritative LinkBlock
// from its owner's merged accumulators. External loads (remote shards' demand)
// are folded in by the kernel exactly as the sequential solver folds
// num.Problem.ExternalLoads, so a boundary-exchanging shard stays
// bit-identical to the sequential engine, and pinned prices are re-imposed
// after the update, mirroring num's applyPins. The owner also holds the only
// merged copy of the loads, so this is where each link's utilization ratio for
// the normalize phase is written — one division per link rather than one per
// link per flow.
func (p *ParallelAllocator) priceUpdatePhase(lb *linkBlockState, load, hdiag []float64) {
	if lb.ratio != nil {
		norm.LinkRatios(load, lb.ext, lb.cap, lb.ratio)
	}
	num.NEDPriceUpdate(p.gamma, lb.price, load, hdiag, lb.cap, lb.ext, lb.extH)
	for i, pin := range lb.pinned {
		if pin >= 0 {
			lb.price[i] = pin
		}
	}
}

// distributePrices copies the two authoritative LinkBlocks' prices into the
// FlowBlock's local link space.
func (p *ParallelAllocator) distributePrices(fb *flowBlock) {
	copy(fb.price, p.up[fb.srcBlock].price)
	copy(fb.price[fb.downBase:], p.down[fb.dstBlock].price)
}

// normalizePhase applies F-NORM within a FlowBlock: the ratios the LinkBlock
// owners wrote during the price update (see priceUpdatePhase) are copied into
// the local link space and norm's sweep divides each flow, in place, by the
// worst one along its route.
func (p *ParallelAllocator) normalizePhase(fb *flowBlock) {
	copy(fb.ratio, p.up[fb.srcBlock].ratio)
	copy(fb.ratio[fb.downBase:], p.down[fb.dstBlock].ratio)
	norm.ScaleByWorstRatio(&fb.csr, fb.ratio, fb.rates, fb.rates)
}

// Rates returns the rates computed by the most recent Iterate call, keyed by
// flow ID.
func (p *ParallelAllocator) Rates() map[FlowID]float64 {
	out := make(map[FlowID]float64, p.loc.Len())
	p.ForEachRate(func(id FlowID, rate float64) { out[id] = rate })
	return out
}

// ForEachRate calls fn with the most recently computed rate of every loaded
// flow, in FlowBlock order, without allocating. It may only be called while
// no Iterate is in flight.
func (p *ParallelAllocator) ForEachRate(fn func(FlowID, float64)) {
	for _, fb := range p.fbs {
		for i, id := range fb.ids {
			fn(id, fb.rates[i])
		}
	}
}

// AppendUpdates appends a RateUpdate for every flow whose rate changed
// significantly (per SignificantRateChange) since it was last reported,
// records the reported rates, and returns the extended slice. Each update
// carries its flow's slot. The walk runs over the dense per-FlowBlock arrays
// — no per-flow map lookups — and allocates nothing once buf has grown to the
// working-set size. It may only be called while no Iterate is in flight.
func (p *ParallelAllocator) AppendUpdates(threshold float64, buf []RateUpdate) []RateUpdate {
	for _, fb := range p.fbs {
		buf = appendSignificant(buf, fb.ids, fb.slots, fb.rates, fb.lastNotified, threshold)
	}
	return buf
}

// Objective returns the NUM objective Σ U(x) over the rates computed by the
// most recent Iterate: the log utility at the capacity-scaled weights the
// solver runs on, 0 with no flows and -Inf while a rate is still zero, so
// callers that serialize it must sanitize non-finite values. It walks the
// dense per-FlowBlock arrays without allocating and may only be called while
// no Iterate is in flight.
func (p *ParallelAllocator) Objective() float64 {
	sum := 0.0
	for _, fb := range p.fbs {
		for i := range fb.ids {
			sum += num.LogUtility{W: fb.csr.Weights[i]}.Value(fb.rates[i])
		}
	}
	return sum
}

// Prices returns the authoritative link prices keyed by LinkID.
func (p *ParallelAllocator) Prices() map[topology.LinkID]float64 {
	out := make(map[topology.LinkID]float64)
	for _, lb := range p.up {
		for i, l := range lb.links {
			out[l] = lb.price[i]
		}
	}
	for _, lb := range p.down {
		for i, l := range lb.links {
			out[l] = lb.price[i]
		}
	}
	return out
}

// addInto adds src element-wise into dst.
func addInto(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// barrier is a reusable sense-reversing barrier for n parties. Arrival is a
// single atomic add; the last arriver resets the count and advances the
// generation (the "sense"), releasing the others. Waiters spin briefly on the
// generation word — at the allocator's µs-scale phase lengths the partners
// usually arrive within the spin budget, so the common case costs no kernel
// transition — and park on a condition variable only when the spin budget
// runs out. Spinning pays because the allocator's parties never outnumber
// GOMAXPROCS (W is capped by it): no spinner holds the timeslice its
// straggler needs. A one-party barrier returns at once.
type barrier struct {
	n       int32
	arrived atomic.Int32
	gen     atomic.Uint32

	mu   sync.Mutex
	cond *sync.Cond
}

// barrierSpins bounds the busy-wait before a waiter parks.
const barrierSpins = 1 << 13

func newBarrier(n int) *barrier {
	b := &barrier{n: int32(n)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n parties have called wait for the current
// generation.
func (b *barrier) wait() {
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		// Reset before flipping the sense: the other n-1 parties are all
		// inside wait, so no new arrival can race the reset.
		b.arrived.Store(0)
		b.mu.Lock()
		b.gen.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for spins := 0; spins < barrierSpins; spins++ {
		if b.gen.Load() != gen {
			return
		}
		if spins&63 == 63 {
			// Yield periodically so spinning cannot starve the very
			// parties being waited for if the scheduler shrank.
			runtime.Gosched()
		}
	}
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
