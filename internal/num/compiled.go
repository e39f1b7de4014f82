package num

// This file implements the compiled problem representation: a flat,
// cache-friendly CSR (compressed-sparse-row) layout of the flow→link
// incidence that the solver hot loops iterate over instead of chasing one
// heap-allocated Route slice and one Utility interface per flow.
//
// Layout. All routes live concatenated in one arena (Routes); flow i's route
// is Routes[Off[i] : Off[i]+Len[i]]. Per-flow log-utility weights are stored
// densely in Weights so the common LogUtility case runs a branch-free,
// interface-free inner loop; problems that mix in custom utilities carry a
// parallel Utils slice and fall back to interface dispatch only for the flows
// that need it. A transposed link→flow index (LinkFlows/LinkOff) is built
// lazily for link-major consumers.
//
// Churn. The layout supports O(route length) swap-delete and append, mirroring
// the allocator's FlowletStart/FlowletEnd, so the index is maintained
// incrementally across flowlet churn instead of being rebuilt per iteration.
// Swap-deletes leave holes in the arena; the arena is compacted (into a
// reused scratch buffer) once holes outnumber live entries. Because of the
// holes the layout keeps explicit per-flow lengths instead of the textbook
// n+1 offsets array.

// Compiled is the compiled CSR form of a flow set. A Problem's is obtained
// with Problem.Compiled and kept in sync by the Problem's own mutators; the
// zero value is an empty index that no Problem owns, maintained by its owner
// with AppendLog, RemoveSwap and Reset (core.ParallelAllocator keeps one per
// FlowBlock). All exported fields and the slices they contain must be treated
// as read-only.
type Compiled struct {
	// Routes is the route arena: flow i traverses the link indices
	// Routes[Off[i] : Off[i]+Len[i]].
	Routes []int32
	// Off holds each flow's start offset into Routes.
	Off []int32
	// Len holds each flow's route length.
	Len []int32
	// Weights holds each flow's log-utility weight. It is meaningful only
	// for flows on the fast path (Utils == nil, or Utils[i] == nil).
	Weights []float64
	// Utils is nil when every flow uses LogUtility (the fully
	// monomorphized case). Otherwise it has one entry per flow: nil for
	// log-utility flows, the custom Utility for the rest.
	Utils []Utility

	owner     *Problem // the Problem this index belongs to (copy detection)
	version   uint64   // Problem.version this index is consistent with
	dead      int      // arena entries orphaned by swap-deletes
	numCustom int      // flows with a non-LogUtility utility

	// Lazily built transpose: link l is traversed by the flows
	// linkFlows[linkOff[l]:linkOff[l+1]].
	linkFlows []int32
	linkOff   []int32
	tNumLinks int
	tvalid    bool

	routesScratch []int32 // ping-pong buffer for arena compaction
	cursorScratch []int32 // per-link cursors for transpose construction
}

// logWeight reports whether the flow is on the monomorphized log-utility fast
// path and, if so, its weight.
func logWeight(f Flow) (float64, bool) {
	if f.Util == nil {
		return 1, true
	}
	if lu, ok := f.Util.(LogUtility); ok {
		return lu.W, true
	}
	return 0, false
}

// Compiled returns the CSR index for the problem's current flow set,
// (re)building it if the cached one is missing or stale. Staleness is
// detected by flow count and by the mutation counter AppendFlow,
// RemoveFlowSwap and Invalidate maintain; see the Flows field comment for the
// direct-mutation caveat.
func (p *Problem) Compiled() *Compiled {
	c := p.compiled
	if c == nil || c.owner != p {
		// No index yet, or p is a copy of another Problem and shares its
		// cache pointer: give p its own index rather than mutating (or
		// trusting the version counter of) the shared one.
		c = &Compiled{owner: p}
		p.compiled = c
	} else if len(c.Off) == len(p.Flows) && c.version == p.version {
		return c
	}
	c.rebuild(p)
	return c
}

// Invalidate marks the cached CSR index stale so the next Compiled call
// rebuilds it. Call it after mutating Flows directly in a way the staleness
// check cannot see (replacing flows without changing the flow count).
func (p *Problem) Invalidate() {
	p.version++
}

// AppendFlow adds a flow to the problem, keeping the compiled index in sync
// incrementally (O(route length)).
func (p *Problem) AppendFlow(f Flow) {
	c := p.compiled
	sync := c != nil && c.owner == p && len(c.Off) == len(p.Flows) && c.version == p.version
	p.Flows = append(p.Flows, f)
	p.version++
	if sync {
		c.appendFlow(f)
		c.version = p.version
	}
}

// RemoveFlowSwap removes flow i by moving the last flow into its slot (the
// allocator's swap-delete), keeping the compiled index in sync incrementally.
// Callers maintaining per-flow state in problem order must apply the same
// swap.
func (p *Problem) RemoveFlowSwap(i int) {
	c := p.compiled
	sync := c != nil && c.owner == p && len(c.Off) == len(p.Flows) && c.version == p.version
	last := len(p.Flows) - 1
	if i != last {
		p.Flows[i] = p.Flows[last]
	}
	p.Flows[last] = Flow{} // release the route and utility
	p.Flows = p.Flows[:last]
	p.version++
	if sync {
		c.RemoveSwap(i)
		c.version = p.version
	}
}

// rebuild recompiles the index from scratch, reusing existing capacity.
func (c *Compiled) rebuild(p *Problem) {
	n := len(p.Flows)
	total := 0
	custom := 0
	for i := range p.Flows {
		total += len(p.Flows[i].Route)
		if _, log := logWeight(p.Flows[i]); !log {
			custom++
		}
	}
	c.Routes = resizeInt32(c.Routes, total)[:0]
	c.Off = resizeInt32(c.Off, n)
	c.Len = resizeInt32(c.Len, n)
	c.Weights = resizeFloat64(c.Weights, n)
	c.Utils = nil
	c.numCustom = custom
	if custom > 0 {
		c.Utils = make([]Utility, n)
	}
	for i := range p.Flows {
		f := &p.Flows[i]
		c.Off[i] = int32(len(c.Routes))
		c.Len[i] = int32(len(f.Route))
		c.Routes = append(c.Routes, f.Route...)
		w, log := logWeight(*f)
		c.Weights[i] = w
		if !log {
			c.Utils[i] = f.Util
		}
	}
	c.dead = 0
	c.tvalid = false
	c.version = p.version
}

// AppendLog adds a log-utility flow of the given weight at the end of the
// index, copying route into the arena.
func (c *Compiled) AppendLog(route []int32, weight float64) {
	c.Off = append(c.Off, int32(len(c.Routes)))
	c.Len = append(c.Len, int32(len(route)))
	c.Routes = append(c.Routes, route...)
	c.Weights = append(c.Weights, weight)
	if c.Utils != nil {
		c.Utils = append(c.Utils, nil)
	}
	c.tvalid = false
}

// appendFlow adds one of the owning Problem's flows at the end of the index.
func (c *Compiled) appendFlow(f Flow) {
	w, log := logWeight(f)
	c.AppendLog(f.Route, w)
	if log {
		return
	}
	c.numCustom++
	if c.Utils == nil {
		// First custom utility: materialize the per-flow slice.
		c.Utils = make([]Utility, len(c.Off))
	}
	c.Utils[len(c.Off)-1] = f.Util
}

// RemoveSwap removes flow i by moving the last flow into its slot, leaving its
// route as a hole in the arena and compacting once holes outnumber live
// entries. Per-flow state kept in index order must apply the same swap.
func (c *Compiled) RemoveSwap(i int) {
	last := len(c.Off) - 1
	c.dead += int(c.Len[i])
	if c.Utils != nil && c.Utils[i] != nil {
		c.numCustom--
	}
	if i != last {
		c.Off[i] = c.Off[last]
		c.Len[i] = c.Len[last]
		c.Weights[i] = c.Weights[last]
		if c.Utils != nil {
			c.Utils[i] = c.Utils[last]
		}
	}
	c.Off = c.Off[:last]
	c.Len = c.Len[:last]
	c.Weights = c.Weights[:last]
	if c.Utils != nil {
		c.Utils[last] = nil
		if c.numCustom == 0 {
			// The last custom-utility flow is gone: drop the per-flow
			// slice so the monomorphized fast path re-engages.
			c.Utils = nil
		} else {
			c.Utils = c.Utils[:last]
		}
	}
	c.tvalid = false
	if live := len(c.Routes) - c.dead; c.dead > live && c.dead > CompactMinDead {
		c.compact()
	}
}

// Reset empties the index, keeping the capacity of its arrays.
func (c *Compiled) Reset() {
	c.Routes, c.Off, c.Len, c.Weights = c.Routes[:0], c.Off[:0], c.Len[:0], c.Weights[:0]
	c.Utils, c.numCustom, c.dead, c.tvalid = nil, 0, 0, false
}

// CompactMinDead is the minimum number of orphaned arena entries before a
// swap-delete considers compaction.
const CompactMinDead = 64

// compact rewrites the route arena without holes into the reused scratch
// buffer and swaps the two, updating Off in place, so steady-state churn
// allocates nothing once both buffers have grown to the working-set size.
func (c *Compiled) compact() {
	buf := c.routesScratch
	if live := len(c.Routes) - c.dead; cap(buf) < live {
		buf = make([]int32, 0, live)
	}
	buf = buf[:0]
	for i, o := range c.Off {
		c.Off[i] = int32(len(buf))
		buf = append(buf, c.Routes[o:o+c.Len[i]]...)
	}
	c.Routes, c.routesScratch, c.dead = buf, c.Routes[:0], 0
}

// NumFlows returns the number of flows in the index.
func (c *Compiled) NumFlows() int { return len(c.Off) }

// AllLog reports whether every flow is on the log-utility fast path.
func (c *Compiled) AllLog() bool { return c.Utils == nil }

// Route returns flow i's route as a slice into the arena (read-only).
func (c *Compiled) Route(i int) []int32 {
	o := c.Off[i]
	return c.Routes[o : o+c.Len[i]]
}

// utility returns flow i's utility, nil meaning the log fast path with weight
// Weights[i].
func (c *Compiled) utility(i int) Utility {
	if c.Utils == nil {
		return nil
	}
	return c.Utils[i]
}

// Transpose returns the link→flow index for numLinks links: link l is
// traversed by the flows flows[off[l]:off[l+1]]. It is rebuilt lazily after
// churn with a counting sort over the flow-major index.
func (c *Compiled) Transpose(numLinks int) (flows, off []int32) {
	if !c.tvalid || c.tNumLinks != numLinks {
		c.buildTranspose(numLinks)
	}
	return c.linkFlows, c.linkOff
}

func (c *Compiled) buildTranspose(numLinks int) {
	c.linkOff = resizeInt32(c.linkOff, numLinks+1)
	for i := range c.linkOff {
		c.linkOff[i] = 0
	}
	live := 0
	for i := range c.Off {
		for _, l := range c.Route(i) {
			c.linkOff[l+1]++
			live++
		}
	}
	for l := 0; l < numLinks; l++ {
		c.linkOff[l+1] += c.linkOff[l]
	}
	c.linkFlows = resizeInt32(c.linkFlows, live)
	cur := resizeInt32(c.cursorScratch, numLinks)
	copy(cur, c.linkOff[:numLinks])
	for i := range c.Off {
		for _, l := range c.Route(i) {
			c.linkFlows[cur[l]] = int32(i)
			cur[l]++
		}
	}
	c.cursorScratch = cur
	c.tNumLinks = numLinks
	c.tvalid = true
}

// resizeInt32 returns a slice of length n, reusing s's capacity when possible.
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// resizeFloat64 returns a slice of length n, reusing s's capacity.
func resizeFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
