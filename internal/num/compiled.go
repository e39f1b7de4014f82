package num

import "slices"

// This file implements the compiled problem representation: a flat,
// cache-friendly CSR (compressed-sparse-row) layout of the flow→link
// incidence that the solver hot loops iterate over instead of chasing one
// heap-allocated Route slice and one Utility interface per flow.
//
// Layout. All routes live in one array of fixed-stride rows (Routes; the
// ELLPACK variant of CSR, with the offsets array replaced by i*Stride): flow
// i's route is Routes[i*Stride : i*Stride+Len[i]], and the rest of its row is
// zero. Stride is the longest route the index has held since it was last
// emptied; a longer route re-lays every row out once. Routes on one fabric
// differ in length by a few links at most, so the padding costs less than the
// offsets array and the holes of a concatenated arena would. Per-flow
// log-utility weights are stored densely in Weights so the common LogUtility
// case runs a branch-free, interface-free inner loop; problems that mix in
// custom utilities carry a parallel Utils slice and fall back to interface
// dispatch only for the flows that need it. A transposed link→flow index
// (LinkFlows/LinkOff) is built lazily for link-major consumers.
//
// Churn. The layout supports O(Stride) swap-delete and append, mirroring the
// allocator's FlowletStart/FlowletEnd, so the index is maintained
// incrementally across flowlet churn instead of being rebuilt per iteration.
// A swap-delete copies the last row into the gap, like every other per-flow
// column, so the rows never have holes and Routes is exactly NumFlows rows.

// Compiled is the compiled CSR form of a flow set. A Problem's is obtained
// with Problem.Compiled and kept in sync by the Problem's own mutators; the
// zero value is an empty index that no Problem owns, maintained by its owner
// with AppendLog, RemoveSwap and Reset (core.ParallelAllocator keeps one per
// FlowBlock). All exported fields and the slices they contain must be treated
// as read-only.
type Compiled struct {
	// Routes holds one row of Stride link indices per flow: flow i
	// traverses Routes[i*Stride : i*Stride+Len[i]].
	Routes []int32
	// Stride is the row length, the longest route held since the index
	// was last emptied.
	Stride int
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
	numCustom int      // flows with a non-LogUtility utility

	// Lazily built transpose: link l is traversed by the flows
	// linkFlows[linkOff[l]:linkOff[l+1]].
	linkFlows []int32
	linkOff   []int32
	tNumLinks int
	tvalid    bool

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
	} else if len(c.Len) == len(p.Flows) && c.version == p.version {
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
	sync := c != nil && c.owner == p && len(c.Len) == len(p.Flows) && c.version == p.version
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
	sync := c != nil && c.owner == p && len(c.Len) == len(p.Flows) && c.version == p.version
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
	c.Reset()
	for _, f := range p.Flows {
		c.appendFlow(f)
	}
	c.version = p.version
}

// AppendLog adds a log-utility flow of the given weight at the end of the
// index, copying route into a new row.
func (c *Compiled) AppendLog(route []int32, weight float64) {
	if len(route) > c.Stride {
		c.restride(len(route))
	}
	o := len(c.Routes)
	c.Routes = slices.Grow(c.Routes, c.Stride)[:o+c.Stride]
	clear(c.Routes[o+copy(c.Routes[o:], route):])
	c.Len = append(c.Len, int32(len(route)))
	c.Weights = append(c.Weights, weight)
	if c.Utils != nil {
		c.Utils = append(c.Utils, nil)
	}
	c.tvalid = false
}

// restride widens every row to stride, moving the rows back to front so each
// lands at or beyond where it was, and zeroing the added tails.
func (c *Compiled) restride(stride int) {
	old, n := c.Stride, len(c.Len)
	c.Routes = slices.Grow(c.Routes, n*(stride-old))[:n*stride]
	for i := n - 1; i >= 0; i-- {
		row := c.Routes[i*stride : (i+1)*stride]
		copy(row, c.Routes[i*old:(i+1)*old])
		clear(row[old:])
	}
	c.Stride = stride
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
		c.Utils = make([]Utility, len(c.Len))
	}
	c.Utils[len(c.Len)-1] = f.Util
}

// RemoveSwap removes flow i by copying the last flow's row and columns into
// its slot. Per-flow state kept in index order must apply the same swap.
func (c *Compiled) RemoveSwap(i int) {
	last := len(c.Len) - 1
	if c.Utils != nil && c.Utils[i] != nil {
		c.numCustom--
	}
	if i != last {
		copy(c.Routes[i*c.Stride:(i+1)*c.Stride], c.Routes[last*c.Stride:])
		c.Len[i] = c.Len[last]
		c.Weights[i] = c.Weights[last]
		if c.Utils != nil {
			c.Utils[i] = c.Utils[last]
		}
	}
	c.Routes = c.Routes[:last*c.Stride]
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
}

// Reset empties the index, keeping the capacity of its arrays.
func (c *Compiled) Reset() {
	c.Routes, c.Len, c.Weights = c.Routes[:0], c.Len[:0], c.Weights[:0]
	c.Stride, c.Utils, c.numCustom, c.tvalid = 0, nil, 0, false
}

// NumFlows returns the number of flows in the index.
func (c *Compiled) NumFlows() int { return len(c.Len) }

// AllLog reports whether every flow is on the log-utility fast path.
func (c *Compiled) AllLog() bool { return c.Utils == nil }

// Route returns flow i's route as a slice into its row (read-only).
func (c *Compiled) Route(i int) []int32 {
	o := i * c.Stride
	return c.Routes[o : o+int(c.Len[i])]
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
	for i := range c.Len {
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
	for i := range c.Len {
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
