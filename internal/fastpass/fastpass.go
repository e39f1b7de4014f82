package fastpass

import (
	"fmt"
)

// Demand is the backlog of one source-destination pair in packets.
type Demand struct {
	Src, Dst int
	Packets  int
}

// Arbiter allocates packet timeslots with a greedy maximal matching, the
// same core operation as Fastpass's timeslot allocator.
type Arbiter struct {
	numNodes int

	// backlog[src][dst] is the number of packets waiting.
	backlog [][]int32
	// active lists (src,dst) pairs with a non-zero backlog, in round-robin
	// order to avoid starving any pair.
	active [][2]int32
	// pairIndex maps src*numNodes+dst to its position in active, or -1.
	pairIndex []int32

	srcBusy []bool
	dstBusy []bool
}

// NewArbiter creates an arbiter for numNodes endpoints.
func NewArbiter(numNodes int) (*Arbiter, error) {
	if numNodes < 2 {
		return nil, fmt.Errorf("fastpass: need at least 2 nodes, got %d", numNodes)
	}
	a := &Arbiter{
		numNodes:  numNodes,
		backlog:   make([][]int32, numNodes),
		pairIndex: make([]int32, numNodes*numNodes),
		srcBusy:   make([]bool, numNodes),
		dstBusy:   make([]bool, numNodes),
	}
	for i := range a.backlog {
		a.backlog[i] = make([]int32, numNodes)
	}
	for i := range a.pairIndex {
		a.pairIndex[i] = -1
	}
	return a, nil
}

// AddDemand adds packets to a pair's backlog.
func (a *Arbiter) AddDemand(src, dst, packets int) error {
	if src < 0 || src >= a.numNodes || dst < 0 || dst >= a.numNodes || src == dst {
		return fmt.Errorf("fastpass: invalid pair (%d,%d)", src, dst)
	}
	if packets <= 0 {
		return fmt.Errorf("fastpass: packets must be positive, got %d", packets)
	}
	key := src*a.numNodes + dst
	if a.backlog[src][dst] == 0 && a.pairIndex[key] < 0 {
		a.pairIndex[key] = int32(len(a.active))
		a.active = append(a.active, [2]int32{int32(src), int32(dst)})
	}
	a.backlog[src][dst] += int32(packets)
	return nil
}

// AllocateTimeslot computes one timeslot's maximal matching and returns the
// admitted (src,dst) pairs. The returned slice is valid until the next call.
func (a *Arbiter) AllocateTimeslot() [][2]int32 {
	for i := range a.srcBusy {
		a.srcBusy[i] = false
		a.dstBusy[i] = false
	}
	matched := a.active[:0:0]
	var requeue [][2]int32
	// Greedy maximal matching over active pairs in round-robin order:
	// pairs served this slot move to the back of the order so competing
	// pairs sharing a source or destination are not starved.
	w := 0
	for _, pair := range a.active {
		src, dst := pair[0], pair[1]
		if a.backlog[src][dst] == 0 {
			a.pairIndex[int(src)*a.numNodes+int(dst)] = -1
			continue
		}
		if a.srcBusy[src] || a.dstBusy[dst] {
			// Keep the pair near the front for the next timeslot.
			a.active[w] = pair
			a.pairIndex[int(src)*a.numNodes+int(dst)] = int32(w)
			w++
			continue
		}
		a.srcBusy[src] = true
		a.dstBusy[dst] = true
		a.backlog[src][dst]--
		matched = append(matched, pair)
		if a.backlog[src][dst] > 0 {
			requeue = append(requeue, pair)
		} else {
			a.pairIndex[int(src)*a.numNodes+int(dst)] = -1
		}
	}
	a.active = a.active[:w]
	for _, pair := range requeue {
		a.pairIndex[int(pair[0])*a.numNodes+int(pair[1])] = int32(len(a.active))
		a.active = append(a.active, pair)
	}
	return matched
}
