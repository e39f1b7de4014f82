package core

import (
	"math/bits"
	"math/rand/v2"
)

// FlowIndex maps a FlowID to a non-negative int32: the one flow table on the
// control path, used by the allocator for slots and by the endpoint for its
// registrations. It is an open-addressed table with linear probing and
// backward-shift deletion, so there are no tombstones: a constant live count
// under FIFO churn never grows or rehashes it, and a probe touches one or two
// adjacent 16-byte entries where a Go map reads a group's control word and
// then a slot, about two cache lines. The hash is seeded per index, so keys a client chooses
// cannot be aimed at collisions in the daemon. There is no iteration API, so
// table order can never leak into output, and the table never shrinks.
//
// The zero value is an empty index ready to use. A FlowIndex is not safe for
// concurrent use.
type FlowIndex struct {
	tab  []flowIndexEntry // power-of-two length; nil until the first Put
	n    int              // live entries
	seed uint64
}

// flowIndexEntry is one table slot. v holds the stored value plus one, so the
// zero entry is empty; h is id's hash, kept in what would be padding so that
// deletion and growth find an entry's home without rehashing its ID.
type flowIndexEntry struct {
	id FlowID
	v  int32
	h  uint32
}

// minFlowIndexCap is the table length the first Put allocates.
const minFlowIndexCap = 16

// Len returns the number of entries.
func (x *FlowIndex) Len() int { return x.n }

// hash returns id's hash; its low bits are its home in any table of up to
// 2³² slots.
func (x *FlowIndex) hash(id FlowID) uint32 {
	hi, lo := bits.Mul64(uint64(id)^x.seed, 0x9E3779B97F4A7C15)
	return uint32(hi ^ lo)
}

// home returns id's preferred table position.
func (x *FlowIndex) home(id FlowID) int {
	return int(x.hash(id)) & (len(x.tab) - 1)
}

// find returns the table position of id's entry, and false if it has none.
func (x *FlowIndex) find(id FlowID) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := len(x.tab) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		e := &x.tab[i]
		if e.v == 0 {
			return 0, false
		}
		if e.id == id {
			return i, true
		}
	}
}

// Get returns the value stored for id, and false if id has no entry.
func (x *FlowIndex) Get(id FlowID) (int32, bool) {
	i, ok := x.find(id)
	if !ok {
		return 0, false
	}
	return x.tab[i].v - 1, true
}

// Put stores v (which must be non-negative) for id, replacing any previous
// value. The table doubles before a new entry would take it past 3/4 load.
func (x *FlowIndex) Put(id FlowID, v int32) {
	if v < 0 {
		panic("core: FlowIndex.Put of a negative value")
	}
	if 4*(x.n+1) > 3*len(x.tab) {
		if _, ok := x.find(id); !ok {
			x.grow()
		}
	}
	x.put(id, x.hash(id), v+1)
}

// GetOrPut returns the value stored for id and true if id has an entry;
// otherwise it stores v (which must be non-negative) for id and returns v and
// false. Either way it is one probe, plus a reinsertion of every entry when
// the new one doubles the table.
func (x *FlowIndex) GetOrPut(id FlowID, v int32) (int32, bool) {
	if v < 0 {
		panic("core: FlowIndex.GetOrPut of a negative value")
	}
	if x.tab == nil {
		x.grow()
	}
	mask := len(x.tab) - 1
	h := x.hash(id)
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := &x.tab[i]
		if e.v == 0 {
			if 4*(x.n+1) > 3*len(x.tab) {
				x.grow()
				x.put(id, h, v+1)
			} else {
				*e = flowIndexEntry{id: id, v: v + 1, h: h}
				x.n++
			}
			return v, false
		}
		if e.id == id {
			return e.v - 1, true
		}
	}
}

// put stores the biased value v1 = v+1 for id, whose hash is h, in a table
// with a free slot.
func (x *FlowIndex) put(id FlowID, h uint32, v1 int32) {
	mask := len(x.tab) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := &x.tab[i]
		if e.v == 0 {
			*e = flowIndexEntry{id: id, v: v1, h: h}
			x.n++
			return
		}
		if e.id == id {
			e.v = v1
			return
		}
	}
}

// grow doubles the table (allocating the first one and its seed) and
// reinserts every entry.
func (x *FlowIndex) grow() {
	old := x.tab
	if old == nil {
		x.seed = rand.Uint64()
	}
	x.tab = make([]flowIndexEntry, max(2*len(old), minFlowIndexCap))
	x.n = 0
	for _, e := range old {
		if e.v != 0 {
			x.put(e.id, e.h, e.v)
		}
	}
}

// Delete removes id's entry, if any.
func (x *FlowIndex) Delete(id FlowID) {
	if i, ok := x.find(id); ok {
		x.deleteAt(i)
	}
}

// Take removes id's entry and returns the value it held, and false if id had
// none: Get and Delete in one probe.
func (x *FlowIndex) Take(id FlowID) (int32, bool) {
	i, ok := x.find(id)
	if !ok {
		return 0, false
	}
	v := x.tab[i].v - 1
	x.deleteAt(i)
	return v, true
}

// deleteAt empties table position i. The entries after it in its probe run
// shift back into the hole, so every remaining key stays reachable from its
// home without a tombstone.
func (x *FlowIndex) deleteAt(i int) {
	mask := len(x.tab) - 1
	// i is the hole. An entry further along the run moves into it unless its
	// home lies cyclically in (i, j], where moving it would put it before its
	// home.
	for j := (i + 1) & mask; x.tab[j].v != 0; j = (j + 1) & mask {
		// The hole's contents are dead, so the copy is unconditional and
		// only the hole's position depends on the comparison.
		x.tab[i] = x.tab[j]
		if (j-int(x.tab[j].h))&mask >= (j-i)&mask {
			i = j
		}
	}
	x.tab[i] = flowIndexEntry{}
	x.n--
}

// Clear removes every entry, keeping the table's capacity and seed.
func (x *FlowIndex) Clear() {
	clear(x.tab)
	x.n = 0
}
