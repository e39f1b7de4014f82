package fastpass

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Backlog returns the total number of packets waiting.
func (a *Arbiter) Backlog() int64 {
	var total int64
	for _, pair := range a.active {
		total += int64(a.backlog[pair[0]][pair[1]])
	}
	return total
}

func TestNewArbiterValidation(t *testing.T) {
	if _, err := NewArbiter(1); err == nil {
		t.Error("1-node arbiter accepted")
	}
	if _, err := NewArbiter(8); err != nil {
		t.Errorf("valid arbiter rejected: %v", err)
	}
}

func TestAddDemandValidation(t *testing.T) {
	a, _ := NewArbiter(4)
	if err := a.AddDemand(0, 0, 1); err == nil {
		t.Error("self demand accepted")
	}
	if err := a.AddDemand(-1, 2, 1); err == nil {
		t.Error("negative src accepted")
	}
	if err := a.AddDemand(0, 4, 1); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if err := a.AddDemand(0, 1, 0); err == nil {
		t.Error("zero packets accepted")
	}
	if err := a.AddDemand(0, 1, 3); err != nil {
		t.Errorf("valid demand rejected: %v", err)
	}
	if a.Backlog() != 3 {
		t.Errorf("Backlog = %d, want 3", a.Backlog())
	}
}

func TestTimeslotMatchingConstraints(t *testing.T) {
	a, _ := NewArbiter(4)
	// Two flows from the same source: only one can be admitted per slot.
	a.AddDemand(0, 1, 5)
	a.AddDemand(0, 2, 5)
	// Two flows to the same destination.
	a.AddDemand(2, 3, 5)
	a.AddDemand(1, 3, 5)
	for slot := 0; slot < 20; slot++ {
		matched := a.AllocateTimeslot()
		srcSeen := map[int32]bool{}
		dstSeen := map[int32]bool{}
		for _, pair := range matched {
			if srcSeen[pair[0]] {
				t.Fatalf("slot %d: source %d matched twice", slot, pair[0])
			}
			if dstSeen[pair[1]] {
				t.Fatalf("slot %d: destination %d matched twice", slot, pair[1])
			}
			srcSeen[pair[0]] = true
			dstSeen[pair[1]] = true
		}
	}
}

func TestAllDemandEventuallyServed(t *testing.T) {
	a, _ := NewArbiter(6)
	total := 0
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		src := rng.Intn(6)
		dst := rng.Intn(5)
		if dst >= src {
			dst++
		}
		n := 1 + rng.Intn(10)
		a.AddDemand(src, dst, n)
		total += n
	}
	allocated := 0
	for slot := 0; slot < 10000 && a.Backlog() > 0; slot++ {
		allocated += len(a.AllocateTimeslot())
	}
	if a.Backlog() != 0 {
		t.Fatalf("backlog %d remained after 10000 slots", a.Backlog())
	}
	if allocated != total {
		t.Errorf("allocated %d packets, want %d", allocated, total)
	}
}

func TestMatchingIsMaximalOnDisjointPairs(t *testing.T) {
	a, _ := NewArbiter(8)
	// Four disjoint pairs can all be admitted in one slot.
	a.AddDemand(0, 1, 1)
	a.AddDemand(2, 3, 1)
	a.AddDemand(4, 5, 1)
	a.AddDemand(6, 7, 1)
	matched := a.AllocateTimeslot()
	if len(matched) != 4 {
		t.Errorf("matched %d pairs, want 4 (maximal matching on disjoint pairs)", len(matched))
	}
}

func TestNoStarvationRoundRobin(t *testing.T) {
	a, _ := NewArbiter(3)
	// Two flows from the same source compete; both must make progress.
	a.AddDemand(0, 1, 100)
	a.AddDemand(0, 2, 100)
	for slot := 0; slot < 100; slot++ {
		a.AllocateTimeslot()
	}
	if a.Backlog() != 100 {
		t.Errorf("total backlog = %d, want 100 (one packet admitted per slot)", a.Backlog())
	}
	// Both destinations should have received a reasonable share.
	remaining1 := int(a.Backlog())
	_ = remaining1
	served := map[int]int{}
	a2, _ := NewArbiter(3)
	a2.AddDemand(0, 1, 100)
	a2.AddDemand(0, 2, 100)
	for slot := 0; slot < 100; slot++ {
		for _, pair := range a2.AllocateTimeslot() {
			served[int(pair[1])]++
		}
	}
	if served[1] < 20 || served[2] < 20 {
		t.Errorf("round-robin starved a destination: %v", served)
	}
}

// TestTimeslotProperty: per slot, admitted pairs never exceed min(#sources
// with demand, #destinations with demand), and the backlog decreases by the
// number of admitted packets.
func TestTimeslotProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 3 + rng.Intn(6)
		a, err := NewArbiter(nodes)
		if err != nil {
			return false
		}
		for i := 0; i < rng.Intn(15); i++ {
			src := rng.Intn(nodes)
			dst := rng.Intn(nodes - 1)
			if dst >= src {
				dst++
			}
			a.AddDemand(src, dst, 1+rng.Intn(5))
		}
		for slot := 0; slot < 50; slot++ {
			before := a.Backlog()
			matched := a.AllocateTimeslot()
			after := a.Backlog()
			if before-after != int64(len(matched)) {
				return false
			}
			if len(matched) > nodes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
