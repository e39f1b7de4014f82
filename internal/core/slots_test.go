package core

import (
	"math/rand"
	"testing"
)

// TestParallelSlotTable runs a seeded start/end/SetFlows/Iterate sequence at
// 1, 2 and 4 blocks and checks the slot table after every operation: each
// live ID's slot is the one it was admitted with and locates that very flow,
// FlowAt reports each slot's flow as LiveFlows does, NumFlows is the live count, freed slots are reused so the table never
// outgrows the peak concurrent flow count, and every RateUpdate carries its
// flow's slot.
func TestParallelSlotTable(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	n := topo.NumServers()
	for _, blocks := range []int{1, 2, 4} {
		pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: blocks, Normalize: true})
		if err != nil {
			t.Fatal(err)
		}
		defer pa.Close()
		rng := rand.New(rand.NewSource(int64(blocks)))
		live := make(map[FlowID]int32) // the model: ID → slot it was given
		peak := 0
		var updates []RateUpdate
		check := func(op int, what string) {
			t.Helper()
			if got := pa.NumFlows(); got != len(live) {
				t.Fatalf("blocks %d op %d (%s): NumFlows = %d, model has %d", blocks, op, what, got, len(live))
			}
			for id, want := range live {
				slot, ok := pa.SlotOf(id)
				if !ok || slot != want {
					t.Fatalf("blocks %d op %d (%s): SlotOf(%d) = %d, %v; admitted at slot %d", blocks, op, what, id, slot, ok, want)
				}
				l := pa.slots[slot]
				if fb := pa.fbs[l.fb]; fb.ids[l.idx] != id || fb.slots[l.idx] != slot {
					t.Fatalf("blocks %d op %d (%s): slot %d locates flow %d (slot %d), want flow %d", blocks, op, what, slot, fb.ids[l.idx], fb.slots[l.idx], id)
				}
			}
			for _, f := range pa.LiveFlows() {
				if slot, _ := pa.SlotOf(f.ID); pa.FlowAt(slot) != f {
					t.Fatalf("blocks %d op %d (%s): FlowAt(%d) = %+v, LiveFlows reports %+v", blocks, op, what, slot, pa.FlowAt(slot), f)
				}
			}
			if len(pa.slots) != peak || len(pa.slots) != len(live)+len(pa.freeSlots) {
				t.Fatalf("blocks %d op %d (%s): %d slots (%d free) for %d flows, peak %d", blocks, op, what, len(pa.slots), len(pa.freeSlots), len(live), peak)
			}
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 50: // start, sometimes a duplicate
				id := FlowID(rng.Intn(400))
				src := rng.Intn(n)
				dst := (src + 1 + rng.Intn(n-1)) % n
				err := pa.FlowletStart(id, src, dst, 1)
				if _, dup := live[id]; dup != (err != nil) {
					t.Fatalf("blocks %d op %d: FlowletStart(%d) = %v with the flow registered: %v", blocks, op, id, err, dup)
				}
				if err == nil {
					live[id], _ = pa.SlotOf(id)
					peak = max(peak, len(live))
				}
				check(op, "start")
			case r < 90: // end, sometimes an unknown ID
				id := FlowID(rng.Intn(400))
				_, ok := live[id]
				if err := pa.FlowletEnd(id); ok != (err == nil) {
					t.Fatalf("blocks %d op %d: FlowletEnd(%d) = %v with the flow registered: %v", blocks, op, id, err, ok)
				}
				delete(live, id)
				check(op, "end")
			case r < 92: // bulk reload: slots restart at 0 in order
				flows := randomParallelFlows(n, rng.Intn(200), rng.Int63())
				if err := pa.SetFlows(flows); err != nil {
					t.Fatal(err)
				}
				clear(live)
				for i, f := range flows {
					live[f.ID] = int32(i)
				}
				peak = len(flows)
				check(op, "SetFlows")
			default:
				pa.Iterate()
				updates = pa.AppendUpdates(0.01, updates[:0])
				for _, u := range updates {
					if slot, ok := pa.SlotOf(u.Flow); !ok || u.Slot != slot {
						t.Fatalf("blocks %d op %d: update for flow %d carries slot %d, SlotOf = %d, %v", blocks, op, u.Flow, u.Slot, slot, ok)
					}
				}
				check(op, "iterate")
			}
		}
	}
}
