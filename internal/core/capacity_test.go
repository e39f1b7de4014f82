package core

import (
	"math"
	"testing"

	"repro/internal/num"
)

// TestParallelSetLinkCapacityMatchesSequential checks the LinkBlock in-place
// capacity mutation against the sequential NED reference with the same
// mid-run mutation: the partitioned solver must track the re-priced problem
// exactly, without any rebuild.
func TestParallelSetLinkCapacityMatchesSequential(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	flows := randomParallelFlows(topo.NumServers(), 300, 3)
	link, ok := topo.UplinkID(0, 1)
	if !ok {
		t.Fatal("no uplink rack 0 → spine 1")
	}
	newCap := topo.Link(link).Capacity / 4
	const pre, post = 15, 15

	// Sequential reference with the same mutation at the same iteration.
	prob := num.Problem{Capacities: topo.Capacities(), MaxFlowRate: topo.Config().LinkCapacity}
	for _, f := range flows {
		route, err := topo.Route(f.Src, f.Dst, int(f.ID))
		if err != nil {
			t.Fatal(err)
		}
		links := make([]int32, len(route))
		for i, l := range route {
			links[i] = int32(l)
		}
		prob.Flows = append(prob.Flows, num.Flow{
			Route:  links,
			Weight: topo.Config().LinkCapacity,
		})
	}
	st := num.NewState(&prob)
	ned := &num.NED{Gamma: 1}
	for i := 0; i < pre; i++ {
		ned.Step(&prob, st)
	}
	if err := prob.SetCapacity(int(link), newCap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < post; i++ {
		ned.Step(&prob, st)
	}
	want := make(map[FlowID]float64, len(flows))
	for i, f := range flows {
		want[f.ID] = st.Rates[i]
	}

	for _, blocks := range []int{1, 2} {
		pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: blocks, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := pa.SetFlows(flows); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pre; i++ {
			pa.Iterate()
		}
		if err := pa.SetLinkCapacity(link, newCap); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < post; i++ {
			pa.Iterate()
		}
		got := pa.Rates()
		pa.Close()
		for id, w := range want {
			if w == 0 {
				continue
			}
			if g := got[id]; math.Abs(g-w)/w > 1e-9 {
				t.Fatalf("blocks=%d: flow %d rate %.9g differs from sequential %.9g after capacity cut", blocks, id, g, w)
			}
		}
	}
}

func TestParallelSetLinkCapacityRejectsBadInput(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	if err := pa.SetLinkCapacity(-1, 1e9); err == nil {
		t.Error("negative link accepted")
	}
	if err := pa.SetLinkCapacity(0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := pa.SetLinkCapacity(0, math.NaN()); err == nil {
		t.Error("NaN capacity accepted")
	}
}
