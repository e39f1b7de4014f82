package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/topology"
)

// admissionEngine is the slice of either allocator the admission test drives.
type admissionEngine struct {
	start    func(id FlowID, src, dst int, weight float64) error
	iterate  func()
	numFlows func() int
	// live exports the registrations (nil for the sequential allocator,
	// which keeps none).
	live func() []ParallelFlow
	// bits returns every flow's rate in ID order followed by every link's
	// price in LinkID order, as IEEE bit patterns.
	bits func() []uint64
}

func newAdmissionEngines(t *testing.T, topo *topology.Topology) map[string]admissionEngine {
	t.Helper()
	flatten := func(rates map[FlowID]float64, price func(topology.LinkID) float64) []uint64 {
		ids := make([]FlowID, 0, len(rates))
		for id := range rates {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		var out []uint64
		for _, id := range ids {
			out = append(out, math.Float64bits(rates[id]))
		}
		for l := 0; l < topo.NumLinks(); l++ {
			out = append(out, math.Float64bits(price(topology.LinkID(l))))
		}
		return out
	}
	seq := newTestAllocator(t, Config{Topology: topo})
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2, Gamma: 0.4, Headroom: 0.01, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pa.Close)
	return map[string]admissionEngine{
		"sequential": {
			start:    seq.FlowletStart,
			iterate:  func() { seq.Iterate() },
			numFlows: seq.NumFlows,
			bits: func() []uint64 {
				return flatten(seq.Rates(), func(l topology.LinkID) float64 { return seq.state.Prices[l] })
			},
		},
		"parallel": {
			start:    pa.FlowletStart,
			iterate:  pa.Iterate,
			numFlows: pa.NumFlows,
			live:     pa.LiveFlows,
			bits: func() []uint64 {
				prices := pa.Prices()
				return flatten(pa.Rates(), func(l topology.LinkID) float64 {
					if p, ok := prices[l]; ok {
						return p
					}
					return 1 // allocator uplinks: in no LinkBlock, never priced
				})
			},
		},
	}
}

// TestWeightAdmission is the regression test for a FlowletAdd frame's weight
// reaching the solver unchecked: one flow of weight NaN turned the prices of
// its links, and with them every flow sharing one, into NaN for good — ending
// the flow did not help — and the parallel engine kept a negative weight and
// allocated a negative rate. Both engines now apply admitWeight: a weight that
// is not finite (or not finite once capacity-scaled) is refused and leaves no
// trace — the engine stays bit-identical to a twin that never saw the frame —
// and a weight <= 0 is the default weight 1.
func TestWeightAdmission(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	hit := newAdmissionEngines(t, topo)
	twin := newAdmissionEngines(t, topo)
	for name, e := range hit {
		t.Run(name, func(t *testing.T) {
			w := twin[name]
			run := func(e admissionEngine, iters int) {
				for i := 0; i < iters; i++ {
					e.iterate()
				}
			}
			// Two flows sharing server 9's downlink, one of them from another
			// block, converged to half of it each.
			for _, e := range []admissionEngine{e, w} {
				if err := e.start(1, 0, 9, 1); err != nil {
					t.Fatal(err)
				}
				if err := e.start(2, 40, 9, 1); err != nil {
					t.Fatal(err)
				}
				run(e, 20)
			}
			for _, weight := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
				if err := e.start(3, 2, 9, weight); err == nil {
					t.Errorf("FlowletStart accepted weight %v", weight)
				}
				if n := e.numFlows(); n != 2 {
					t.Fatalf("%d live flows after refusing weight %v, want 2", n, weight)
				}
				run(e, 5)
				run(w, 5)
				if got, want := e.bits(), w.bits(); !slices.Equal(got, want) {
					t.Fatalf("refusing weight %v left a trace: rates and prices differ from an engine that never saw it", weight)
				}
			}
			// A negative weight is the default weight.
			if err := e.start(3, 2, 9, -1); err != nil {
				t.Fatalf("weight -1 refused: %v", err)
			}
			if err := w.start(3, 2, 9, 1); err != nil {
				t.Fatal(err)
			}
			if e.live != nil {
				if live := e.live(); !slices.Equal(live, w.live()) {
					t.Errorf("live flows %+v: weight -1 should be recorded as weight 1", live)
				}
			}
			// The first iteration with the flow already allocates it as
			// weight 1, on either engine.
			run(e, 1)
			run(w, 1)
			if !slices.Equal(e.bits(), w.bits()) {
				t.Error("weight -1 is not registered as weight 1: first iteration differs")
			}
			run(e, 19)
			run(w, 19)
			got := e.bits()
			if !slices.Equal(got, w.bits()) {
				t.Error("weight -1 allocates differently from weight 1")
			}
			for i, b := range got {
				if v := math.Float64frombits(b); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("value %d of rates+prices is %v", i, v)
				}
			}
		})
	}
}
