package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/topology"
)

// condBarrier is the former sync.Cond-based cyclic barrier, kept as the
// baseline for BenchmarkBarrier: every wait takes the mutex, and every
// release goes through a kernel-assisted broadcast, which costs µs-scale
// wakeups between the allocator's phases.
type condBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newCondBarrier(n int) *condBarrier {
	b := &condBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *condBarrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// BenchmarkBarrier compares one full barrier round (all parties arrive and
// are released) of the sense-reversing atomic barrier against the former
// sync.Cond implementation, at the allocator's worker counts on 2- and 4-core
// hosts (W = min(FlowBlocks, GOMAXPROCS)).
func BenchmarkBarrier(b *testing.B) {
	for _, parties := range []int{2, 4} {
		run := func(wait func()) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				var wg sync.WaitGroup
				for p := 0; p < parties-1; p++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							wait()
						}
					}()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					wait()
				}
				wg.Wait()
			}
		}
		b.Run(fmt.Sprintf("sense-reversing/parties=%d", parties), run(newBarrier(parties).wait))
		b.Run(fmt.Sprintf("cond/parties=%d", parties), run(newCondBarrier(parties).wait))
	}
}

// benchChurnTopo is the fabric shared by the churn benchmarks: 16 racks of
// 32 servers behind 8 spines.
func benchChurnTopo(b *testing.B) *topology.Topology {
	b.Helper()
	topo, err := topology.NewTwoTier(topology.Config{
		Racks:          16,
		ServersPerRack: 32,
		Spines:         8,
		LinkCapacity:   10e9,
		LinkDelay:      1e-6,
	})
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// benchFlow derives deterministic distinct endpoints from a flow ID.
func benchFlow(id FlowID, numServers int) ParallelFlow {
	src := int(id*7) % numServers
	dst := int(id*7+11) % numServers
	if dst == src {
		dst = (dst + 1) % numServers
	}
	return ParallelFlow{ID: id, Src: src, Dst: dst, Weight: 1}
}

// TestChurnAllocFree pins the allocation-free churn property on both engines:
// once the route indexes (and the sequential allocator's recycled route
// slices) are warm, a steady-state FlowletEnd+FlowletStartSized pair performs
// zero heap allocations. Routing is table lookups into scratch
// (topology.RouteInto), so nothing here depends on which endpoints or ECMP
// classes were seen before.
func TestChurnAllocFree(t *testing.T) {
	topo, err := topology.NewTwoTier(topology.Config{
		Racks: 4, ServersPerRack: 8, Spines: 2, LinkCapacity: 10e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumServers()
	seq, err := NewAllocator(Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	engines := map[string]interface {
		FlowletStartSized(id FlowID, src, dst int, weight float64, size int64) error
		FlowletEnd(id FlowID) error
	}{"sequential": seq, "parallel": pa}
	for name, eng := range engines {
		t.Run(name, func(t *testing.T) {
			const base = 512
			oldest, next := FlowID(0), FlowID(0)
			start := func() {
				f := benchFlow(next, n)
				if err := eng.FlowletStartSized(f.ID, f.Src, f.Dst, f.Weight, 1<<20); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for next < base {
				start()
			}
			churn := func() {
				if err := eng.FlowletEnd(oldest); err != nil {
					t.Fatal(err)
				}
				oldest++
				start()
			}
			// Cycle the whole window a few times to size the route indexes
			// and the per-flow columns.
			for i := 0; i < 4*base; i++ {
				churn()
			}
			if avg := testing.AllocsPerRun(200, churn); avg != 0 {
				t.Fatalf("steady-state churn allocates %.1f objects per start/end pair, want 0", avg)
			}
		})
	}
}

// BenchmarkParallelChurn measures one daemon-realistic iteration boundary —
// a burst of flowlet starts and ends folded in, then one parallel iteration —
// through the incremental FlowletStart/FlowletEnd path versus the former
// full-rebuild (SetFlows of the whole live set) baseline. The churn itself is
// allocation-free (TestChurnAllocFree asserts exactly that), so -benchmem
// here shows only the iteration path.
func BenchmarkParallelChurn(b *testing.B) {
	const (
		blocks     = 2
		baseFlows  = 8192
		churnBurst = 32 // starts + ends folded in per iteration
	)
	topo := benchChurnTopo(b)
	n := topo.NumServers()
	setup := func(b *testing.B) (*ParallelAllocator, []ParallelFlow) {
		b.Helper()
		pa, err := NewParallelAllocator(ParallelConfig{
			Topology: topo, Blocks: blocks, Gamma: 1, Normalize: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		flows := make([]ParallelFlow, baseFlows)
		for i := range flows {
			flows[i] = benchFlow(FlowID(i), n)
		}
		if err := pa.SetFlows(flows); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			pa.Iterate()
		}
		return pa, flows
	}

	b.Run("incremental", func(b *testing.B) {
		pa, _ := setup(b)
		defer pa.Close()
		oldest, next := FlowID(0), FlowID(baseFlows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < churnBurst; k++ {
				if err := pa.FlowletEnd(oldest); err != nil {
					b.Fatal(err)
				}
				oldest++
				f := benchFlow(next, n)
				if err := pa.FlowletStart(f.ID, f.Src, f.Dst, f.Weight); err != nil {
					b.Fatal(err)
				}
				next++
			}
			pa.Iterate()
		}
	})

	b.Run("boundary", func(b *testing.B) {
		// The multicore shard's per-exchange cost on top of plain iteration:
		// export the digest for the fabric links, fold a peer's external
		// loads and pinned prices back in, then iterate. This is exactly the
		// extra work a sharded daemon adds per exchange interval when its
		// engine is the ParallelAllocator.
		pa, _ := setup(b)
		defer pa.Close()
		var fabric []topology.LinkID
		for l := 0; l < topo.NumLinks(); l++ {
			link := topo.Link(topology.LinkID(l))
			if topo.Node(link.Src).Kind != topology.Server &&
				topo.Node(link.Dst).Kind != topology.Server {
				fabric = append(fabric, topology.LinkID(l))
			}
		}
		loads := make([]float64, len(fabric))
		hdiag := make([]float64, len(fabric))
		prices := make([]float64, len(fabric))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pa.BoundaryDigest(fabric, loads, hdiag)
			pa.LinkPrices(fabric, prices)
			// Feed the digest back as if it were a peer's: realistic sizes,
			// zero net effect on convergence, no per-iteration drift.
			pa.SetExternalLoads(fabric, loads, hdiag)
			pa.PinPrices(fabric[:len(fabric)/2], prices[:len(fabric)/2])
			pa.Iterate()
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		pa, flows := setup(b)
		defer pa.Close()
		// The former engine's shadow state: the live list plus an ID
		// index, reloaded wholesale on churn.
		index := make(map[FlowID]int, len(flows))
		for i, f := range flows {
			index[f.ID] = i
		}
		oldest, next := FlowID(0), FlowID(baseFlows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < churnBurst; k++ {
				idx := index[oldest]
				last := len(flows) - 1
				if idx != last {
					flows[idx] = flows[last]
					index[flows[idx].ID] = idx
				}
				flows = flows[:last]
				delete(index, oldest)
				oldest++
				index[next] = len(flows)
				flows = append(flows, benchFlow(next, n))
				next++
			}
			if err := pa.SetFlows(flows); err != nil {
				b.Fatal(err)
			}
			pa.Iterate()
		}
	})
}
