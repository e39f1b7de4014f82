package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestFlowBlockLocalLinkSpace is the property the shared kernels rest on: a
// FlowBlock's index holds every flow's route in the block's local link space —
// below downBase a position of the source block's upward LinkBlock, from
// downBase on a position of the destination block's downward one — and
// decoding it gives exactly the topology's route, link for link in route
// order (the order the kernels add prices in, which is the sequential
// solver's). Checked across seeded churn that swap-deletes rows from the
// middle of the blocks' indexes; downBase must also keep the down half of the
// local arrays off the up half's last cache line.
func TestFlowBlockLocalLinkSpace(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	n := topo.NumServers()
	for _, blocks := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("blocks=%d", blocks), func(t *testing.T) {
			pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: blocks, Normalize: true})
			if err != nil {
				t.Fatal(err)
			}
			defer pa.Close()
			for _, fb := range pa.fbs {
				nUp, nDown := len(pa.up[fb.srcBlock].links), len(pa.down[fb.dstBlock].links)
				if fb.downBase%cacheLineFloats != 0 || fb.downBase < nUp || fb.downBase >= nUp+cacheLineFloats {
					t.Fatalf("FlowBlock (%d,%d): downBase %d for %d upward links", fb.srcBlock, fb.dstBlock, fb.downBase, nUp)
				}
				for _, a := range [][]float64{fb.price, fb.load, fb.hdiag, fb.ratio} {
					if len(a) != fb.downBase+nDown {
						t.Fatalf("FlowBlock (%d,%d): local array of %d links, want %d", fb.srcBlock, fb.dstBlock, len(a), fb.downBase+nDown)
					}
					if addr := uintptr(unsafe.Pointer(&a[fb.downBase])); addr%(8*cacheLineFloats) != 0 {
						t.Fatalf("FlowBlock (%d,%d): the down half of a local array starts at %#x, inside a cache line", fb.srcBlock, fb.dstBlock, addr)
					}
				}
				if &fb.downLoad[0] != &fb.load[fb.downBase] || &fb.downHdiag[0] != &fb.hdiag[fb.downBase] ||
					&fb.upLoad[0] != &fb.load[0] || &fb.upHdiag[0] != &fb.hdiag[0] || len(fb.upLoad) != nUp || len(fb.downHdiag) != nDown {
					t.Fatalf("FlowBlock (%d,%d): up/down accumulators are not views of the local arrays", fb.srcBlock, fb.dstBlock)
				}
			}

			rng := rand.New(rand.NewSource(int64(blocks)))
			endpoints := map[FlowID][2]int{}
			var live []FlowID
			next := FlowID(1)
			start := func() {
				src := rng.Intn(n)
				dst := rng.Intn(n - 1)
				if dst >= src {
					dst++
				}
				if err := pa.FlowletStart(next, src, dst, 1); err != nil {
					t.Fatal(err)
				}
				endpoints[next] = [2]int{src, dst}
				live = append(live, next)
				next++
			}
			moved := 0 // swap-deletes that copied a block's last row into a gap
			end := func() {
				i := rng.Intn(len(live))
				if midRow(pa, live[i]) {
					moved++
				}
				if err := pa.FlowletEnd(live[i]); err != nil {
					t.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			check := func() {
				t.Helper()
				seen := 0
				for _, fb := range pa.fbs {
					up, down := pa.up[fb.srcBlock], pa.down[fb.dstBlock]
					for i, id := range fb.ids {
						var got []int32
						for _, l := range fb.csr.Route(i) {
							if int(l) < fb.downBase {
								got = append(got, int32(up.links[l]))
							} else {
								got = append(got, int32(down.links[int(l)-fb.downBase]))
							}
						}
						ep := endpoints[id]
						want, err := topo.RouteInto(nil, ep[0], ep[1], int(id))
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("flow %d (%d->%d) in FlowBlock (%d,%d) decodes to links %v, the topology routes it over %v",
								id, ep[0], ep[1], fb.srcBlock, fb.dstBlock, got, want)
						}
						seen++
					}
				}
				if seen != len(live) {
					t.Fatalf("FlowBlocks hold %d flows, %d are live", seen, len(live))
				}
			}

			for i := 0; i < 500; i++ {
				start()
			}
			check()
			for round := 0; round < 40; round++ {
				ends, starts := 30, 5
				if round >= 15 {
					ends, starts = 10, 25
				}
				for i := 0; i < ends && len(live) > 1; i++ {
					end()
				}
				for i := 0; i < starts; i++ {
					start()
				}
				pa.Iterate()
				check()
			}
			if moved == 0 {
				t.Error("the churn sequence never swap-deleted from the middle of a block's index")
			}
		})
	}
}

// midRow reports whether ending flow id swap-deletes it from the middle of its
// FlowBlock's index, so that the block's last row moves into the gap.
func midRow(pa *ParallelAllocator, id FlowID) bool {
	for _, fb := range pa.fbs {
		if i := slices.Index(fb.ids, id); i >= 0 {
			return i < len(fb.ids)-1
		}
	}
	return false
}

// TestFlowBlockArraysDoNotAlias pins layOut's placement of a FlowBlock's
// local link arrays: each starts on a cache line, none overlaps another, and
// no two start at the same offset in a 4 KiB page, so a store to load[l]
// never shares its low 12 address bits with the hdiag[l] read that follows
// it. The sizes cover the repository benchmark's one-block leaf-spine
// (1 536 + 1 536 links), strides a whole number of pages apart before the
// skew, and the ones the skew alone would leave half a page apart.
func TestFlowBlockArraysDoNotAlias(t *testing.T) {
	sizes := [][2]int{{1536, 1536}, {1, 0}, {3, 5}, {96, 96}, {1024, 1024}, {2048, 2048}, {112, 120}, {232, 8}, {496, 0}}
	for up := 0; up < 600; up += 37 {
		sizes = append(sizes, [2]int{up, 600 - up})
	}
	for _, sz := range sizes {
		for _, normalize := range []bool{false, true} {
			var fb flowBlock
			fb.layOut(sz[0], sz[1], normalize)
			arrays := [][]float64{fb.price, fb.load, fb.hdiag}
			if normalize {
				arrays = append(arrays, fb.ratio)
			}
			n := fb.downBase + sz[1]
			for i, a := range arrays {
				if len(a) != n || cap(a)%cacheLineFloats != 0 {
					t.Fatalf("%v: array %d has len %d cap %d, want len %d and whole cache lines", sz, i, len(a), cap(a), n)
				}
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
				if lo%(8*cacheLineFloats) != 0 {
					t.Fatalf("%v: array %d starts at %#x, inside a cache line", sz, i, lo)
				}
				for j, b := range arrays[:i] {
					blo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
					if lo%4096 == blo%4096 {
						t.Fatalf("%v: arrays %d and %d start at the same page offset %#x", sz, j, i, lo%4096)
					}
					if lo < blo+8*uintptr(cap(b)) && blo < lo+8*uintptr(cap(a)) {
						t.Fatalf("%v: arrays %d and %d overlap", sz, j, i)
					}
				}
			}
		}
	}
}
