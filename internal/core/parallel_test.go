package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/num"
	"repro/internal/topology"
)

// parallelTestTopo builds a small fabric whose rack count is divisible by the
// requested block counts.
func parallelTestTopo(t *testing.T, racks int) *topology.Topology {
	t.Helper()
	topo, err := topology.NewTwoTier(topology.Config{
		Racks:          racks,
		ServersPerRack: 8,
		Spines:         4,
		LinkCapacity:   10e9,
		LinkDelay:      1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNewParallelAllocatorValidation(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	if _, err := NewParallelAllocator(ParallelConfig{Blocks: 2}); err == nil {
		t.Error("missing topology accepted")
	}
	if _, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 0}); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 3}); err == nil {
		t.Error("non-power-of-two blocks accepted")
	}
	if _, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 16}); err == nil {
		t.Error("blocks not dividing racks accepted")
	}
	// Each numeric bound is written so that a NaN, which compares false both
	// ways, fails it.
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []ParallelConfig{
		{Gamma: -1}, {Gamma: nan}, {Gamma: inf}, {Gamma: -inf},
		{Headroom: nan}, {Headroom: -0.01}, {Headroom: 1},
	} {
		bad.Topology, bad.Blocks = topo, 1
		if _, err := NewParallelAllocator(bad); err == nil {
			t.Errorf("Gamma %v, Headroom %v accepted", bad.Gamma, bad.Headroom)
		}
	}
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	if want := min(16, runtime.GOMAXPROCS(0)); pa.NumWorkers() != want {
		t.Errorf("NumWorkers = %d, want min(16 FlowBlocks, GOMAXPROCS) = %d", pa.NumWorkers(), want)
	}
	if pa.AggregationSteps() != 2 {
		t.Errorf("AggregationSteps = %d, want 2", pa.AggregationSteps())
	}
}

// randomParallelFlows draws distinct-endpoint flows.
func randomParallelFlows(numServers, count int, seed int64) []ParallelFlow {
	rng := rand.New(rand.NewSource(seed))
	flows := make([]ParallelFlow, count)
	for i := range flows {
		src := rng.Intn(numServers)
		dst := rng.Intn(numServers - 1)
		if dst >= src {
			dst++
		}
		flows[i] = ParallelFlow{ID: FlowID(i), Src: src, Dst: dst, Weight: 1}
	}
	return flows
}

// sequentialReference runs the sequential NED solver on the same flows and
// returns rates keyed by flow ID after the given number of iterations.
func sequentialReference(t *testing.T, topo *topology.Topology, flows []ParallelFlow, iters int) map[FlowID]float64 {
	t.Helper()
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
			Route: links,
			Util:  num.LogUtility{W: topo.Config().LinkCapacity},
		})
	}
	st := num.NewState(&prob)
	ned := &num.NED{Gamma: 1}
	for i := 0; i < iters; i++ {
		ned.Step(&prob, st)
	}
	out := make(map[FlowID]float64, len(flows))
	for i, f := range flows {
		out[f.ID] = st.Rates[i]
	}
	return out
}

// TestParallelMatchesSequential is the key correctness test of the multicore
// design: the FlowBlock/LinkBlock-partitioned iteration must compute exactly
// the same rates as the sequential NED iteration.
func TestParallelMatchesSequential(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	flows := randomParallelFlows(topo.NumServers(), 500, 11)
	const iters = 30
	want := sequentialReference(t, topo, flows, iters)

	for _, blocks := range []int{1, 2, 4} {
		pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: blocks, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := pa.SetFlows(flows); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < iters; i++ {
			pa.Iterate()
		}
		got := pa.Rates()
		pa.Close()
		if len(got) != len(want) {
			t.Fatalf("blocks=%d: got %d rates, want %d", blocks, len(got), len(want))
		}
		for id, w := range want {
			g := got[id]
			if w == 0 {
				continue
			}
			if math.Abs(g-w)/w > 1e-9 {
				t.Fatalf("blocks=%d: flow %d rate %.9g differs from sequential %.9g", blocks, id, g, w)
			}
		}
	}
}

func TestParallelNormalizeRespectsCapacity(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	// Incast: many flows into the servers of rack 0.
	var flows []ParallelFlow
	for i := 0; i < 200; i++ {
		flows = append(flows, ParallelFlow{ID: FlowID(i), Src: 8 + i%56, Dst: i % 8})
	}
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2, Gamma: 1, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	if err := pa.SetFlows(flows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		pa.Iterate()
	}
	// Check per-destination-server loads stay within the NIC rate.
	rates := pa.Rates()
	perDst := map[int]float64{}
	for _, f := range flows {
		perDst[f.Dst] += rates[f.ID]
	}
	for dst, load := range perDst {
		if load > topo.Config().LinkCapacity*1.001 {
			t.Errorf("server %d downlink over capacity after F-NORM: %.3g", dst, load)
		}
	}
}

func TestParallelChurnViaSetFlows(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	flows := randomParallelFlows(topo.NumServers(), 100, 3)
	if err := pa.SetFlows(flows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pa.Iterate()
	}
	if pa.NumFlows() != 100 {
		t.Errorf("NumFlows = %d, want 100", pa.NumFlows())
	}
	// Replace the flow set (prices persist) and keep iterating.
	if err := pa.SetFlows(flows[:40]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pa.Iterate()
	}
	if got := len(pa.Rates()); got != 40 {
		t.Errorf("Rates returned %d entries, want 40", got)
	}
	prices := pa.Prices()
	for id, price := range prices {
		if price < 0 || math.IsNaN(price) {
			t.Fatalf("invalid price %g on link %d", price, id)
		}
	}
}

func TestParallelCloseIdempotent(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Close before any Iterate must not hang or panic.
	pa.Close()
	pa.Close()

	pa2, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pa2.SetFlows(randomParallelFlows(topo.NumServers(), 10, 1)); err != nil {
		t.Fatal(err)
	}
	pa2.Iterate()
	pa2.Close()
	pa2.Close()
}

// TestParallelBitsIndependentOfWorkers is the proof that workers are cores
// and FlowBlocks data: for every worker count W = min(blocks², GOMAXPROCS) —
// uneven shares at W=3 included — the golden churn sequence reproduces its
// hash and block-local traffic stays bit-identical to the sequential engine.
func TestParallelBitsIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, blocks := range []int{1, 2, 4} {
		want := goldenParallelRates[blocks] // blocks=1 has no literal: W=1 is its only worker count
		for _, procs := range []int{1, 2, 3, 4, 16} {
			t.Run(fmt.Sprintf("blocks=%d/GOMAXPROCS=%d", blocks, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				got, w := goldenParallelHash(t, blocks)
				if w != min(blocks*blocks, procs) {
					t.Fatalf("%d workers, want min(%d FlowBlocks, GOMAXPROCS %d)", w, blocks*blocks, procs)
				}
				if want == "" {
					want = got
				}
				if got != want {
					t.Fatalf("W=%d: rate/price bits moved:\n got %s\nwant %s", w, got, want)
				}
				checkBoundaryBitIdentical(t, blocks)
			})
		}
	}
}

// TestParallelSingleWorkerStartsNoGoroutine pins W=1: the caller runs every
// FlowBlock itself, so iterating and closing start and leave no goroutine.
func TestParallelSingleWorkerStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	topo := parallelTestTopo(t, 8)
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.SetFlows(randomParallelFlows(topo.NumServers(), 200, 4)); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		pa.Iterate()
	}
	if n := runtime.NumGoroutine(); pa.NumWorkers() != 1 || n != before {
		t.Fatalf("W=%d: %d goroutines after Iterate, %d before", pa.NumWorkers(), n, before)
	}
	pa.Close()
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Close, %d before", n, before)
	}
}

// TestParallelIterateZeroAllocs pins the steady-state iteration at 0 heap
// allocations with the caller alone (W=1) and with one worker goroutine
// beside it (W=2).
func TestParallelIterateZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	topo := parallelTestTopo(t, 8)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2, Normalize: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := pa.SetFlows(randomParallelFlows(topo.NumServers(), 200, 4)); err != nil {
			t.Fatal(err)
		}
		pa.Iterate()
		if avg := testing.AllocsPerRun(100, pa.Iterate); avg != 0 {
			t.Errorf("W=%d: Iterate allocates %.1f objects, want 0", pa.NumWorkers(), avg)
		}
		pa.Close()
	}
}

// TestParallelIterateIdle pins the idle skip: with no flows loaded, Iterate
// returns at once — every price bit stays put even under external load that
// a real price update would act on — and allocates nothing.
func TestParallelIterateIdle(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	flows := randomParallelFlows(topo.NumServers(), 50, 6)
	if err := pa.SetFlows(flows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		pa.Iterate()
	}
	for _, f := range flows {
		if err := pa.FlowletEnd(f.ID); err != nil {
			t.Fatal(err)
		}
	}
	ext := downLinks(t, topo, 2)
	pa.SetExternalLoads(ext, []float64{20e9, 20e9}, []float64{-1e9, -1e9})
	before := pa.Prices()
	if avg := testing.AllocsPerRun(20, pa.Iterate); avg != 0 {
		t.Errorf("idle Iterate allocates %.1f objects, want 0", avg)
	}
	for l, p := range pa.Prices() {
		if math.Float64bits(p) != math.Float64bits(before[l]) {
			t.Fatalf("idle Iterate moved link %d's price %v → %v", l, before[l], p)
		}
	}
}

func TestBarrier(t *testing.T) {
	b := newBarrier(3)
	done := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func(id int) {
			for round := 0; round < 100; round++ {
				b.wait()
			}
			done <- id
		}(i)
	}
	for i := 0; i < 3; i++ {
		<-done
	}
}

// TestParallelIncrementalMatchesSetFlows is the churn-equivalence test of the
// incremental CSR maintenance: driving one allocator through a seeded
// add/end sequence with FlowletStart/FlowletEnd must produce byte-identical
// rates to bulk-loading a second allocator with SetFlows from the first's
// live set (in its canonical FlowBlock order) at every iteration boundary.
// The removal-heavy phase swap-deletes rows from the middle of the blocks'
// indexes, and every block's index keeps exactly one row per flow.
func TestParallelIncrementalMatchesSetFlows(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	newPA := func() *ParallelAllocator {
		pa, err := NewParallelAllocator(ParallelConfig{
			Topology: topo, Blocks: 2, Gamma: 1, Normalize: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pa
	}
	inc := newPA()
	defer inc.Close()
	bulk := newPA()
	defer bulk.Close()

	rng := rand.New(rand.NewSource(7))
	var live []FlowID
	nextID := FlowID(0)
	add := func() {
		src := rng.Intn(topo.NumServers())
		dst := rng.Intn(topo.NumServers() - 1)
		if dst >= src {
			dst++
		}
		// Fractional weights exercise the exact (bit-level) weight
		// round-trip through LiveFlows.
		weight := 0.25 + 3*rng.Float64()
		if err := inc.FlowletStart(nextID, src, dst, weight); err != nil {
			t.Fatal(err)
		}
		live = append(live, nextID)
		nextID++
	}
	moved := 0 // swap-deletes that copied a block's last row into a gap
	end := func() {
		i := rng.Intn(len(live))
		id := live[i]
		if midRow(inc, id) {
			moved++
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if err := inc.FlowletEnd(id); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 120
	for round := 0; round < rounds; round++ {
		events := 1 + rng.Intn(8)
		for e := 0; e < events; e++ {
			switch {
			case len(live) == 0:
				add()
			case round < 50: // growth phase
				if rng.Intn(10) < 8 {
					add()
				} else {
					end()
				}
			case round < 90: // removal phase
				if rng.Intn(10) < 8 {
					end()
				} else {
					add()
				}
			default: // steady churn
				if rng.Intn(2) == 0 {
					add()
				} else {
					end()
				}
			}
		}
		for _, fb := range inc.fbs {
			if c := &fb.csr; len(c.Routes) != c.NumFlows()*c.Stride {
				t.Fatalf("round %d: FlowBlock (%d,%d) holds %d route entries for %d flows at stride %d",
					round, fb.srcBlock, fb.dstBlock, len(c.Routes), c.NumFlows(), c.Stride)
			}
		}
		if err := bulk.SetFlows(inc.LiveFlows()); err != nil {
			t.Fatal(err)
		}
		if inc.NumFlows() == 0 {
			continue
		}
		inc.Iterate()
		bulk.Iterate()
		want := bulk.Rates()
		got := inc.Rates()
		if len(got) != len(want) || len(got) != len(live) {
			t.Fatalf("round %d: incremental tracks %d rates, bulk %d, live %d", round, len(got), len(want), len(live))
		}
		for id, w := range want {
			g, ok := got[id]
			if !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("round %d flow %d: incremental rate %x differs from bulk %x",
					round, id, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}

	if moved == 0 {
		t.Error("the churn sequence never swap-deleted from the middle of a block's index")
	}
}

// TestParallelFlowletChurnAPI covers the incremental API's edge cases:
// duplicate adds, unknown ends, swap-delete locator fixups, and interleaving
// with Iterate.
func TestParallelFlowletChurnAPI(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	pa, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 2, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()

	if err := pa.FlowletStart(1, 0, 9, 1); err != nil {
		t.Fatal(err)
	}
	if err := pa.FlowletStart(1, 0, 9, 1); err == nil {
		t.Error("duplicate FlowletStart accepted")
	}
	if err := pa.FlowletEnd(99); err == nil {
		t.Error("unknown FlowletEnd accepted")
	}
	if err := pa.FlowletStart(2, 0, 17, 1); err != nil {
		t.Fatal(err)
	}
	if err := pa.FlowletStart(3, 1, 9, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := pa.SlotOf(2); !ok {
		t.Error("SlotOf misses a registered flow")
	}
	if _, ok := pa.SlotOf(99); ok {
		t.Error("SlotOf resolves an unregistered flow")
	}
	pa.Iterate()
	// Remove a middle flow; the moved flow must keep its rate and stay
	// addressable.
	if err := pa.FlowletEnd(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := pa.SlotOf(1); ok {
		t.Error("SlotOf resolves an ended flow")
	}
	if pa.NumFlows() != 2 {
		t.Fatalf("NumFlows = %d, want 2", pa.NumFlows())
	}
	pa.Iterate()
	rates := pa.Rates()
	if len(rates) != 2 || rates[2] <= 0 || rates[3] <= 0 {
		t.Fatalf("rates after churn = %v", rates)
	}
	if err := pa.FlowletEnd(2); err != nil {
		t.Fatal(err)
	}
	if err := pa.FlowletEnd(3); err != nil {
		t.Fatal(err)
	}
	if pa.NumFlows() != 0 {
		t.Fatalf("NumFlows = %d, want 0", pa.NumFlows())
	}
	// SetFlows after incremental churn re-bulk-loads cleanly.
	if err := pa.SetFlows(randomParallelFlows(topo.NumServers(), 20, 5)); err != nil {
		t.Fatal(err)
	}
	pa.Iterate()
	if got := len(pa.Rates()); got != 20 {
		t.Errorf("Rates returned %d entries, want 20", got)
	}
	if err := pa.SetFlows([]ParallelFlow{{ID: 4, Src: 0, Dst: 9}, {ID: 4, Src: 1, Dst: 9}}); err == nil {
		t.Error("SetFlows accepted duplicate IDs")
	}
}

// TestMortonLayout pins the bit-interleaved FlowBlock order: round-1 up-merge
// partners must be adjacent, and mortonIndex/mortonCoords must be inverses.
func TestMortonLayout(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for sb := 0; sb < n; sb++ {
			for db := 0; db < n; db++ {
				m := mortonIndex(sb, db, n)
				if m < 0 || m >= n*n {
					t.Fatalf("n=%d: mortonIndex(%d,%d) = %d out of range", n, sb, db, m)
				}
				gsb, gdb := mortonCoords(m, n)
				if gsb != sb || gdb != db {
					t.Fatalf("n=%d: mortonCoords(mortonIndex(%d,%d)) = (%d,%d)", n, sb, db, gsb, gdb)
				}
				if db%2 == 0 && db+1 < n {
					if other := mortonIndex(sb, db+1, n); other != m+1 {
						t.Errorf("n=%d: up-merge partner of (%d,%d) at %d, want %d", n, sb, db, other, m+1)
					}
				}
			}
		}
	}
}
