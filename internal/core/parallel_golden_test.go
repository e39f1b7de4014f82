package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// goldenParallelRates is the SHA-256 of every flow's (id, rate bits) in
// FlowBlock order followed by every link's price bits in LinkID order, after
// the seeded cross-block churn sequence below. No committed BENCH_*.json runs
// the parallel engine on cross-block traffic, so this literal is the only pin
// on what the merge tree, the boundary folding and the normalize phase compute
// there; a change that moves one bit of one rate must say so by moving it.
var goldenParallelRates = map[int]string{
	2: "7d97c41a3e4011dd052cd87243e0cc37433a68e91f74cb4ae9bd764e747e2663",
	4: "0e0f6e82d2e2bf8f44daa8bdfc8d367961aa7bbe64ea8b3a0056256c4dabf9da",
}

// TestParallelGoldenRates pins the parallel engine's output bit for bit on
// traffic the sequential≡parallel tests cannot cover: flows that cross blocks
// (so the pairwise merge adds non-zero partial sums in a fixed order),
// fractional weights, external loads, pinned prices, a capacity change, and a
// churn sequence that shrinks and regrows the FlowBlock indexes.
func TestParallelGoldenRates(t *testing.T) {
	for _, blocks := range []int{2, 4} {
		if got, _ := goldenParallelHash(t, blocks); got != goldenParallelRates[blocks] {
			t.Errorf("blocks=%d: rate/price bits moved:\n got %s\nwant %s", blocks, got, goldenParallelRates[blocks])
		}
	}
}

// goldenParallelHash runs the golden churn sequence on a fresh allocator of
// the given block count and returns the hex SHA-256 of its rate and price
// bits, and the number of workers it ran on.
func goldenParallelHash(t *testing.T, blocks int) (string, int) {
	t.Helper()
	topo := parallelTestTopo(t, 8)
	n := topo.NumServers()
	pa, err := NewParallelAllocator(ParallelConfig{
		Topology: topo, Blocks: blocks, Gamma: 0.4, Headroom: 0.01, Normalize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	rng := rand.New(rand.NewSource(22))
	var live []FlowID
	next := FlowID(1)
	start := func() {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		if err := pa.FlowletStart(next, src, dst, 0.25+3*rng.Float64()); err != nil {
			t.Fatal(err)
		}
		live = append(live, next)
		next++
	}
	end := func() {
		i := rng.Intn(len(live))
		if err := pa.FlowletEnd(live[i]); err != nil {
			t.Fatal(err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}

	for i := 0; i < 800; i++ {
		start()
	}
	ext := downLinks(t, topo, 6)
	pa.SetExternalLoads(ext[:3], []float64{3e9, 5e9, 12e9}, []float64{-1e9, -2.5e9, -4e9})
	pa.PinPrices(ext[3:5], []float64{7.25, 0})
	if err := pa.SetLinkCapacity(ext[5], 2.5e9); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		// Ends outnumber starts early on, so rows move into the gaps of
		// swap-deletes; later rounds grow the set back.
		ends, starts := 60, 20
		if round >= 15 {
			ends, starts = 20, 60
		}
		for i := 0; i < ends && len(live) > 1; i++ {
			end()
		}
		for i := 0; i < starts; i++ {
			start()
		}
		pa.Iterate()
		pa.Iterate()
	}
	pa.UnpinPrices(ext[3:4])
	for i := 0; i < 5; i++ {
		pa.Iterate()
	}

	h := sha256.New()
	var buf [16]byte
	pa.ForEachRate(func(id FlowID, rate float64) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(id))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(rate))
		h.Write(buf[:])
	})
	links := make([]topology.LinkID, topo.NumLinks())
	for i := range links {
		links[i] = topology.LinkID(i)
	}
	prices := make([]float64, len(links))
	pa.LinkPrices(links, prices)
	for _, p := range prices {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p))
		h.Write(buf[:8])
	}
	return hex.EncodeToString(h.Sum(nil)), pa.NumWorkers()
}
