package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// refAllocator is one allocator iteration written the way it was before the
// kernels: a slice of structs holding a route slice each, range loops, `if`
// clamps, a per-link division inside F-NORM's per-flow loop, and a filter that
// reads lastNotified out of the flow struct. It is the oracle the sequential
// Allocator must match bit for bit, update list included.
type refAllocator struct {
	flows               []refFlow
	caps, prices        []float64
	ext, extH, pins     []float64
	maxRate, gamma, thr float64
	rates, normalized   []float64
	loads, hdiag        []float64
}

type refFlow struct {
	id           FlowID
	route        []int32
	weight       float64
	lastNotified float64
}

func newRefAllocator(topo *topology.Topology) *refAllocator {
	r := &refAllocator{maxRate: topo.Config().LinkCapacity, gamma: 0.4, thr: 0.01}
	for _, c := range topo.Capacities() {
		r.caps = append(r.caps, c*(1-r.thr))
		r.prices = append(r.prices, 1)
		r.ext = append(r.ext, 0)
		r.extH = append(r.extH, 0)
		r.pins = append(r.pins, -1)
	}
	r.loads = make([]float64, len(r.caps))
	r.hdiag = make([]float64, len(r.caps))
	return r
}

func (r *refAllocator) start(t *testing.T, topo *topology.Topology, id FlowID, src, dst int, weight float64) {
	t.Helper()
	route, err := topo.RouteInto(nil, src, dst, int(id))
	if err != nil {
		t.Fatal(err)
	}
	r.flows = append(r.flows, refFlow{id: id, route: route, weight: weight * topo.Config().LinkCapacity})
}

func (r *refAllocator) end(id FlowID) {
	for i := range r.flows {
		if r.flows[i].id == id {
			r.flows[i] = r.flows[len(r.flows)-1]
			r.flows = r.flows[:len(r.flows)-1]
			return
		}
	}
}

func (r *refAllocator) iterate() []RateUpdate {
	if len(r.flows) == 0 {
		return nil
	}
	clear(r.loads)
	clear(r.hdiag)
	r.rates = r.rates[:0]
	for _, f := range r.flows {
		ps := 0.0
		for _, l := range f.route {
			ps += r.prices[l]
		}
		if ps < 1e-12 {
			ps = 1e-12
		}
		x := f.weight / ps
		if x > r.maxRate {
			x = r.maxRate
		}
		d := -f.weight / (ps * ps)
		r.rates = append(r.rates, x)
		for _, l := range f.route {
			r.loads[l] += x
			r.hdiag[l] += d
		}
	}
	for l := range r.prices {
		g := r.loads[l] - r.caps[l]
		h := r.hdiag[l]
		g += r.ext[l]
		h += r.extH[l]
		if h == 0 {
			r.prices[l] *= 0.5
		} else {
			price := r.prices[l] - r.gamma*g/h
			if price < 0 {
				price = 0
			}
			r.prices[l] = price
		}
		if r.pins[l] >= 0 {
			r.prices[l] = r.pins[l]
		}
	}
	r.normalized = r.normalized[:0]
	var updates []RateUpdate
	for i := range r.flows {
		f := &r.flows[i]
		worst := 0.0
		for _, l := range f.route {
			if ratio := (r.loads[l] + r.ext[l]) / r.caps[l]; ratio > worst {
				worst = ratio
			}
		}
		rate := r.rates[i]
		if worst > 1 {
			rate /= worst
		}
		r.normalized = append(r.normalized, rate)
		if SignificantRateChange(f.lastNotified, rate, r.thr) {
			f.lastNotified = rate
			updates = append(updates, RateUpdate{Flow: f.id, Rate: rate})
		}
	}
	return updates
}

func floatsBitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestAllocatorKernelEquivalence drives the sequential Allocator and the
// reference side by side through a seeded churn sequence on a two-tier and a
// fat-tree fabric — fractional weights, external loads and Hessians, pins
// (one rack pinned at price zero, so its local paths clamp to the price floor
// and sit at the NIC cap), a link degraded mid-run, and a shrink that
// swap-deletes rows from the middle of the index — and requires raw rates,
// loads, Hessian diagonals, prices, normalized rates and the update list to
// agree bit for bit after every iteration.
func TestAllocatorKernelEquivalence(t *testing.T) {
	twoTier, err := topology.NewTwoTier(topology.Config{Racks: 6, ServersPerRack: 6, Spines: 3, LinkCapacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	fatTree, err := topology.NewFatTree(topology.FatTreeConfig{K: 4, LinkCapacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	for name, topo := range map[string]*topology.Topology{"two-tier": twoTier, "fat-tree": fatTree} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				a, err := NewAllocator(Config{Topology: topo})
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefAllocator(topo)
				n := topo.NumServers()
				var live []FlowID
				next := FlowID(1)
				start := func() {
					src := rng.Intn(n)
					dst := rng.Intn(n - 1)
					if dst >= src {
						dst++
					}
					if rng.Intn(4) == 0 {
						// Keep rack 0 busy with local flows: its links are the
						// ones pinned at zero below.
						perRack := topo.Config().ServersPerRack
						src, dst = rng.Intn(perRack), rng.Intn(perRack-1)
						if dst >= src {
							dst++
						}
					}
					weight := 0.25 + 3*rng.Float64()
					if err := a.FlowletStart(next, src, dst, weight); err != nil {
						t.Fatal(err)
					}
					ref.start(t, topo, next, src, dst, weight)
					live = append(live, next)
					next++
				}
				moved := 0 // swap-deletes that copied the last row into a gap
				end := func() {
					i := rng.Intn(len(live))
					if a.indexByID[live[i]] < len(a.ids)-1 {
						moved++
					}
					if err := a.FlowletEnd(live[i]); err != nil {
						t.Fatal(err)
					}
					ref.end(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				for i := 0; i < 150; i++ {
					start()
				}

				// Boundary state: external demand on every fifth link, every
				// link rack 0's local flows use pinned at zero, a few more
				// pinned at arbitrary prices.
				var extLinks, pinLinks []topology.LinkID
				var extLoads, extHdiag, pinVals []float64
				rack0, err := topo.RouteInto(nil, 0, 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range rack0 {
					pinLinks = append(pinLinks, topology.LinkID(l))
					pinVals = append(pinVals, 0)
				}
				for l := 0; l < topo.NumLinks(); l++ {
					switch {
					case l%5 == 0:
						extLinks = append(extLinks, topology.LinkID(l))
						extLoads = append(extLoads, 6e9*rng.Float64())
						extHdiag = append(extHdiag, -3e9*rng.Float64())
					case l%11 == 3:
						pinLinks = append(pinLinks, topology.LinkID(l))
						pinVals = append(pinVals, 4*rng.Float64())
					}
				}
				seqSetExternalLoads(a, extLinks, extLoads, extHdiag)
				for i, l := range extLinks {
					ref.ext[l], ref.extH[l] = extLoads[i], extHdiag[i]
				}
				seqPinPrices(a, pinLinks, pinVals)
				for i, l := range pinLinks {
					ref.pins[l], ref.prices[l] = pinVals[i], pinVals[i]
				}

				capped, clamped := 0, 0
				for round := 0; round < 60; round++ {
					switch {
					case round >= 10 && round < 24:
						for i := 0; i < 10 && len(live) > 6; i++ {
							end()
						}
					case round >= 24 && round < 36:
						for i := 0; i < 12; i++ {
							start()
						}
					default:
						end()
						start()
					}
					if round == 30 {
						l := topology.LinkID(rng.Intn(topo.NumLinks()))
						seqSetLinkCapacity(t, a, l, 1e9)
						ref.caps[l] = 1e9 * (1 - ref.thr)
					}
					// Path prices before the step decide which flows clamp.
					for _, f := range ref.flows {
						ps := 0.0
						for _, l := range f.route {
							ps += ref.prices[l]
						}
						if ps < 1e-12 {
							clamped++
						}
					}

					got := a.Iterate()
					want := ref.iterate()
					loads, hdiag := a.ned.LastLoads()
					floatsBitEqual(t, "raw rates", a.state.Rates, ref.rates)
					floatsBitEqual(t, "loads", loads, ref.loads)
					floatsBitEqual(t, "hdiag", hdiag, ref.hdiag)
					floatsBitEqual(t, "prices", a.state.Prices, ref.prices)
					floatsBitEqual(t, "normalized rates", a.normalized, ref.normalized)
					if len(got) != len(want) {
						t.Fatalf("round %d: %d updates, reference has %d", round, len(got), len(want))
					}
					for i := range want {
						if got[i].Flow != want[i].Flow ||
							math.Float64bits(got[i].Rate) != math.Float64bits(want[i].Rate) {
							t.Fatalf("round %d update %d: %+v, reference %+v", round, i, got[i], want[i])
						}
					}
					for _, x := range ref.rates {
						if x == ref.maxRate {
							capped++
						}
					}
				}
				if moved == 0 {
					t.Error("the churn sequence never swap-deleted from the middle of the index")
				}
				if capped == 0 || clamped == 0 {
					t.Errorf("%d capped rates, %d clamped path prices: the case should exercise both", capped, clamped)
				}
			})
		}
	}
}

// upDown splits flow i's route in the FlowBlock's local link space back into
// positions of the source block's upward LinkBlock and of the destination
// block's downward one.
func (fb *flowBlock) upDown(i int) (up, down []int32) {
	for _, l := range fb.csr.Route(i) {
		if int(l) < fb.downBase {
			up = append(up, l)
		} else {
			down = append(down, l-int32(fb.downBase))
		}
	}
	return up, down
}

// rateUpdatePhaseRef and normalizePhaseRef are the FlowBlock phases as plain
// loops over separate up and down position lists — range loops, `if` clamps,
// and F-NORM dividing the owner's merged load by the capacity once per link
// per flow. They share nothing with num's and norm's kernels, so they are the
// check that running those kernels on the local link space computes what the
// paper's FlowBlock does.
func rateUpdatePhaseRef(p *ParallelAllocator, fb *flowBlock) {
	clear(fb.upLoad)
	clear(fb.upHdiag)
	clear(fb.downLoad)
	clear(fb.downHdiag)
	upPrice, downPrice := fb.price[:len(fb.upLoad)], fb.price[fb.downBase:]
	for i := 0; i < fb.numFlows(); i++ {
		up, down := fb.upDown(i)
		priceSum := 0.0
		for _, pos := range up {
			priceSum += upPrice[pos]
		}
		for _, pos := range down {
			priceSum += downPrice[pos]
		}
		if priceSum < 1e-12 {
			priceSum = 1e-12
		}
		w := fb.csr.Weights[i]
		x := w / priceSum
		if x > p.maxRate {
			x = p.maxRate
		}
		d := -w / (priceSum * priceSum)
		fb.rates[i] = x
		for _, pos := range up {
			fb.upLoad[pos] += x
			fb.upHdiag[pos] += d
		}
		for _, pos := range down {
			fb.downLoad[pos] += x
			fb.downHdiag[pos] += d
		}
	}
}

func normalizePhaseRef(p *ParallelAllocator, fb *flowBlock) {
	upOwner := p.fbAt[fb.srcBlock*p.numBlocks]
	downOwner := p.fbAt[fb.dstBlock]
	upLB, downLB := p.up[fb.srcBlock], p.down[fb.dstBlock]
	for i := 0; i < fb.numFlows(); i++ {
		up, down := fb.upDown(i)
		worst := 1.0
		for _, pos := range up {
			load := upOwner.upLoad[pos]
			if upLB.ext != nil {
				load += upLB.ext[pos]
			}
			if r := load / upLB.cap[pos]; r > worst {
				worst = r
			}
		}
		for _, pos := range down {
			load := downOwner.downLoad[pos]
			if downLB.ext != nil {
				load += downLB.ext[pos]
			}
			if r := load / downLB.cap[pos]; r > worst {
				worst = r
			}
		}
		if worst > 1 {
			fb.rates[i] /= worst
		}
	}
}

// TestParallelKernelEquivalence runs the two per-flow FlowBlock phases against
// their reference loops on cross-block traffic. Between Iterate calls the
// workers are parked at the outer barrier, so the test goroutine may run a
// phase on a FlowBlock itself: right after an iteration the owners still hold
// the merged loads the ratios were written from, so normalizing the block's
// rates again must divide by exactly what the reference recomputes; the rate
// update is then a pure function of the block's local prices. (Both leave
// derived state behind that the next Iterate recomputes from scratch.)
func TestParallelKernelEquivalence(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	n := topo.NumServers()
	for _, blocks := range []int{2, 4} {
		t.Run(fmt.Sprintf("blocks=%d", blocks), func(t *testing.T) {
			pa, err := NewParallelAllocator(ParallelConfig{
				Topology: topo, Blocks: blocks, Gamma: 0.4, Headroom: 0.01, Normalize: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pa.Close()
			rng := rand.New(rand.NewSource(int64(blocks)))
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
			for i := 0; i < 600; i++ {
				start()
			}
			ext := downLinks(t, topo, 6)
			pa.SetExternalLoads(ext[:3], []float64{3e9, 5e9, 12e9}, []float64{-1e9, -2.5e9, -4e9})
			pa.PinPrices(ext[3:], []float64{7.25, 0, 0})

			scaled := 0
			for round := 0; round < 25; round++ {
				ends, starts := 40, 10
				if round >= 12 {
					ends, starts = 10, 40
				}
				for i := 0; i < ends && len(live) > 1; i++ {
					j := rng.Intn(len(live))
					if err := pa.FlowletEnd(live[j]); err != nil {
						t.Fatal(err)
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				for i := 0; i < starts; i++ {
					start()
				}
				pa.Iterate()

				for m, fb := range pa.fbs {
					what := fmt.Sprintf("round %d block %d", round, m)
					in := append([]float64(nil), fb.rates...)
					normalizePhaseRef(pa, fb)
					want := append([]float64(nil), fb.rates...)
					copy(fb.rates, in)
					pa.normalizePhase(fb)
					floatsBitEqual(t, what+" normalized rates", fb.rates, want)
					for i := range want {
						if want[i] != in[i] {
							scaled++
						}
					}
				}
				for m, fb := range pa.fbs {
					what := fmt.Sprintf("round %d block %d", round, m)
					rateUpdatePhaseRef(pa, fb)
					want := [][]float64{
						append([]float64(nil), fb.rates...),
						append([]float64(nil), fb.upLoad...), append([]float64(nil), fb.upHdiag...),
						append([]float64(nil), fb.downLoad...), append([]float64(nil), fb.downHdiag...),
					}
					pa.rateUpdatePhase(fb)
					floatsBitEqual(t, what+" rates", fb.rates, want[0])
					floatsBitEqual(t, what+" upLoad", fb.upLoad, want[1])
					floatsBitEqual(t, what+" upHdiag", fb.upHdiag, want[2])
					floatsBitEqual(t, what+" downLoad", fb.downLoad, want[3])
					floatsBitEqual(t, what+" downHdiag", fb.downHdiag, want[4])
				}
			}
			if scaled == 0 {
				t.Error("no flow was ever scaled: the case should cross over-capacity links")
			}
		})
	}
}

// TestRateAfterChurnBeforeIterate is the regression test for Rate and Rates
// answering with another flowlet's rate between a FlowletEnd and the next
// Iterate: the swap-delete must move the normalized rate with the flow, and a
// flowlet started into the freed slot reads 0 until an iteration has run. The
// parallel engine keeps its rates in the FlowBlock arrays that removeSwap
// already moves; it is held to the same contract.
func TestRateAfterChurnBeforeIterate(t *testing.T) {
	topo := simTopo(t)
	seq := newTestAllocator(t, Config{Topology: topo})
	pa, err := NewParallelAllocator(ParallelConfig{Topology: parallelTestTopo(t, 8), Blocks: 2, Gamma: 0.4, Headroom: 0.01, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	type engine interface {
		FlowletStart(id FlowID, src, dst int, weight float64) error
		FlowletEnd(id FlowID) error
		Rates() map[FlowID]float64
	}
	for _, name := range []string{"sequential", "parallel"} {
		var e engine = seq
		iterate := func() { seq.Iterate() }
		if name == "parallel" {
			e, iterate = pa, pa.Iterate
		}
		// Flow 1 alone on its downlink, flows 2 and 3 sharing another: after
		// convergence flow 1 holds twice the rate of the other two. Ending
		// flow 1 moves flow 3 into its slot and frees the tail slot for 4.
		for id, dst := range []int{1: 1, 2: 2, 3: 2} {
			if id == 0 {
				continue
			}
			if err := e.FlowletStart(FlowID(id), id+2, dst, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			iterate()
		}
		before := e.Rates()
		if before[1] < 1.9*before[3] {
			t.Fatalf("%s: rates %v: flow 1 should hold about twice flow 3's rate", name, before)
		}
		if err := e.FlowletEnd(1); err != nil {
			t.Fatal(err)
		}
		if err := e.FlowletStart(4, 7, 6, 1); err != nil {
			t.Fatal(err)
		}
		after := e.Rates()
		if len(after) != 3 || after[2] != before[2] || after[3] != before[3] || after[4] != 0 {
			t.Errorf("%s: rates after End(1)+Start(4) and no Iterate: %v, want flows 2 and 3 unchanged from %v and flow 4 at 0", name, after, before)
		}
		if name == "sequential" {
			if got := seq.Rate(3); got != before[3] {
				t.Errorf("Rate(3) = %v after End(1), want its own %v", got, before[3])
			}
			if got := seq.Rate(4); got != 0 {
				t.Errorf("Rate(4) = %v before any Iterate, want 0", got)
			}
			if got := seq.State().Rates[seq.indexByID[4]]; got != 0 {
				t.Errorf("raw rate of flow 4 = %v before any Iterate, want 0", got)
			}
		}
	}
}
