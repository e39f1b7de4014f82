package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/num"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/wire"
)

// layerTimes is what a timed replay measures: the same seeded event sequence
// the daemon saw, pushed through each layer's public functions in-process.
type layerTimes struct {
	// iterate, ned and fnorm are per-call times in us over the measured
	// steps (ned and fnorm on a sampled subset).
	iterate, ned, fnorm []float64
	// The ns-scale calls are timed one by one and reported as means with the
	// clock's own cost taken off.
	start, end, route, record nsMean

	flowsExamined, updatesEmitted int64
	routeCalls, routeMisses       int
}

// nsMean accumulates individually timed nanosecond-scale calls.
type nsMean struct {
	sum int64
	n   int64
}

func (m *nsMean) add(d time.Duration) { m.sum += int64(d); m.n++ }

// mean is the average call time in ns less clock, the measured cost of one
// back-to-back pair of clock reads.
func (m nsMean) mean(clock float64) float64 {
	if m.n == 0 {
		return 0
	}
	return math.Max(float64(m.sum)/float64(m.n)-clock, 0)
}

// clockCost is the cost in ns of reading the clock twice in a row, which
// every individually timed call includes.
func clockCost() float64 {
	const n = 100000
	begin := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return float64(time.Since(begin)) / n
}

// maxSolverSamples bounds how many measured steps also time a stand-alone NED
// step and F-NORM pass, so the sampling never dominates a replay.
const maxSolverSamples = 2000

// tickItersPerProbe is how many iterations the mirror runs per free-running
// probe: the daemon's 1 ms tick against 100 probes/s.
const tickItersPerProbe = 10

// replay pushes the event sequence the daemon has seen so far — resident set,
// every churn operation, the quiet iterations — through a mirror
// core.Allocator configured as the daemon's sequential engine is. On a
// step-driven workload the mirror ends bit-identical to the daemon's engine;
// on the free-running one it runs a fixed number of iterations per probe,
// which is not the daemon's tick interleaving, so there the mirror serves the
// layer timings only (see the README on why its rates cannot be compared).
// With lt non-nil the operations after the warm-up are timed into it.
func (b *bench) replay(lt *layerTimes) (*core.Allocator, error) {
	w := b.w
	alloc, err := core.NewAllocator(core.Config{Topology: b.topo, UpdateThreshold: updateThreshold})
	if err != nil {
		return nil, err
	}
	servers := b.topo.NumServers()
	// routes is the harness's own cache, warmed with the resident set like
	// the daemon's, so route_hit_share describes steady-state churn.
	routes := topology.NewRouteCache(b.topo)
	var id int64
	startFlow := func(timed bool) error {
		src, dst := endpoints(b.seed, id, servers)
		if lt != nil {
			before := routes.Len()
			t := time.Now()
			_, err := routes.Route(src, dst, int(id))
			d := time.Since(t)
			if err != nil {
				return err
			}
			if timed {
				lt.route.add(d)
				lt.routeCalls++
				lt.routeMisses += routes.Len() - before
			}
		}
		t := time.Now()
		err := alloc.FlowletStartSized(core.FlowID(id), src, dst, 1, flowletBytes)
		if timed {
			lt.start.add(time.Since(t))
		}
		id++
		return err
	}
	for id < int64(w.resident) {
		if err := startFlow(false); err != nil {
			return nil, err
		}
	}
	iters := 1
	if w.interval > 0 {
		iters = tickItersPerProbe
		for i := 0; i < w.quiet; i++ { // the daemon converged while the harness drained
			alloc.Iterate()
		}
	} else {
		alloc.Iterate() // the Step that folded the resident set in
	}

	var probe *solverProbe
	var tel *telemetryProbe
	stride := 1
	if lt != nil {
		probe = newSolverProbe(alloc)
		tel = newTelemetryProbe()
		stride = (b.churnOps-w.warmup)/maxSolverSamples + 1
	}
	for op := 0; op < b.churnOps; op++ {
		timed := lt != nil && op >= w.warmup
		for i := 0; i < w.churn; i++ {
			t := time.Now()
			err := alloc.FlowletEnd(core.FlowID(id - int64(w.resident)))
			if timed {
				lt.end.add(time.Since(t))
			}
			if err != nil {
				return nil, err
			}
			if err := startFlow(timed); err != nil {
				return nil, err
			}
		}
		for i := 0; i < iters; i++ {
			t := time.Now()
			ups := alloc.Iterate()
			d := time.Since(t)
			if timed {
				lt.iterate = append(lt.iterate, float64(d)/1e3)
				lt.flowsExamined += int64(alloc.NumFlows())
				lt.updatesEmitted += int64(len(ups))
				lt.record.add(tel.record(uint64(op), d.Seconds(), len(ups), 2*w.churn))
			}
		}
		if timed && (op-w.warmup)%stride == 0 {
			nedUs, fnormUs := probe.sample()
			lt.ned = append(lt.ned, nedUs)
			lt.fnorm = append(lt.fnorm, fnormUs)
		}
	}
	for i := 0; i < w.quiet; i++ {
		alloc.Iterate()
	}
	return alloc, nil
}

// solverProbe times one stand-alone NED step and one F-NORM pass on the
// mirror's current problem, stepping a copy of its state so the mirror's own
// trajectory is untouched.
type solverProbe struct {
	alloc *core.Allocator
	ned   num.NED
	fnorm *norm.FNorm
	state num.State
	out   []float64
}

func newSolverProbe(alloc *core.Allocator) *solverProbe {
	return &solverProbe{alloc: alloc, ned: num.NED{Gamma: alloc.Config().Gamma}, fnorm: norm.NewFNorm()}
}

func (p *solverProbe) sample() (nedUs, fnormUs float64) {
	st := p.alloc.State()
	p.state.Prices = append(p.state.Prices[:0], st.Prices...)
	p.state.Rates = append(p.state.Rates[:0], st.Rates...)
	t := time.Now()
	p.ned.Step(p.alloc.Problem(), &p.state)
	nedUs = float64(time.Since(t)) / 1e3
	t = time.Now()
	p.out = p.fnorm.Normalize(p.alloc.Problem(), p.state.Rates, p.out)
	fnormUs = float64(time.Since(t)) / 1e3
	return nedUs, fnormUs
}

// telemetryProbe is the per-iteration observability cost a daemon started
// with -admin pays: one histogram observation, one counter add, one
// flight-recorder sample.
type telemetryProbe struct {
	hist  *telemetry.Histogram
	churn *telemetry.Counter
	rec   *telemetry.FlightRecorder
}

func newTelemetryProbe() *telemetryProbe {
	reg := telemetry.NewRegistry()
	return &telemetryProbe{
		hist:  reg.Histogram("flowtune_iteration_latency_seconds", "latency", server.IterationLatencyBuckets),
		churn: reg.Counter("flowtune_churn_events_total", "churn"),
		rec:   telemetry.NewFlightRecorder(0),
	}
}

func (p *telemetryProbe) record(seq uint64, latencySec float64, updates, churn int) time.Duration {
	t := time.Now()
	p.hist.Observe(latencySec)
	p.churn.Add(int64(churn))
	p.rec.Record(telemetry.FlightSample{Iteration: seq, ChurnEvents: churn, Updates: updates, LatencySec: latencySec})
	return time.Since(t)
}

// maxPar2Steps bounds the ParallelAllocator replay.
const maxPar2Steps = 2000

// replayPar2 pushes the head of the same event sequence through a 2-block
// ParallelAllocator configured as the daemon's -blocks 2 engine and returns
// the median time of one iteration plus update extraction, in us.
func (b *bench) replayPar2() (float64, error) {
	w := b.w
	pa, err := core.NewParallelAllocator(core.ParallelConfig{Topology: b.topo, Blocks: 2, Headroom: updateThreshold, Normalize: true})
	if err != nil {
		return 0, err
	}
	defer pa.Close()
	servers := b.topo.NumServers()
	var id int64
	start := func() error {
		src, dst := endpoints(b.seed, id, servers)
		err := pa.FlowletStartSized(core.FlowID(id), src, dst, 1, flowletBytes)
		id++
		return err
	}
	for id < int64(w.resident) {
		if err := start(); err != nil {
			return 0, err
		}
	}
	var ups []core.RateUpdate
	pa.Iterate()
	ups = pa.AppendUpdates(updateThreshold, ups[:0])
	steps := min(b.churnOps, w.warmup+maxPar2Steps)
	times := make([]float64, 0, steps)
	for op := 0; op < steps; op++ {
		for i := 0; i < w.churn; i++ {
			if err := pa.FlowletEnd(core.FlowID(id - int64(w.resident))); err != nil {
				return 0, err
			}
			if err := start(); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		pa.Iterate()
		ups = pa.AppendUpdates(updateThreshold, ups[:0])
		if op >= w.warmup {
			times = append(times, float64(time.Since(t))/1e3)
		}
	}
	return median(times), nil
}

// gate is the correctness check behind every window. After the quiet
// iterations the daemon must hold exactly the resident set, every live flow
// must have a positive rate, no link may carry more than its capacity over
// routes the harness recomputes itself, and — when a mirror is given — every
// rate must sit within 1% of the mirror's.
func (b *bench) gate(mirror *core.Allocator) error {
	w := b.w
	if n := b.srv.NumFlows(); n != w.resident {
		return fmt.Errorf("%s: daemon holds %d flowlets, want %d", w.name, n, w.resident)
	}
	rates := b.srv.Rates()
	if len(rates) != w.resident {
		return fmt.Errorf("%s: daemon reports %d rates, want %d", w.name, len(rates), w.resident)
	}
	servers := b.topo.NumServers()
	routes := topology.NewRouteCache(b.topo)
	load := make([]float64, b.topo.NumLinks())
	for id := b.next - int64(w.resident); id < b.next; id++ {
		rate, ok := rates[core.FlowID(id)]
		if !ok || !(rate > 0) || math.IsInf(rate, 0) {
			return fmt.Errorf("%s: live flowlet %d has rate %v", w.name, id, rate)
		}
		src, dst := endpoints(b.seed, id, servers)
		path, err := routes.Route(src, dst, int(id))
		if err != nil {
			return err
		}
		for _, l := range path {
			load[l] += rate
		}
	}
	for l, capacity := range b.topo.Capacities() {
		if load[l] > capacity*(1+1e-9) {
			return fmt.Errorf("%s: link %d carries %.6g bit/s, capacity %.6g", w.name, l, load[l], capacity)
		}
	}
	if mirror == nil {
		return nil
	}
	for id, want := range mirror.Rates() {
		if got := rates[id]; math.Abs(got-want) > 0.01*want {
			return fmt.Errorf("%s: flowlet %d rate %.6g, mirror allocator %.6g (>1%% apart)", w.name, id, got, want)
		}
	}
	return nil
}

// wireTimes is the wire layer replayed on frames the traced pass saw.
type wireTimes struct {
	addEncode, addDecode          float64 // ns per frame
	rateEncode, rateDecode        float64 // ns per entry
	bytesPerEntry, allocsPerFrame float64
}

// wireReplay times the codec on one flowlet-add frame and on a rate frame
// carrying sample, with reused buffers as the daemon and client hold them.
func wireReplay(sample []core.RateUpdate) (wireTimes, error) {
	var wt wireTimes
	add := wire.FlowletAdd{Flow: 1 << 20, Src: 3, Dst: 700, Weight: 1, Size: flowletBytes}
	var buf []byte
	const frames = 200000
	t := time.Now()
	for i := 0; i < frames; i++ {
		add.Flow++
		buf = wire.AppendFlowletAdd(buf[:0], add)
	}
	wt.addEncode = float64(time.Since(t)) / frames
	t = time.Now()
	for i := 0; i < frames; i++ {
		_, payload, _, err := wire.ParseFrame(buf)
		if err != nil {
			return wt, err
		}
		if _, err := wire.DecodeFlowletAdd(payload); err != nil {
			return wt, err
		}
	}
	wt.addDecode = float64(time.Since(t)) / frames

	entries := make([]wire.RateEntry, len(sample))
	for i, u := range sample {
		entries[i] = wire.RateEntry{Flow: int64(u.Flow), Rate: u.Rate}
	}
	if len(entries) == 0 {
		return wt, nil
	}
	entries = entries[:min(len(entries), wire.MaxRateDeltaEntries)]
	var delta wire.RateDelta
	round := func() error {
		buf = wire.AppendRateDelta(buf[:0], 7|wire.StepReplyFlag, false, entries)
		_, payload, _, err := wire.ParseFrame(buf)
		if err != nil {
			return err
		}
		return wire.DecodeRateDelta(payload, &delta)
	}
	if err := round(); err != nil { // also sizes the reused buffers
		return wt, err
	}
	wt.bytesPerEntry = float64(len(buf)) / float64(len(entries))
	rounds := max(400000/len(entries), 1)
	t = time.Now()
	for i := 0; i < rounds; i++ {
		buf = wire.AppendRateDelta(buf[:0], 7|wire.StepReplyFlag, false, entries)
	}
	wt.rateEncode = float64(time.Since(t)) / float64(rounds*len(entries))
	_, payload, _, err := wire.ParseFrame(buf)
	if err != nil {
		return wt, err
	}
	t = time.Now()
	for i := 0; i < rounds; i++ {
		if err := wire.DecodeRateDelta(payload, &delta); err != nil {
			return wt, err
		}
	}
	wt.rateDecode = float64(time.Since(t)) / float64(rounds*len(entries))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if err := round(); err != nil {
			return wt, err
		}
	}
	runtime.ReadMemStats(&after)
	wt.allocsPerFrame = float64(after.Mallocs-before.Mallocs) / 100
	return wt, nil
}
