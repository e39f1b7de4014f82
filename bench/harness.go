package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
)

// bench is one in-process flowtuned on a loopback TCP listener and the one
// AllocClient connection that drives it. Everything runs on the calling
// goroutine: AllocClient is not safe for concurrent use.
type bench struct {
	w    *workload
	seed uint64
	topo *topology.Topology
	srv  *server.Server
	cli  *transport.AllocClient
	ln   net.Listener
	// served is closed once the goroutine serving the listener has returned.
	served chan struct{}
	closed bool

	// clock timestamps both ends of the connection when traced; untraced it
	// only supplies the time base.
	clock *spanClock

	// next is the id of the next flowlet to start. IDs are dense, so the
	// oldest live flowlet is always next-resident and no queue is kept.
	next int64
	// churnOps counts the churn steps (or probes) issued since the resident
	// set was registered; the mirror replays exactly that many.
	churnOps int
	// warmPerOp is the warm-up's time per operation, used to size the
	// window's sample buffers.
	warmPerOp time.Duration
}

// oneSecond is the limit beyond which an operation counts as failed.
const oneSecond = int64(time.Second)

// setup builds the fabric, boots the daemon, dials it, registers the
// resident set and warms up — the span setup_s measures.
func setup(w *workload, seed uint64, traced bool) (b *bench, err error) {
	topo, err := topology.NewTwoTier(w.fabric)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Topology: topo, UpdateThreshold: updateThreshold, Interval: w.interval})
	if err != nil {
		return nil, err
	}
	b = &bench{w: w, seed: seed, topo: topo, srv: srv, served: make(chan struct{}), clock: newSpanClock()}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if b.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		close(b.served)
		return b, err
	}
	if traced {
		go func() {
			defer close(b.served)
			if c, err := b.ln.Accept(); err == nil {
				// The session's end reason is the harness closing it.
				_ = srv.ServeConn(serverConn{c, b.clock})
			}
		}()
	} else {
		go func() {
			defer close(b.served)
			_ = srv.Serve(b.ln) // always net.ErrClosed after close()
		}()
	}
	conn, err := net.Dial("tcp", b.ln.Addr().String())
	if err != nil {
		return b, err
	}
	if traced {
		conn = clientConn{conn, b.clock}
	}
	if b.cli, err = transport.NewAllocClient(conn, 1); err != nil {
		conn.Close()
		return b, err
	}

	for id := 0; id < w.resident; id++ {
		if err = b.start(); err != nil {
			return b, err
		}
		if (id+1)%4096 == 0 {
			if err = b.cli.Flush(); err != nil {
				return b, err
			}
		}
	}
	if w.interval == 0 {
		// The first Step folds the whole resident set in.
		if _, err = b.cli.Step(); err != nil {
			return b, err
		}
	} else {
		if err = b.cli.Flush(); err != nil {
			return b, err
		}
		// Let the ticks fold the resident set in and converge on it. The wait
		// is counted in ticks, not in quiet time, so setup_s does not depend
		// on how the convergence fan-out happens to be spaced.
		if err = b.idle(w.quiet); err != nil {
			return b, err
		}
		if n := srv.NumFlows(); n != w.resident {
			return b, fmt.Errorf("%s: daemon folded in %d of %d flowlets", w.name, n, w.resident)
		}
	}
	warm, err := newWindow(w.warmup, 1, false, w.interval > 0)
	if err != nil {
		return b, err
	}
	defer warm.free()
	if err = b.run(0, warm); err != nil {
		return b, err
	}
	if warm.failed > 0 {
		return b, fmt.Errorf("%s: %d of %d warm-up operations failed", w.name, warm.failed, warm.ops)
	}
	b.warmPerOp = warm.elapsed / time.Duration(w.warmup)
	return b, nil
}

// close tears the connection and the daemon down and waits for the serving
// goroutine. Closing twice is harmless.
func (b *bench) close() {
	if b.closed {
		return
	}
	b.closed = true
	if b.cli != nil {
		b.cli.Close()
	}
	b.srv.Close()
	if b.ln != nil {
		b.ln.Close()
	}
	<-b.served
}

// start buffers the registration of the next flowlet.
func (b *bench) start() error {
	src, dst := endpoints(b.seed, b.next, b.topo.NumServers())
	err := b.cli.FlowletStartSized(core.FlowID(b.next), src, dst, 1, flowletBytes)
	b.next++
	return err
}

// churn buffers one step's (or probe's) events: end the oldest live flowlet,
// start a new one, always paired so the resident count is constant.
func (b *bench) churn() error {
	for i := 0; i < b.w.churn; i++ {
		if err := b.cli.FlowletEnd(core.FlowID(b.next - int64(b.w.resident))); err != nil {
			return err
		}
		if err := b.start(); err != nil {
			return err
		}
	}
	b.churnOps++
	return nil
}

// drain reads asynchronous fan-out until the daemon has been quiet for the
// given time (free-running only): the writer goroutine bumps its counters
// after conn.Write, so Stats are only read once nothing is in flight.
func (b *bench) drain(quiet time.Duration) error {
	for {
		_, _, err := b.cli.Recv(quiet)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return nil
			}
			return err
		}
	}
}

// window holds one measured window's samples. Every buffer is mapped before
// the window starts (see column); the loops below only fill them.
type window struct {
	// lat is the flowlet-start → rate latency of each untraced operation in
	// ns.
	lat *column
	// latTraced and sp are the traced operations (a traced run alternates
	// slices): latency, then the five spans in the order of the span* constants.
	latTraced *column
	sp        [5]*column
	// late is how many ns after its due time each open-loop probe was
	// issued (traced and untraced alike).
	late *column
	// tracedUpdates counts rate updates decoded by traced operations.
	tracedUpdates int64
	// unmatched counts traced operations whose timestamps did not nest.
	unmatched int

	ops, failed int
	events      int64
	elapsed     time.Duration
	// marks cut the window into equal time slices for the robust estimators:
	// one before the first operation, one as each slice boundary passes, one
	// after the last operation. Preallocated for slices+1 entries.
	marks  []mark
	slices int
	// sample is a copy of one reply's updates, for the wire replay.
	sample []core.RateUpdate
}

// mark is the state of the window at one slice boundary.
type mark struct {
	ops int           // operations completed
	at  time.Duration // since the window began
}

// traceSlices is how many alternating untraced/traced slices a traced window
// is cut into, so drift over the window hits both halves alike.
const traceSlices = 10

// newWindow maps the sample buffers of a window of at most capacity
// operations, to be cut into the given number of time slices.
func newWindow(capacity, slices int, traced, openLoop bool) (*window, error) {
	res := &window{slices: slices, marks: make([]mark, 0, slices+1)}
	cols := []**column{&res.lat}
	if traced {
		cols = append(cols, &res.latTraced, &res.sp[0], &res.sp[1], &res.sp[2], &res.sp[3], &res.sp[4])
	}
	if openLoop {
		cols = append(cols, &res.late)
	}
	for _, c := range cols {
		var err error
		if *c, err = newColumn(capacity); err != nil {
			res.free()
			return nil, err
		}
	}
	return res, nil
}

func (res *window) free() {
	for _, c := range append([]*column{res.lat, res.latTraced, res.late}, res.sp[:]...) {
		c.free()
	}
}

// maxSlices and minSliceOps shape the robust estimators: an untraced window
// is cut into up to maxSlices equal time slices (10 ms each in a 20 s window)
// of about minSliceOps operations or more (36 ms on churn-20k, whose step
// takes 12 ms). Interference comes in stretches of milliseconds to seconds,
// and the shorter the slice, the more slices fall wholly between two of
// them.
const (
	maxSlices   = 2000
	minSliceOps = 3
)

// slicesFor is the number of slices for a window of d at the given pace.
func slicesFor(d, perOp time.Duration) int {
	return min(max(int(d/perOp)/minSliceOps, 1), maxSlices)
}

// markIfDue records a mark when the window has reached the next slice
// boundary.
func (res *window) markIfDue(elapsed, d time.Duration) {
	if d > 0 && len(res.marks) < cap(res.marks) && elapsed >= time.Duration(len(res.marks))*d/time.Duration(res.slices) {
		res.marks = append(res.marks, mark{res.ops, elapsed})
	}
}

// bestShare is the share of its samples a timing estimator stands on, the
// ones nearest the undisturbed machine: a closed loop's latency is the 5th
// percentile of its time slices' median latencies, its rate the 95th
// percentile of the slices' rates, and setup_s the 5th percentile of the
// repeated set-ups.
const bestShare = 0.05

// estimates condenses the untraced window into the end-to-end figures.
//
// On a closed loop every timing is compute, and what the host does to compute
// is one-sided: a neighbour on the shared machine, a busy sibling thread of
// the core, a stolen or migrated vCPU only ever add time, for milliseconds or
// for seconds. The plain median over a window follows them — ten runs of
// churn-20k on one binary spread 15-50% — so each slice is summarised on its
// own (median latency of its operations, operations per second) and the
// figure reported is that of the best twentieth of the slices. A cost every
// operation pays moves every slice and shows in full; what this cannot see is
// a cost that falls on a minority of slices, such as a collection cycle
// every few seconds (the traced pass counts allocated bytes per event for
// that). The whole-window median and mean rate are printed beside the
// result; how far they sit from these says how disturbed the run was.
//
// On the open loop the latency is tick wait, not compute, and the rate is
// what was offered: both are taken over the whole window.
func (res *window) estimates(w *workload) (p50us, opsPerSec float64, slices int) {
	if w.interval > 0 {
		p50us, _ = percentile(res.lat.micros(0, res.lat.n), 0.5)
		return p50us, float64(res.ops) / res.elapsed.Seconds(), 1
	}
	var medians, rates []float64
	for k := 1; k < len(res.marks); k++ {
		from, to := res.marks[k-1], res.marks[k]
		if to.ops == from.ops {
			continue
		}
		m, _ := percentile(res.lat.micros(from.ops, to.ops), 0.5)
		medians = append(medians, m)
		rates = append(rates, float64(to.ops-from.ops)/(to.at-from.at).Seconds())
	}
	p50us, _ = percentile(sortedCopy(medians), bestShare)
	opsPerSec, _ = percentile(sortedCopy(rates), 1-bestShare)
	return p50us, opsPerSec, len(rates)
}

// Request frame sizes, by arithmetic (the client writes exactly these).
var (
	addFrameBytes  = len(wire.AppendFlowletAdd(nil, wire.FlowletAdd{Size: flowletBytes}))
	endFrameBytes  = len(wire.AppendFlowletEnd(nil, wire.FlowletEnd{}))
	stepFrameBytes = len(wire.AppendStep(nil, wire.Step{}))
)

// requestBytes is the size of one operation's request.
func (w *workload) requestBytes() int {
	n := w.churn * (addFrameBytes + endFrameBytes)
	if w.interval == 0 {
		n += stepFrameBytes
	}
	return n
}

// run measures for d (or, when d is 0, for exactly cap(res.lat) operations —
// the warm-up) and fills res.
func (b *bench) run(d time.Duration, res *window) error {
	if b.w.interval == 0 {
		return b.runSteps(d, res)
	}
	return b.runProbes(d, res)
}

// tracing decides whether the operation starting at elapsed is traced, and
// arms the connection wrappers accordingly.
func (b *bench) tracing(elapsed, d time.Duration, res *window) bool {
	on := res.latTraced != nil && d > 0 && (elapsed/(d/traceSlices))%2 == 1
	b.clock.on.Store(on)
	return on
}

// record files one finished operation: entry and ret bound the call, from is
// where its latency is counted from (the due time on the open loop).
func (res *window) record(k *spanClock, traced bool, entry, ret, from int64, ok bool, updates int) {
	res.ops++
	if !ok || ret-from > oneSecond {
		res.failed++
	}
	if res.late != nil {
		res.late.add(entry - from)
	}
	if !traced {
		res.lat.add(ret - from)
		return
	}
	s, nested := k.cut(entry, ret)
	if !nested {
		res.unmatched++
		return
	}
	res.latTraced.add(ret - from)
	for i, v := range s {
		res.sp[i].add(v)
	}
	res.tracedUpdates += int64(updates)
}

// runSteps is the closed loop: churn, Step, and the reply must carry a rate
// for every flowlet the step started.
func (b *bench) runSteps(d time.Duration, res *window) error {
	k := b.clock
	begin := time.Now()
	for {
		elapsed := time.Since(begin)
		if d > 0 && elapsed >= d || res.ops == res.lat.cap() {
			break
		}
		res.markIfDue(elapsed, d)
		traced := b.tracing(elapsed, d, res)
		first := core.FlowID(b.next)
		entry := k.now()
		if err := b.churn(); err != nil {
			return err
		}
		ups, err := b.cli.Step()
		ret := k.now()
		if err != nil {
			return fmt.Errorf("%s: step %d: %w", b.w.name, res.ops, err)
		}
		got := 0
		for i := range ups {
			if ups[i].Flow >= first {
				got++
			}
		}
		res.record(k, traced, entry, ret, entry, got == b.w.churn, len(ups))
	}
	res.finish(b, time.Since(begin))
	k.on.Store(false)
	return nil
}

// runProbes is the paced open loop against a free-running daemon: a Poisson
// schedule, one probe outstanding, each timed from the instant it was due.
// Pacing spins on the clock: this class of sandbox rounds every sleep up to
// ~1.1 ms (host.sleep_quantum_us), which would quantise the schedule.
func (b *bench) runProbes(d time.Duration, res *window) error {
	k := b.clock
	n := res.lat.cap()
	if d > 0 {
		n = min(n, int(d.Seconds()*b.w.probesPerSec))
	}
	due := probeSchedule(b.seed, n, d)
	begin := time.Now()
	beginAt := int64(begin.Sub(k.base))
	for _, at := range due {
		for time.Since(begin) < at {
		}
		res.markIfDue(at, d)
		traced := b.tracing(at, d, res)
		probe := core.FlowID(b.next)
		entry := k.now()
		dueAt := beginAt + int64(at)
		if d == 0 {
			dueAt = entry // unpaced warm-up: nothing is due, so nothing is late
		}
		if err := b.churn(); err != nil {
			return err
		}
		if err := b.cli.Flush(); err != nil {
			return fmt.Errorf("%s: probe %d: %w", b.w.name, res.ops, err)
		}
		found, updates := false, 0
		for !found {
			left := time.Duration(dueAt + oneSecond - k.now())
			if left <= 0 {
				break
			}
			ups, _, err := b.cli.Recv(left)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					break
				}
				return fmt.Errorf("%s: probe %d: %w", b.w.name, res.ops, err)
			}
			updates += len(ups)
			for i := range ups {
				if ups[i].Flow == probe {
					found = true
				}
			}
		}
		ret := k.now()
		res.record(k, traced, entry, ret, dueAt, found, updates)
	}
	res.finish(b, time.Since(begin))
	k.on.Store(false)
	return nil
}

func (res *window) finish(b *bench, elapsed time.Duration) {
	res.elapsed = elapsed
	res.events = int64(res.ops) * int64(2*b.w.churn)
	if len(res.marks) > 0 {
		res.marks = append(res.marks[:min(len(res.marks), res.slices)], mark{res.ops, elapsed})
	}
}

// probeSchedule returns n ascending due times in [0, d): a Poisson process
// conditioned on its count, which is n uniform order statistics. Fixing the
// count keeps the offered load identical across seeds. With d == 0 (the
// warm-up) every probe is due at once.
func probeSchedule(seed uint64, n int, d time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	if d > 0 {
		rng := rand.New(rand.NewSource(int64(splitmix64(seed))))
		for i := range due {
			due[i] = time.Duration(rng.Int63n(int64(d)))
		}
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	}
	return due
}

// captureSample runs one more operation and keeps a copy of the updates its
// reply carried, so the wire replay encodes a frame the daemon really sent.
func (b *bench) captureSample(res *window) error {
	if err := b.churn(); err != nil {
		return err
	}
	var ups []core.RateUpdate
	var err error
	if b.w.interval == 0 {
		ups, err = b.cli.Step()
	} else if err = b.cli.Flush(); err == nil {
		ups, _, err = b.cli.Recv(time.Second)
	}
	res.sample = append([]core.RateUpdate(nil), ups...)
	return err
}

// snapshot is the daemon's public counters at one instant.
type snapshot struct {
	stats      server.Stats
	loop       metrics.LoopStats
	iterations uint64
	// allocated is the process's cumulative heap allocation in bytes: daemon
	// and client, since the harness allocates nothing inside a window.
	allocated uint64
}

// counters quiesces the connection and reads the daemon's public counters.
func (b *bench) counters() (snapshot, error) {
	if b.w.interval > 0 {
		if err := b.drain(20 * time.Millisecond); err != nil {
			return snapshot{}, err
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return snapshot{stats: b.srv.Stats(), loop: b.srv.LoopStats(), iterations: b.srv.Iterations(), allocated: mem.TotalAlloc}, nil
}

// idle lets the daemon run n churn-free iterations: Steps on a step-driven
// daemon, ticks on a free-running one.
func (b *bench) idle(n int) error {
	if b.w.interval == 0 {
		for i := 0; i < n; i++ {
			if _, err := b.cli.Step(); err != nil {
				return err
			}
		}
		return nil
	}
	target := b.srv.Iterations() + uint64(n)
	deadline := time.Now().Add(10 * time.Second)
	for b.srv.Iterations() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: daemon ran fewer than %d ticks in 10 s", b.w.name, n)
		}
		if err := b.drain(5 * time.Millisecond); err != nil {
			return err
		}
	}
	return nil
}
