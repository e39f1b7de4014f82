// Command bench is the repository benchmark: wall-clock flowlet-start → rate
// latency and event capacity through a real flowtuned daemon on a loopback
// TCP listener, five fixed workloads, and a traced pass that attributes the
// round trip to layers from outside the daemon. See README.md.
//
// The driver's contract (BENCHMARK.json) is
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints a report and, as the last line of standard output, one JSON
// object {correct, attempted, failed, metrics}. -repeat and -compare are for
// a builder weighing two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// run is the testable body of the command. It returns the exit code: 0 for a
// correct run, 1 for a run that completed but failed its correctness gate
// (the result line is still printed, with correct=false), 2 for a run that
// could not complete.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (required unless -compare)")
	seed := fs.Uint64("seed", 1, "seed of the traffic (endpoints of every flowlet, probe schedule)")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0 = untraced pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times, each in a fresh process, and write every result to -out")
	outFile := fs.String("out", "", "append the full result (fingerprint and sample counts included) to this file as one JSON line")
	compare := fs.Bool("compare", false, "compare two -repeat result files: bench -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), out)
	}
	w := findWorkload(*name)
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return 2, fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	d := time.Duration(*seconds * float64(time.Second))
	if *repeat > 0 {
		if *outFile == "" {
			return 2, fmt.Errorf("-repeat needs -out")
		}
		return repeatRuns(w, *seed, *seconds, *trace, *repeat, *outFile, out)
	}
	res, err := measure(w, *seed, d, *trace == 1)
	if err != nil {
		return 2, err
	}
	res.print(out)
	if *outFile != "" {
		if err := appendResult(*outFile, res); err != nil {
			return 2, err
		}
	}
	if !res.Correct {
		return 1, fmt.Errorf("%s: %s", w.name, res.why)
	}
	return 0, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// metricValue is one reported number. Samples is the number of observations
// behind a percentile or median (0 for counts and ratios); Supported is false
// for a percentile with fewer than ten samples beyond it.
type metricValue struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	Samples   int     `json:"samples,omitempty"`
	Supported *bool   `json:"supported,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Traced      bool                   `json:"traced"`
	Fingerprint fingerprint            `json:"fingerprint"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`

	defs  []metricDef
	why   string // why the run is not correct
	notes string // reported beside the metrics, not among them
}

func (r *result) set(name string, v float64) { r.setN(name, v, 0, true) }

func (r *result) setN(name string, v float64, samples int, supported bool) {
	for _, d := range r.defs {
		if d.name == name {
			m := metricValue{Value: v, Unit: d.unit, Samples: samples}
			if !supported {
				m.Supported = &supported
			}
			r.Metrics[name] = m
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// pct files the p-quantile of an ascending sample with its sample count.
func (r *result) pct(name string, sorted []float64, p float64) float64 {
	v, ok := percentile(sorted, p)
	r.setN(name, v, len(sorted), ok)
	return v
}

// print writes the human-readable report and then the contract's result line.
func (r *result) print(out io.Writer) {
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%t (loopback TCP, not a real link)\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(out, "# machine: %s\n", r.Fingerprint)
	for _, d := range r.defs {
		m := r.Metrics[d.name]
		line := fmt.Sprintf("%-34s %16.6g %-6s", d.name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if m.Supported != nil {
			line += " (fewer than 10 samples beyond this percentile)"
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
	if r.notes != "" {
		fmt.Fprintln(out, r.notes)
	}
	if !r.Correct {
		fmt.Fprintf(out, "# NOT CORRECT: %s\n", r.why)
	}
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]contractMetric, len(r.Metrics))}
	for name, m := range r.Metrics {
		line.Metrics[name] = contractMetric{m.Value, m.Unit}
	}
	enc, _ := json.Marshal(line) // plain numbers and strings cannot fail to encode
	fmt.Fprintf(out, "%s\n", enc)
}

// After the measured daemon has been torn down, set-up is repeated on fresh
// daemons until setupBudget has been spent on it or maxSetups have run, and
// setup_s is the bestShare quantile of them all (the quickest of fewer than
// twenty): a 2 ms set-up needs many repetitions to be steady, and the first,
// in a process that has done nothing yet, is the slowest. The repeats come
// last so that the RSS figures cover one daemon's life.
const (
	setupBudget = 2 * time.Second
	maxSetups   = 200
)

// measure runs one pass of one workload: the untraced pass yields the
// end-to-end metrics, the traced pass the per-layer ones.
func measure(w *workload, seed uint64, d time.Duration, traced bool) (*result, error) {
	res := &result{
		Workload: w.name, Seed: seed, Seconds: d.Seconds(), Traced: traced,
		Metrics: make(map[string]metricValue), defs: endToEnd,
	}
	if traced {
		res.defs = perLayer
	}
	procs := runtime.GOMAXPROCS(0)
	if w.interval == 0 {
		// A step-driven round trip is two goroutines taking turns — the
		// harness's and the session reader that runs the Step — so a second
		// P adds no parallelism, only a second way to be scheduled: a
		// hand-over that wakes a parked thread on the other vCPU. With a CPU
		// hog bursting in the VM that made step-idle's round trip 23-25 us
		// instead of 16 in 40% of the window's slices, against 8% with one
		// P, which keeps every hand-over on the running thread.
		runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(procs)
	}
	var err error
	if res.Fingerprint, err = takeFingerprint(w.requestBytes()); err != nil {
		return nil, err
	}
	began := time.Now()
	b, err := setup(w, seed, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	firstSetup := time.Since(began)
	defer b.close()
	rss := 0.0
	if !traced {
		// What daemon and harness hold after a fixed amount of work: the
		// set-up. On a closed loop the work done by the end of the window is
		// as much as the host let through, and where the heap grows with the
		// work (churn-20k's route cache) so does the RSS; it is read again
		// there, for the report only.
		debug.FreeOSMemory()
		rss = residentMB("VmRSS")
	}

	// Size the sample buffers from the warm-up's pace so the window itself
	// allocates nothing.
	perOp := max(b.warmPerOp, time.Microsecond)
	capacity, slices := int(2*d/perOp)+1024, slicesFor(d, perOp)
	if w.interval > 0 {
		// Paced, and its figures are taken over the whole window.
		capacity, slices = int(d.Seconds()*w.probesPerSec)+1, 1
	}
	win, err := newWindow(capacity, slices, traced, w.interval > 0)
	if err != nil {
		return nil, err
	}
	defer win.free()

	before, err := b.counters()
	if err != nil {
		return nil, err
	}
	if err := b.run(d, win); err != nil {
		return nil, err
	}
	peak := residentMB("VmHWM")
	after, err := b.counters()
	if err != nil {
		return nil, err
	}
	if win.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %v", w.name, d)
	}
	rssEnd := 0.0
	if traced {
		if err := b.captureSample(win); err != nil {
			return nil, err
		}
	} else {
		// The high-water mark is reported too, but where the heap is still
		// growing it depends on which phase of a collection cycle the window
		// happened to end in.
		debug.FreeOSMemory()
		rssEnd = residentMB("VmRSS")
	}
	if err := b.idle(w.quiet); err != nil {
		return nil, err
	}
	var lt *layerTimes
	if traced {
		lt = &layerTimes{}
	}
	var mirror *core.Allocator
	if traced || w.mirror {
		if mirror, err = b.replay(lt); err != nil {
			return nil, err
		}
	}
	if !w.mirror {
		mirror = nil // replayed for its timings only
	}
	gateErr := b.gate(mirror)

	p50us, opsPerSec, slices := win.estimates(w)
	eventsPerSec := opsPerSec * float64(2*w.churn)
	offered := 2 * float64(w.churn) * w.probesPerSec
	res.Attempted, res.Failed = win.ops, win.failed
	switch {
	// A failed gate or a backlogged open loop fails the whole window.
	case gateErr != nil:
		res.why, res.Failed = gateErr.Error(), win.ops
	case w.interval > 0 && eventsPerSec < 0.95*offered:
		res.why, res.Failed = fmt.Sprintf("backlogged: %.1f events/s against %.0f offered", eventsPerSec, offered), win.ops
	case win.failed > 0:
		res.why = fmt.Sprintf("%d of %d operations failed (error, over 1 s, or a reply without the started flowlet's rate)", win.failed, win.ops)
	}
	res.Correct = res.why == ""

	delta := deltaOf(before, after)
	if traced {
		res.set("host.sleep_quantum_us", res.Fingerprint.SleepQuantumUs)
		res.set("socket.rtt_floor_us", res.Fingerprint.RTTFloorUs)
		res.layerMetrics(b, win, delta, after, lt)
		if w.par2 {
			runtime.GOMAXPROCS(procs) // the 2-block engine is measured on the Ps it would have
			us, err := b.replayPar2()
			if err != nil {
				return nil, err
			}
			res.set("core.par2_iterate_us", us)
		} else {
			res.set("core.par2_iterate_us", 0)
		}
		res.notes = fmt.Sprintf("# %d of %d traced operations had timestamps that did not nest and were dropped", win.unmatched, win.unmatched+win.latTraced.n)
		return res, res.wireMetrics(win.sample)
	}

	b.close()
	setups, err := repeatSetups(w, seed, firstSetup)
	if err != nil {
		return nil, err
	}
	lat := win.lat.micros(0, win.lat.n)
	res.setN("start_to_rate_p50_us", p50us, len(lat), true)
	res.set("events_per_s", eventsPerSec)
	// A count, not a timing: the whole window's.
	res.set("wire_bytes_per_event", float64(delta.fanoutBytes+int64(win.ops*w.requestBytes()))/float64(win.events))
	res.set("rss_after_gc_mb", rss)
	quickest, _ := percentile(sortedCopy(setups), bestShare)
	res.setN("setup_s", quickest, len(setups), true)
	res.notes = fmt.Sprintf("# not gated: whole-window p50 %s, p90 %s, p99 %s over %d operations, %.6g events/s (tail.* of the traced pass); %d time slices; RSS at the end of the window %.1f MB after collection, peak (VmHWM) %.1f MB",
		describe(lat, 0.50), describe(lat, 0.90), describe(lat, 0.99), len(lat), float64(win.events)/win.elapsed.Seconds(), slices, rssEnd, peak)
	return res, nil
}

// repeatSetups sets up and tears down fresh daemons within the budget and
// returns every set-up time in seconds, the measured daemon's first.
func repeatSetups(w *workload, seed uint64, first time.Duration) ([]float64, error) {
	setups := []float64{first.Seconds()}
	for spent := first; spent < setupBudget && len(setups) < maxSetups; {
		runtime.GC()
		began := time.Now()
		b, err := setup(w, seed, false)
		if err != nil {
			return nil, fmt.Errorf("%s: repeated setup: %w", w.name, err)
		}
		took := time.Since(began)
		b.close()
		setups = append(setups, took.Seconds())
		spent += took
	}
	return setups, nil
}

// describe formats a percentile for the report's informational line.
func describe(sorted []float64, p float64) string {
	v, ok := percentile(sorted, p)
	if !ok {
		return fmt.Sprintf("%.6g us (fewer than 10 samples beyond)", v)
	}
	return fmt.Sprintf("%.6g us", v)
}

// counterDelta is what the daemon's public counters moved by over a window.
type counterDelta struct {
	iterations, updates, coalesced, batches, dropped int64
	fanoutBytes, fanoutFixed, allocated              int64
}

func deltaOf(a, b snapshot) counterDelta {
	dropped := func(s snapshot) int64 {
		return s.stats.DuplicateAdds + s.stats.UnknownEnds + s.stats.RejectedAdds + s.stats.LimitedAdds
	}
	return counterDelta{
		iterations:  int64(b.iterations - a.iterations),
		updates:     b.stats.UpdatesSent - a.stats.UpdatesSent,
		coalesced:   b.stats.UpdatesCoalesced - a.stats.UpdatesCoalesced,
		batches:     b.stats.BatchesSent - a.stats.BatchesSent,
		dropped:     dropped(b) - dropped(a),
		fanoutBytes: b.stats.FanoutBytes - a.stats.FanoutBytes,
		fanoutFixed: b.stats.FanoutBytesFixed - a.stats.FanoutBytesFixed,
		allocated:   int64(b.allocated - a.allocated),
	}
}

// layerMetrics turns the traced window, the counter deltas and the timed
// replay into the per-layer table.
func (r *result) layerMetrics(b *bench, win *window, delta counterDelta, after snapshot, lt *layerTimes) {
	n := win.latTraced.n
	var sp [5][]float64
	var p50 [5]float64
	for i, name := range []string{"transport.encode_us", "socket.up_us", "server.turnaround_us", "socket.down_us", "transport.decode_us"} {
		sp[i] = win.sp[i].micros(0, n)
		p50[i] = r.pct(name, sp[i], 0.5)
	}
	r.pct("server.turnaround_p99_us", sp[spanTurnaround], 0.99)
	r.set("transport.decode_ns_per_update", ratio(metrics.Mean(sp[spanDecode])*1e3*float64(n), float64(win.tracedUpdates)))

	traced, untraced := win.latTraced.micros(0, n), win.lat.micros(0, win.lat.n)
	tracedP50, _ := percentile(traced, 0.5)
	untracedP50, _ := percentile(untraced, 0.5)
	lateP50 := 0.0
	if win.late != nil {
		late := win.late.micros(0, win.late.n)
		lateP50, _ = percentile(late, 0.5)
		r.pct("generator.late_p99_us", late, 0.99)
	} else {
		r.set("generator.late_p99_us", 0) // a closed loop has no schedule to be late for
	}
	all := append(untraced, traced...)
	sort.Float64s(all)
	r.pct("tail.start_to_rate_p90_us", all, 0.90)
	r.pct("tail.start_to_rate_p99_us", all, 0.99)
	r.set("trace.overhead_share", ratio(tracedP50, untracedP50)-1)
	r.set("trace.unaccounted_share", 1-ratio(lateP50+p50[0]+p50[1]+p50[2]+p50[3]+p50[4], tracedP50))

	turn := p50[spanTurnaround]
	iterate := after.loop.LatencySec.P50 * 1e6
	r.set("server.iterate_us", iterate)
	r.set("server.self_us", turn-iterate)
	r.set("server.iterate_share", ratio(iterate, untracedP50))
	r.set("server.iterations_per_s", float64(delta.iterations)/win.elapsed.Seconds())
	r.set("server.ns_per_update", ratio((turn-iterate)*1e3, float64(delta.updates)/float64(win.ops)))
	r.set("server.updates_per_event", ratio(float64(delta.updates), float64(win.events)))
	r.set("server.batches_per_step", ratio(float64(delta.batches), float64(delta.iterations)))
	r.set("server.coalesced_share", ratio(float64(delta.coalesced), float64(delta.updates+delta.coalesced)))
	r.set("server.fanout_bytes_per_update", ratio(float64(delta.fanoutBytes), float64(delta.updates)))
	r.set("server.fanout_compression", ratio(float64(delta.fanoutFixed), float64(delta.fanoutBytes)))
	r.set("server.dropped_share", ratio(float64(delta.dropped), float64(win.events)))
	r.set("server.alloc_bytes_per_event", ratio(float64(delta.allocated), float64(win.events)))

	clock := clockCost()
	coreIterate := r.pct("core.iterate_us", sortedCopy(lt.iterate), 0.5)
	ned := r.pct("num.ned_step_us", sortedCopy(lt.ned), 0.5)
	fnorm := r.pct("norm.fnorm_us", sortedCopy(lt.fnorm), 0.5)
	flows := float64(b.w.resident)
	r.set("core.filter_us", coreIterate-ned-fnorm)
	r.set("core.ns_per_flow_iter", coreIterate*1e3/flows)
	r.set("core.update_share", ratio(float64(lt.updatesEmitted), float64(lt.flowsExamined)))
	r.set("core.flowlet_start_ns", lt.start.mean(clock))
	r.set("core.flowlet_end_ns", lt.end.mean(clock))
	r.set("num.ns_per_flow", ned*1e3/flows)
	r.set("topology.route_ns", lt.route.mean(clock))
	r.set("topology.route_hit_share", 1-ratio(float64(lt.routeMisses), float64(lt.routeCalls)))
	r.set("telemetry.record_ns", lt.record.mean(clock))
}

// wireMetrics replays the wire codec on the frame the traced pass captured.
func (r *result) wireMetrics(sample []core.RateUpdate) error {
	wt, err := wireReplay(sample)
	if err != nil {
		return err
	}
	r.set("wire.add_encode_ns", wt.addEncode)
	r.set("wire.add_decode_ns", wt.addDecode)
	r.set("wire.rate_encode_ns_per_entry", wt.rateEncode)
	r.set("wire.rate_decode_ns_per_entry", wt.rateDecode)
	r.set("wire.bytes_per_rate_entry", wt.bytesPerEntry)
	r.set("wire.allocs_per_frame", wt.allocsPerFrame)
	return nil
}
