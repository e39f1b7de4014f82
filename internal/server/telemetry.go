package server

import (
	"math"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

// serverTelemetry is the daemon's hook into the telemetry layer. All fields
// are wired before traffic (RegisterMetrics / AttachFlightRecorder) and then
// only read on the iteration path, so no extra synchronization is needed
// beyond s.mu, which the iterate hook already holds.
type serverTelemetry struct {
	// hist and churn are written inside iterate; nil until RegisterMetrics.
	hist  *telemetry.Histogram
	churn *telemetry.Counter

	// rec and the price-residual buffers are nil until AttachFlightRecorder.
	rec       *telemetry.FlightRecorder
	links     []topology.LinkID
	prev, cur []float64

	// Previous scrape points of the lifetime counters, so FlightSamples
	// carry per-iteration deltas instead of monotonic totals.
	prevFolds, prevStale, prevFanout, prevFanoutFixed int64
}

// telLocked returns the server's telemetry state, creating it on first use.
// Callers must hold s.mu.
func (s *Server) telLocked() *serverTelemetry {
	if s.telemetry == nil {
		s.telemetry = &serverTelemetry{}
	}
	return s.telemetry
}

// IterationLatencyBuckets are the histogram bounds for the iteration-latency
// series: 1 µs to ~262 ms, exponential — the paper's ~10 µs NED budget sits
// in the fourth bucket, so budget violations are visible at a glance.
var IterationLatencyBuckets = telemetry.ExpBuckets(1e-6, 4, 10)

// RegisterMetrics exposes every daemon counter surface in reg, all under the
// flowtune_ prefix and carrying the given labels (the cluster admin passes
// shard="i"). Existing atomic counters are bound at scrape time — the hot
// path keeps its plain atomics and nothing is double-counted. The iteration
// latency histogram and churn counter are the only series recorded inside
// the loop, both allocation-free. Call before serving traffic; registering
// the same labels twice panics (duplicate series).
func (s *Server) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	counter := func(name, help string, v *atomic.Int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) }, labels...)
	}
	dropped := func(reason string, v *atomic.Int64) {
		reg.CounterFunc("flowtune_events_dropped_total",
			"Flowlet events not applied to the allocator, by reason.",
			func() float64 { return float64(v.Load()) },
			withLabel(labels, telemetry.Label{Key: "reason", Value: reason})...)
	}
	wireBytes := func(direction, encoding string, v *atomic.Int64) {
		reg.CounterFunc("flowtune_wire_bytes_total",
			"Bytes attributed to rate fan-out and the boundary exchange, actual encoding vs the fixed v3 cost of the same payloads.",
			func() float64 { return float64(v.Load()) },
			withLabel(labels,
				telemetry.Label{Key: "direction", Value: direction},
				telemetry.Label{Key: "encoding", Value: encoding})...)
	}

	counter("flowtune_sessions_accepted_total", "Endpoint sessions accepted since start.", &s.stSessions)
	reg.GaugeFunc("flowtune_sessions_active", "Endpoint sessions currently connected.",
		func() float64 { return float64(s.stActive.Load()) }, labels...)
	counter("flowtune_events_received_total", "Flowlet start/end events received.", &s.stEvents)
	dropped("duplicate_add", &s.stDupAdds)
	dropped("unknown_end", &s.stUnknown)
	dropped("rejected_add", &s.stRejected)
	dropped("limited_add", &s.stLimited)
	dropped("drain_reject", &s.stDrainRej)
	counter("flowtune_updates_sent_total", "Rate updates written to sessions.", &s.stUpdates)
	counter("flowtune_updates_coalesced_total", "Rate updates superseded before delivery.", &s.stCoalesced)
	counter("flowtune_update_batches_total", "Rate-update batches written.", &s.stBatches)
	counter("flowtune_peer_rejected_total", "Peer bundles rejected (bad epoch or shape).", &s.stPeerRej)
	counter("flowtune_adopted_flows_total", "Flows adopted from failed peer shards.", &s.stAdopted)
	counter("flowtune_takeovers_total", "Peer-shard takeovers performed.", &s.stTakeovers)
	counter("flowtune_exchange_folds_total", "Peer boundary bundles folded into iterations.", &s.stExchFolds)
	counter("flowtune_exchange_staleness_iters_total", "Summed age, in iterations, of folded peer bundles.", &s.stExchStale)
	wireBytes("fanout", "wire", &s.stFanoutBytes)
	wireBytes("fanout", "fixed_v3", &s.stFanoutFixed)
	wireBytes("exchange", "wire", &s.stExchBytes)
	wireBytes("exchange", "fixed_v3", &s.stExchFixed)

	reg.GaugeFunc("flowtune_flows", "Flows currently registered in the allocator.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.alloc.NumFlows())
	}, labels...)
	reg.GaugeFunc("flowtune_epoch", "Allocator epoch announced in handshakes.",
		func() float64 { return float64(s.epoch.Load()) }, labels...)
	reg.GaugeFunc("flowtune_draining", "1 while the daemon is draining, else 0.", func() float64 {
		if s.Draining() {
			return 1
		}
		return 0
	}, labels...)

	reg.CounterFunc("flowtune_iterations_total", "Allocator iterations run.",
		func() float64 { return float64(s.loop.Snapshot().Iterations) }, labels...)
	counter("flowtune_arrival_iterations_total", "Free-running iterations triggered by arriving flowlet events rather than the interval ticker.", &s.stArrivals)
	reg.GaugeFunc("flowtune_iteration_latency_p50_seconds", "Median iteration latency over the recent window.",
		func() float64 { return s.loop.Snapshot().LatencySec.P50 }, labels...)
	reg.GaugeFunc("flowtune_iteration_latency_p99_seconds", "99th-percentile iteration latency over the recent window.",
		func() float64 { return s.loop.Snapshot().LatencySec.P99 }, labels...)
	reg.GaugeFunc("flowtune_iterations_per_second", "Busy-time iteration throughput.",
		func() float64 { return s.loop.Snapshot().IterationsPerSec }, labels...)

	hist := reg.Histogram("flowtune_iteration_latency_seconds",
		"Iteration wall-clock latency distribution.", IterationLatencyBuckets, labels...)
	churn := reg.Counter("flowtune_churn_events_total",
		"Flowlet add/end events folded in at iteration boundaries.", labels...)

	s.mu.Lock()
	t := s.telLocked()
	t.hist = hist
	t.churn = churn
	s.mu.Unlock()
}

// withLabel returns base extended with extra labels, copying so label slices
// registered under different reasons never alias.
func withLabel(base []telemetry.Label, extra ...telemetry.Label) []telemetry.Label {
	out := make([]telemetry.Label, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// AttachFlightRecorder starts sampling the convergence flight recorder at
// every iteration boundary: objective, max price residual, exchange activity,
// fan-out byte deltas, churn, and latency. The price-residual buffers are
// allocated here, once — recording itself is allocation-free. Call before
// serving traffic.
func (s *Server) AttachFlightRecorder(rec *telemetry.FlightRecorder) {
	n := s.cfg.Topology.NumLinks()
	links := make([]topology.LinkID, n)
	for i := range links {
		links[i] = topology.LinkID(i)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.telLocked()
	t.rec = rec
	t.links = links
	t.prev = make([]float64, n)
	t.cur = make([]float64, n)
	// Seed the residual baseline with the current prices so the first sample
	// measures the first iteration's movement, not the distance from zero.
	s.alloc.LinkPrices(t.links, t.prev)
}

// FlightRecorder returns the attached recorder (nil when none).
func (s *Server) FlightRecorder() *telemetry.FlightRecorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.telemetry == nil {
		return nil
	}
	return s.telemetry.rec
}

// recordTelemetryLocked samples the telemetry surfaces after one iteration.
// Called from iterate with s.mu held; everything on this path is
// allocation-free (pinned by TestIterateZeroAllocsWithTelemetry).
func (s *Server) recordTelemetryLocked(seq uint64, latencySec float64, updates, churn int) {
	t := s.telemetry
	if t.hist != nil {
		t.hist.Observe(latencySec)
	}
	if t.churn != nil {
		t.churn.Add(int64(churn))
	}
	if t.rec == nil {
		return
	}
	var residual float64
	s.alloc.LinkPrices(t.links, t.cur)
	for i, p := range t.cur {
		if d := math.Abs(p - t.prev[i]); d > residual {
			residual = d
		}
	}
	t.prev, t.cur = t.cur, t.prev
	obj := s.alloc.Objective()
	if math.IsInf(obj, 0) || math.IsNaN(obj) {
		obj = 0 // JSON cannot carry non-finite values; see FlightSample.Objective
	}
	folds := s.stExchFolds.Load()
	stale := s.stExchStale.Load()
	fan := s.stFanoutBytes.Load()
	fanFixed := s.stFanoutFixed.Load()
	t.rec.Record(telemetry.FlightSample{
		Iteration:        seq,
		Objective:        obj,
		MaxPriceResidual: residual,
		ExchangeFolds:    folds - t.prevFolds,
		StalenessIters:   stale - t.prevStale,
		FanoutBytes:      fan - t.prevFanout,
		FanoutBytesFixed: fanFixed - t.prevFanoutFixed,
		ChurnEvents:      churn,
		Updates:          updates,
		LatencySec:       latencySec,
	})
	t.prevFolds, t.prevStale, t.prevFanout, t.prevFanoutFixed = folds, stale, fan, fanFixed
}
