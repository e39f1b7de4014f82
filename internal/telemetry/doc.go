// Package telemetry is the daemon's observability layer: a dependency-free
// metrics registry (atomic counters, gauges and fixed-bucket histograms with
// zero allocations on the hot path), a convergence flight recorder (a
// fixed-size ring of per-iteration samples), and an admin HTTP endpoint that
// exposes both — hand-rolled Prometheus text-format exposition on /metrics,
// net/http/pprof under /debug/pprof/, drain-aware /healthz and /readyz
// probes, and the flight-recorder ring as JSON on /trace.
//
// The registry exposes the daemon's counter surfaces — its server.Stats
// record and metrics.LoopStats — behind scrape-time CounterFunc/GaugeFunc
// bindings, so every count is kept once, at its source, and nothing on the
// allocator's iteration path changes shape. Everything is hand-rolled on
// the standard library: the module has no external dependencies, and the
// Prometheus exposition format is simple enough that writing (and linting,
// see Lint) it directly is less code than vendoring a client library.
package telemetry
