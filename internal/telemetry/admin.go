package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// AdminConfig wires an admin endpoint to its sources.
type AdminConfig struct {
	// Registry backs /metrics. Required.
	Registry *Registry
	// Recorder backs /trace; nil serves an empty trace.
	Recorder *FlightRecorder
	// Healthy backs /healthz: liveness. Nil means always healthy. A daemon
	// stays healthy through a drain — only process death (Shutdown
	// completing) should flip it, so orchestrators do not kill a daemon
	// that is busy handing its flows over.
	Healthy func() bool
	// Ready backs /readyz: readiness to take new work. Nil means always
	// ready. Wire it to the drain flag: readiness must flip to 503 the
	// moment Drain starts, so load balancers stop routing new endpoints to
	// the daemon before the drain-flagged EpochNotify ever lands.
	Ready func() bool
}

// Admin serves the observability endpoints of one daemon: Prometheus
// text-format /metrics, /healthz and /readyz probes, the flight-recorder ring
// on /trace, and net/http/pprof under /debug/pprof/.
type Admin struct {
	cfg AdminConfig
	srv *http.Server

	mu sync.Mutex
	ln net.Listener
}

// NewAdmin creates an admin endpoint. Call Start (own listener) or Handler
// (caller-managed serving) to expose it.
func NewAdmin(cfg AdminConfig) (*Admin, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("telemetry: AdminConfig.Registry is required")
	}
	a := &Admin{cfg: cfg}
	a.srv = &http.Server{
		Handler:           a.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return a, nil
}

// Handler returns the admin mux. The pprof handlers are mounted explicitly
// (not via the net/http/pprof DefaultServeMux side effect), so importing this
// package never pollutes a caller's default mux.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/healthz", probeHandler(a.cfg.Healthy))
	mux.HandleFunc("/readyz", probeHandler(a.cfg.Ready))
	mux.HandleFunc("/trace", a.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (a *Admin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.cfg.Registry.WriteText(w)
}

func (a *Admin) handleTrace(w http.ResponseWriter, r *http.Request) {
	payload := FlightTrace{Samples: []FlightSample{}}
	if a.cfg.Recorder != nil {
		payload = a.cfg.Recorder.Trace()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// probeHandler renders a health probe: 200 "ok" or 503 "unavailable".
func probeHandler(probe func() bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if probe != nil && !probe() {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	}
}

// Start listens on addr (port 0 picks a free port) and serves in the
// background until Close. It returns the bound address.
func (a *Admin) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: admin listen %s: %w", addr, err)
	}
	a.mu.Lock()
	a.ln = ln
	a.mu.Unlock()
	go a.srv.Serve(ln)
	return ln.Addr(), nil
}

// Addr returns the bound listen address (nil before Start).
func (a *Admin) Addr() net.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ln == nil {
		return nil
	}
	return a.ln.Addr()
}

// Close stops the admin server and its listener.
func (a *Admin) Close() error {
	a.mu.Lock()
	ln := a.ln
	a.ln = nil
	a.mu.Unlock()
	err := a.srv.Close()
	if ln != nil {
		ln.Close()
	}
	return err
}
