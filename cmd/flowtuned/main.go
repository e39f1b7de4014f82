// Command flowtuned runs the Flowtune allocator as a networked daemon:
// endpoints connect over TCP, report flowlet starts and ends, and receive
// explicit rate updates as the allocator iterates, all over the compact
// binary protocol of internal/wire.
//
// The daemon free-runs: it iterates the moment flowlet notifications arrive —
// a flowlet start is answered in one iteration, not after one tick — and
// otherwise at least every -interval, which keeps the optimizer converging
// between arrivals (clients may also drive iterations explicitly with Step
// frames, which deterministic test harnesses use). The allocator is the
// FlowBlock/LinkBlock multicore one: -blocks sets its rack-block count
// (default 1, which runs on the loop's goroutine alone), whose blocks²
// FlowBlocks run on min(blocks², GOMAXPROCS) workers. Loop latency
// percentiles and update counters are logged every -stats-every.
//
// A cluster of daemons shares the fabric with -shard i/N: each daemon owns
// shard i of an N-way rack partition, accepts only flowlets sourced in its
// racks, and exchanges boundary prices with the peer daemons listed in
// -peers (dialed with bounded exponential backoff, so start order does not
// matter). -shard composes with -blocks, so each shard can itself span
// cores (`flowtuned -shard i/N -blocks M`). With -takeover the peers also replicate flow state to each other
// and adopt a dead daemon's rack block. Per-session hardening is configured
// with -max-session-flows, -max-frame-rate and -idle-timeout.
//
// -admin serves the observability endpoint (internal/telemetry): Prometheus
// text-format metrics on /metrics, liveness and drain-aware readiness probes
// on /healthz and /readyz, the convergence flight recorder as JSON on
// /trace, and net/http/pprof under /debug/pprof/.
//
// SIGINT/SIGTERM triggers a graceful drain: the daemon stops admitting new
// flowlets, finishes the in-flight exchange fan-out, pushes a final
// drain-flagged epoch notification so clients freeze at their last rates,
// and — when -snapshot names a file — persists its flow state for a warm
// restart (-drain-timeout bounds the wait; a second signal exits
// immediately). A daemon started with -snapshot pointing at an existing
// file re-seeds its registry and prices from it before listening, so
// returning clients re-attach to live allocations instead of re-registering
// from scratch.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowtuned: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable body of the command.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("flowtuned", flag.ContinueOnError)
	fs.SetOutput(out)
	listen := fs.String("listen", "127.0.0.1:9070", "TCP address to listen on (port 0 picks a free port)")
	racks := fs.Int("racks", 9, "racks in the scheduled two-tier fabric")
	serversPerRack := fs.Int("servers-per-rack", 16, "servers per rack")
	spines := fs.Int("spines", 4, "spine switches")
	capacity := fs.Float64("capacity", 10e9, "link capacity in bits/s")
	gamma := fs.Float64("gamma", 0.4, "NED step size (0 means 0.4)")
	threshold := fs.Float64("threshold", 0.01, "rate-update notification threshold")
	interval := fs.Duration("interval", time.Millisecond, "longest gap between iterations; arrivals iterate at once (0 = step-driven only)")
	blocks := fs.Int("blocks", 1, "rack blocks of the allocator (0 means 1; more needs a power of two dividing -racks): blocks² FlowBlocks on min(blocks², GOMAXPROCS) workers; composes with -shard for multicore shards")
	shard := fs.String("shard", "", "shard assignment i/N: own shard i of an N-way rack partition (empty = unsharded)")
	peers := fs.String("peers", "", "comma-separated addresses of the peer shard daemons, dialed with retry")
	takeover := fs.Bool("takeover", false, "replicate flow state to peers and adopt a dead peer's rack block (requires -shard)")
	heartbeatTimeout := fs.Duration("heartbeat-timeout", 0, "declare a silent peer dead after this long (0 = exchange-failure detection only)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "max wait for the in-flight fan-out during graceful shutdown")
	snapshot := fs.String("snapshot", "", "flow-state snapshot file: restored on start if present, written on graceful shutdown")
	maxSessionFlows := fs.Int("max-session-flows", 0, "max live flowlets per session (0 = unlimited)")
	maxFrameRate := fs.Float64("max-frame-rate", 0, "max frames/s per session before disconnect (0 = unlimited)")
	idleTimeout := fs.Duration("idle-timeout", 0, "disconnect sessions idle this long (0 = never)")
	admin := fs.String("admin", "", "admin HTTP address serving /metrics, /healthz, /readyz, /trace and /debug/pprof/ (port 0 picks a free port; empty = disabled)")
	epoch := fs.Uint64("epoch", 1, "allocator epoch announced to clients")
	statsEvery := fs.Duration("stats-every", 10*time.Second, "loop-stats logging period (0 disables)")
	serveFor := fs.Duration("serve-for", 0, "exit after this long (0 = run until SIGINT/SIGTERM)")
	verbose := fs.Bool("verbose", false, "log session lifecycle events")
	if err := fs.Parse(args); err != nil {
		return err
	}

	topo, err := topology.NewTwoTier(topology.Config{
		Racks:          *racks,
		ServersPerRack: *serversPerRack,
		Spines:         *spines,
		LinkCapacity:   *capacity,
	})
	if err != nil {
		return err
	}
	shardIndex, numShards, err := parseShard(*shard)
	if err != nil {
		return err
	}
	if *peers != "" && numShards == 0 {
		return fmt.Errorf("flowtuned: -peers requires -shard")
	}
	if *takeover && numShards == 0 {
		return fmt.Errorf("flowtuned: -takeover requires -shard")
	}
	cfg := server.Config{
		Topology:         topo,
		Gamma:            *gamma,
		UpdateThreshold:  *threshold,
		Interval:         *interval,
		Blocks:           *blocks,
		Epoch:            *epoch,
		MaxSessionFlows:  *maxSessionFlows,
		MaxFrameRate:     *maxFrameRate,
		IdleTimeout:      *idleTimeout,
		ShardIndex:       shardIndex,
		NumShards:        numShards,
		Takeover:         *takeover,
		HeartbeatTimeout: *heartbeatTimeout,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) { fmt.Fprintf(out, "flowtuned: "+format+"\n", args...) }
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	if *admin != "" {
		// The admin endpoint: Prometheus /metrics, drain-aware probes
		// (/readyz flips to 503 the moment a drain starts; /healthz stays
		// 200 until shutdown completes), the convergence flight recorder on
		// /trace, and pprof. Registered before any traffic so the loop
		// series cover the daemon's whole life.
		reg := telemetry.NewRegistry()
		srv.RegisterMetrics(reg)
		rec := telemetry.NewFlightRecorder(0)
		srv.AttachFlightRecorder(rec)
		adm, err := telemetry.NewAdmin(telemetry.AdminConfig{
			Registry: reg,
			Recorder: rec,
			Healthy:  func() bool { return !srv.Closed() },
			Ready:    func() bool { return !srv.Closed() && !srv.Draining() },
		})
		if err != nil {
			return err
		}
		adminAddr, err := adm.Start(*admin)
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(out, "flowtuned: admin endpoint on http://%s (/metrics /healthz /readyz /trace /debug/pprof/)\n", adminAddr)
	}

	if *snapshot != "" {
		snap, err := os.ReadFile(*snapshot)
		switch {
		case err == nil:
			if err := srv.Restore(snap); err != nil {
				return fmt.Errorf("flowtuned: restore %s: %w", *snapshot, err)
			}
			fmt.Fprintf(out, "flowtuned: restored %d flows from %s\n", srv.NumFlows(), *snapshot)
		case os.IsNotExist(err):
			// Cold start; the file is written on graceful shutdown.
		default:
			return fmt.Errorf("flowtuned: read snapshot: %w", err)
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "flowtuned: listening on %s (%d servers, interval %v, blocks %d, epoch %d%s)\n",
		ln.Addr(), topo.NumServers(), *interval, max(*blocks, 1), *epoch, shardName(shardIndex, numShards))

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	stop := make(chan struct{})
	defer close(stop)
	if *peers != "" {
		for _, addr := range strings.Split(*peers, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			go maintainPeer(srv, addr, out, stop)
		}
	}

	var statsC <-chan time.Time
	if *statsEvery > 0 {
		t := time.NewTicker(*statsEvery)
		defer t.Stop()
		statsC = t.C
	}
	var deadline <-chan time.Time
	if *serveFor > 0 {
		deadline = time.After(*serveFor)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	for {
		select {
		case s := <-sig:
			fmt.Fprintf(out, "flowtuned: received %v, draining (timeout %v; signal again to exit now)\n", s, *drainTimeout)
			return gracefulShutdown(srv, *drainTimeout, *snapshot, out, sig)
		case <-deadline:
			fmt.Fprintf(out, "flowtuned: serve window elapsed, shutting down\n")
			return gracefulShutdown(srv, *drainTimeout, *snapshot, out, sig)
		case err := <-serveErr:
			if err == net.ErrClosed {
				return nil
			}
			return err
		case <-statsC:
			logStats(out, srv)
		}
	}
}

// gracefulShutdown drains the daemon — no new flowlets, in-flight fan-out
// finished, clients frozen warm by a drain-flagged epoch notification — then
// persists the final flow-state snapshot when snapPath is set. A second
// signal during the drain aborts it and exits immediately.
func gracefulShutdown(srv *server.Server, timeout time.Duration, snapPath string, out io.Writer, sig <-chan os.Signal) error {
	type result struct {
		snap []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		snap, err := srv.Shutdown(timeout)
		done <- result{snap, err}
	}()
	var res result
	select {
	case res = <-done:
	case s := <-sig:
		fmt.Fprintf(out, "flowtuned: received %v again, exiting immediately\n", s)
		return srv.Close()
	}
	if res.err != nil {
		return res.err
	}
	if snapPath != "" {
		if err := os.WriteFile(snapPath, res.snap, 0o644); err != nil {
			return fmt.Errorf("flowtuned: write snapshot: %w", err)
		}
		fmt.Fprintf(out, "flowtuned: wrote flow-state snapshot to %s (%d bytes)\n", snapPath, len(res.snap))
	}
	fmt.Fprintf(out, "flowtuned: drained and shut down\n")
	return nil
}

// shardName labels the shard assignment for the startup line.
func shardName(index, shards int) string {
	if shards == 0 {
		return ""
	}
	return fmt.Sprintf(", shard %d/%d", index, shards)
}

// parseShard parses an "i/N" shard assignment; the empty string means
// unsharded. Range validation beyond i < N is the server's job.
func parseShard(s string) (index, shards int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("flowtuned: -shard must be i/N, got %q", s)
	}
	index, err = strconv.Atoi(strings.TrimSpace(i))
	if err != nil {
		return 0, 0, fmt.Errorf("flowtuned: -shard index: %w", err)
	}
	shards, err = strconv.Atoi(strings.TrimSpace(n))
	if err != nil {
		return 0, 0, fmt.Errorf("flowtuned: -shard count: %w", err)
	}
	if shards <= 0 || index < 0 || index >= shards {
		return 0, 0, fmt.Errorf("flowtuned: -shard %q out of range", s)
	}
	return index, shards, nil
}

// maintainPeer keeps one peer connection alive for the daemon's lifetime:
// it dials until the handshake succeeds (so cluster start order does not
// matter), then watches for the connection being dropped — a peer restart,
// a network failure, or an exchange timeout — and redials. Retries back off
// exponentially with jitter (capped at 2s) so a dead peer is not hammered
// in lockstep by every survivor, and the schedule resets once a dial
// succeeds. Failures are surfaced whenever their cause changes: a handshake
// *rejection* (mismatched -shard count, protocol version) is a permanent
// misconfiguration the operator must see, not a transient dial error to
// retry silently.
func maintainPeer(srv *server.Server, addr string, out io.Writer, stop <-chan struct{}) {
	lastErr := ""
	redial := &transport.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second}
	wait := func(d time.Duration) bool {
		select {
		case <-stop:
			return false
		case <-time.After(d):
			return true
		}
	}
	for {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		var shard int
		if err == nil {
			shard, err = srv.ConnectPeer(conn)
		}
		if err != nil {
			if msg := err.Error(); msg != lastErr {
				lastErr = msg
				fmt.Fprintf(out, "flowtuned: peer %s: %v (retrying)\n", addr, err)
			}
			if !wait(redial.Next()) {
				return
			}
			continue
		}
		lastErr = ""
		redial.Reset()
		fmt.Fprintf(out, "flowtuned: peer %s connected\n", addr)
		for srv.HasPeer(shard) {
			if !wait(500 * time.Millisecond) {
				return
			}
		}
		fmt.Fprintf(out, "flowtuned: peer %s dropped, redialing\n", addr)
	}
}

// logStats prints one loop-stats line.
func logStats(out io.Writer, srv *server.Server) {
	ls := srv.LoopStats()
	st := srv.Stats()
	fmt.Fprintf(out, "flowtuned: %d flows, %d sessions; %d iterations (p50 %.1fµs p99 %.1fµs), %d updates sent, %d coalesced\n",
		srv.NumFlows(), st.SessionsActive, ls.Iterations,
		ls.LatencySec.P50*1e6, ls.LatencySec.P99*1e6, st.UpdatesSent, st.UpdatesCoalesced)
}
