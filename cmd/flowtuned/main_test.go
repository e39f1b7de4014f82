package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/transport"
)

// syncBuffer is a goroutine-safe output sink for the daemon under test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// TestDaemonServesClients boots the daemon on a free port, drives it with a
// real TCP client, and lets the serve window close it down.
func TestDaemonServesClients(t *testing.T) {
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-racks", "4", "-servers-per-rack", "4", "-spines", "2",
			"-interval", "200us",
			"-serve-for", "2s",
			"-stats-every", "0",
		}, &out)
	}()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; output: %q", out.String())
		} else {
			time.Sleep(time.Millisecond)
		}
	}

	cli, err := transport.DialAlloc(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.FlowletStart(1, 0, 7, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	updates, _, err := cli.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 1 || updates[0].Flow != 1 || updates[0].Rate <= 0 {
		t.Fatalf("updates = %+v; want one positive rate for flow 1", updates)
	}
	cli.Close()

	if err := <-done; err != nil {
		t.Fatalf("run returned %v; output: %q", err, out.String())
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("missing shutdown line in output: %q", out.String())
	}
}

// TestDaemonDrainSnapshotWarmRestart covers the survivable lifecycle end to
// end: SIGTERM drains the daemon gracefully, the flow-state snapshot lands
// in -snapshot, and a second daemon started from that file re-seeds its
// registry so a returning client re-attaches to a live allocation.
func TestDaemonDrainSnapshotWarmRestart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "flowtuned.snap")
	common := []string{
		"-listen", "127.0.0.1:0",
		"-racks", "4", "-servers-per-rack", "4", "-spines", "2",
		"-interval", "200us", "-stats-every", "0",
		"-snapshot", snap,
	}

	var out1 syncBuffer
	_, done1 := startShardDaemon(t, &out1, common...)
	addr1 := listenRE.FindStringSubmatch(out1.String())[1]
	cli, err := transport.DialAlloc(addr1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.FlowletStart(7, 0, 12, 2); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Recv(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The first SIGTERM drains; the still-connected session keeps its flow
	// alive into the snapshot.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done1; err != nil {
		t.Fatalf("drain: %v; output %q", err, out1.String())
	}
	if !strings.Contains(out1.String(), "wrote flow-state snapshot") {
		t.Fatalf("no snapshot written; output %q", out1.String())
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	var out2 syncBuffer
	_, done2 := startShardDaemon(t, &out2, append([]string{"-serve-for", "3s"}, common...)...)
	addr2 := listenRE.FindStringSubmatch(out2.String())[1]
	if !strings.Contains(out2.String(), "restored 1 flows from "+snap) {
		t.Fatalf("warm restart did not restore the flow; output %q", out2.String())
	}
	// Re-registering the same flowlet adopts the restored, unowned entry in
	// place. The restored allocation is already converged, so no update
	// crosses the notification threshold until the allocation changes —
	// a second flow on the same path shifts both rates and the adopted
	// flow's new rate reaches the session.
	cli2, err := transport.DialAlloc(addr2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if err := cli2.FlowletStart(7, 0, 12, 2); err != nil {
		t.Fatal(err)
	}
	if err := cli2.FlowletStart(8, 0, 12, 2); err != nil {
		t.Fatal(err)
	}
	if err := cli2.Flush(); err != nil {
		t.Fatal(err)
	}
	rate7 := 0.0
	for deadline := time.Now().Add(5 * time.Second); rate7 == 0 && time.Now().Before(deadline); {
		ups, _, err := cli2.Recv(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			if u.Flow == 7 && u.Rate > 0 {
				rate7 = u.Rate
			}
		}
	}
	if rate7 <= 0 {
		t.Fatal("restarted daemon never sent a rate for the adopted flow 7")
	}
	cli2.Close()
	if err := <-done2; err != nil {
		t.Fatalf("restarted daemon: %v; output %q", err, out2.String())
	}
}

// TestDaemonFlagErrors covers flag and topology validation.
func TestDaemonFlagErrors(t *testing.T) {
	var out syncBuffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-racks", "0", "-serve-for", "1ms"}, &out); err == nil {
		t.Error("invalid topology accepted")
	}
	if err := run([]string{"-blocks", "3", "-serve-for", "1ms", "-listen", "127.0.0.1:0"}, &out); err == nil {
		t.Error("non-power-of-two block count accepted")
	}
	for _, bad := range []string{"2", "a/2", "1/x", "3/3", "-1/2", "0/0"} {
		if err := run([]string{"-shard", bad, "-serve-for", "1ms", "-listen", "127.0.0.1:0"}, &out); err == nil {
			t.Errorf("-shard %q accepted", bad)
		}
	}
	if err := run([]string{"-peers", "127.0.0.1:1", "-serve-for", "1ms", "-listen", "127.0.0.1:0"}, &out); err == nil {
		t.Error("-peers without -shard accepted")
	}
	if err := run([]string{"-takeover", "-serve-for", "1ms", "-listen", "127.0.0.1:0"}, &out); err == nil {
		t.Error("-takeover without -shard accepted")
	}
	for _, bad := range []string{"-gamma=NaN", "-gamma=-1", "-gamma=+Inf", "-threshold=NaN", "-max-frame-rate=NaN", "-interval=-1ms", "-heartbeat-timeout=-1s"} {
		if err := run([]string{bad, "-serve-for", "1ms", "-listen", "127.0.0.1:0"}, &out); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
	// 2 shards do not divide the default 9 racks.
	if err := run([]string{"-shard", "0/2", "-serve-for", "1ms", "-listen", "127.0.0.1:0"}, &out); err == nil {
		t.Error("2 shards over 9 racks accepted")
	}
	// Sharding composes with the multicore engine: a shard of an 8-rack
	// fabric can itself span 2 blocks.
	if err := run([]string{"-shard", "0/2", "-blocks", "2", "-racks", "8",
		"-serve-for", "1ms", "-listen", "127.0.0.1:0"}, &out); err != nil {
		t.Errorf("sharded multicore daemon rejected: %v", err)
	}
}

var adminRE = regexp.MustCompile(`admin endpoint on http://(\S+)`)

// adminGet fetches one admin-endpoint path and returns status code and body.
func adminGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestDaemonAdminFlagValidation: a malformed -admin address must fail the
// daemon at startup, before it begins serving allocator traffic.
func TestDaemonAdminFlagValidation(t *testing.T) {
	for _, bad := range []string{"not-an-address", "127.0.0.1:notaport", "127.0.0.1:99999"} {
		var out syncBuffer
		if err := run([]string{"-admin", bad, "-serve-for", "1ms", "-listen", "127.0.0.1:0"}, &out); err == nil {
			t.Errorf("-admin %q accepted", bad)
		}
	}
}

// TestDaemonAdminEndpoint boots the daemon with -admin, scrapes the live
// endpoint, and checks the exposition lints clean and the probes and trace
// respond.
func TestDaemonAdminEndpoint(t *testing.T) {
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
			"-racks", "4", "-servers-per-rack", "4", "-spines", "2",
			"-interval", "200us", "-serve-for", "2s", "-stats-every", "0",
		}, &out)
	}()
	var base string
	for deadline := time.Now().Add(5 * time.Second); base == ""; time.Sleep(time.Millisecond) {
		if m := adminRE.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its admin address; output: %q", out.String())
		}
	}

	status, body := adminGet(t, base, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	if err := telemetry.Lint(body); err != nil {
		t.Fatalf("lint: %v\n%s", err, body)
	}
	for _, series := range []string{"flowtune_iterations_total", "flowtune_flows", "flowtune_draining 0"} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		if status, body := adminGet(t, base, probe); status != http.StatusOK || body != "ok\n" {
			t.Errorf("%s = %d %q; want 200 ok", probe, status, body)
		}
	}
	status, body = adminGet(t, base, "/trace")
	if status != http.StatusOK {
		t.Fatalf("/trace status = %d", status)
	}
	var trace telemetry.FlightTrace
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/trace not JSON: %v\n%s", err, body)
	}
	if err := <-done; err != nil {
		t.Fatalf("run returned %v; output: %q", err, out.String())
	}
}

// TestAdminProbesFollowDrain pins the probe semantics the deployment docs
// promise, using the exact closures run() wires up: Drain flips /readyz to
// 503 immediately (stop routing new work here) while /healthz stays 200
// (don't kill the process — it is still fanning out final rates); only when
// Shutdown completes does /healthz go unhealthy too.
func TestAdminProbesFollowDrain(t *testing.T) {
	topo, err := topology.NewTwoTier(topology.Config{
		Racks: 4, ServersPerRack: 4, Spines: 2, LinkCapacity: 10e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := telemetry.NewRegistry()
	srv.RegisterMetrics(reg)
	adm, err := telemetry.NewAdmin(telemetry.AdminConfig{
		Registry: reg,
		Healthy:  func() bool { return !srv.Closed() },
		Ready:    func() bool { return !srv.Closed() && !srv.Draining() },
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := adm.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	base := "http://" + addr.String()

	expect := func(stage, probe string, want int) {
		t.Helper()
		if status, _ := adminGet(t, base, probe); status != want {
			t.Errorf("%s: %s = %d; want %d", stage, probe, status, want)
		}
	}
	expect("running", "/healthz", http.StatusOK)
	expect("running", "/readyz", http.StatusOK)

	srv.Drain()
	expect("draining", "/healthz", http.StatusOK)
	expect("draining", "/readyz", http.StatusServiceUnavailable)

	if _, err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	expect("shut down", "/healthz", http.StatusServiceUnavailable)
	expect("shut down", "/readyz", http.StatusServiceUnavailable)
}

// startShardDaemon boots one cluster member on a free port and returns its
// address and exit channel.
func startShardDaemon(t *testing.T, out *syncBuffer, args ...string) (addr string, done chan error) {
	t.Helper()
	done = make(chan error, 1)
	go func() { done <- run(args, out) }()
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; output: %q", out.String())
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	return addr, done
}

// TestShardedClusterOverTCP boots a 2-shard cluster as two real daemon
// processes-worth of run() over TCP, lets the peer dial-with-retry converge
// (shard 1 starts knowing shard 0's address only), and drives a cross-shard
// flow through a client on each shard.
func TestShardedClusterOverTCP(t *testing.T) {
	common := []string{
		"-racks", "4", "-servers-per-rack", "4", "-spines", "2",
		"-interval", "200us", "-serve-for", "5s", "-stats-every", "0",
	}
	var out0, out1 syncBuffer
	addr0, done0 := startShardDaemon(t, &out0, append([]string{
		"-listen", "127.0.0.1:0", "-shard", "0/2"}, common...)...)
	addr1, done1 := startShardDaemon(t, &out1, append([]string{
		"-listen", "127.0.0.1:0", "-shard", "1/2", "-peers", addr0}, common...)...)

	// Only shard 1 dials (shard 0's port was unknown when shard 0 started),
	// which still exercises the dial-with-retry path and the 1→0 exchange
	// direction; full meshes list every peer in each daemon's -peers.
	cli0, err := transport.DialAlloc(addr0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli0.Close()
	cli1, err := transport.DialAlloc(addr1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli1.Close()

	// Cross-shard flow owned by shard 0 (server 0 → server 12) and a local
	// flow on shard 1; both free-running daemons must allocate.
	if err := cli0.FlowletStart(1, 0, 12, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli0.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cli1.FlowletStart(2, 12, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli1.Flush(); err != nil {
		t.Fatal(err)
	}
	ups0, _, err := cli0.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups0) != 1 || ups0[0].Flow != 1 || ups0[0].Rate <= 0 {
		t.Fatalf("shard 0 updates = %+v", ups0)
	}
	ups1, _, err := cli1.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups1) != 1 || ups1[0].Flow != 2 || ups1[0].Rate <= 0 {
		t.Fatalf("shard 1 updates = %+v", ups1)
	}
	if !strings.Contains(out1.String(), "peer "+addr0+" connected") {
		t.Fatalf("shard 1 never connected its peer; output: %q", out1.String())
	}

	cli0.Close()
	cli1.Close()
	if err := <-done0; err != nil {
		t.Fatalf("shard 0: %v; output %q", err, out0.String())
	}
	if err := <-done1; err != nil {
		t.Fatalf("shard 1: %v; output %q", err, out1.String())
	}
}
