package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// clusterGet fetches one admin path and returns status code and body.
func clusterGet(t *testing.T, base, path string) (int, string) {
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

// TestClusterAdminAggregated covers the cross-shard scrape: one endpoint
// whose /metrics carries every shard's series under shard="i" labels, whose
// /trace merges the per-shard flight recorders, and whose readiness probe
// reacts to any shard draining.
func TestClusterAdminAggregated(t *testing.T) {
	topo := testTopo(t)
	cl, err := New(Config{Topology: topo, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	addr, err := cl.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	if _, err := cl.ServeAdmin("127.0.0.1:0"); err == nil {
		t.Fatal("second ServeAdmin accepted")
	}

	cli, err := cl.Client(7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	// One flow per shard (servers 0 and 15 sit in shards 0 and 1), stepped to
	// convergence so both flight recorders hold samples.
	if err := cli.FlowletStart(core.FlowID(1), 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlowletStart(core.FlowID(2), 15, 12, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cli.Step(); err != nil {
			t.Fatal(err)
		}
	}

	status, body := clusterGet(t, base, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	if err := telemetry.Lint(body); err != nil {
		t.Fatalf("lint: %v\n%s", err, body)
	}
	for _, series := range []string{
		`flowtune_flows{shard="0"} 1`,
		`flowtune_flows{shard="1"} 1`,
		`flowtune_iterations_total{shard="0"} 5`,
		`flowtune_exchange_folds_total{shard="1"}`,
		"flowtune_cluster_shards 2",
		"flowtune_cluster_shards_alive 2",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	status, body = clusterGet(t, base, "/trace")
	if status != http.StatusOK {
		t.Fatalf("/trace status = %d", status)
	}
	var traces map[string]telemetry.FlightTrace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/trace not a shard-keyed map: %v\n%s", err, body)
	}
	for _, shard := range []string{"shard-0", "shard-1"} {
		tr, ok := traces[shard]
		if !ok || tr.Total != 5 || len(tr.Samples) != 5 {
			t.Errorf("trace[%s] = %+v; want 5 samples", shard, tr)
		}
	}

	// Probe semantics across the shard lifecycle: draining any live shard
	// drops readiness; liveness holds while at least one shard is up.
	if status, _ := clusterGet(t, base, "/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz = %d before drain", status)
	}
	cl.Drain(0)
	if status, _ := clusterGet(t, base, "/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d with shard 0 draining; want 503", status)
	}
	if status, _ := clusterGet(t, base, "/healthz"); status != http.StatusOK {
		t.Errorf("/healthz = %d with shard 0 draining; want 200", status)
	}
}

// TestClusterShardAdmins covers the production shape: one endpoint per
// daemon, each with its own registry and drain-aware probes.
func TestClusterShardAdmins(t *testing.T) {
	topo := testTopo(t)
	cl, err := New(Config{Topology: topo, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.ServeShardAdmins([]string{"127.0.0.1:0"}); err == nil {
		t.Fatal("addr/shard count mismatch accepted")
	}
	addrs, err := cl.ServeShardAdmins([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.AdminAddrs(); len(got) != 2 || got[0].String() != addrs[0].String() {
		t.Fatalf("AdminAddrs = %v; want %v", got, addrs)
	}

	// Each shard serves its own labeled registry.
	for i, addr := range addrs {
		status, body := clusterGet(t, "http://"+addr.String(), "/metrics")
		if status != http.StatusOK {
			t.Fatalf("shard %d /metrics status = %d", i, status)
		}
		if err := telemetry.Lint(body); err != nil {
			t.Fatalf("shard %d lint: %v", i, err)
		}
		want := `flowtune_flows{shard="` + []string{"0", "1"}[i] + `"} 0`
		if !strings.Contains(body, want) {
			t.Errorf("shard %d /metrics missing %q", i, want)
		}
	}

	// Probes are per-daemon: draining shard 1 flips only its own readiness.
	cl.Drain(1)
	if status, _ := clusterGet(t, "http://"+addrs[0].String(), "/readyz"); status != http.StatusOK {
		t.Errorf("shard 0 /readyz = %d; want 200", status)
	}
	if status, _ := clusterGet(t, "http://"+addrs[1].String(), "/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("shard 1 /readyz = %d; want 503", status)
	}
	if status, _ := clusterGet(t, "http://"+addrs[1].String(), "/healthz"); status != http.StatusOK {
		t.Errorf("shard 1 /healthz = %d; want 200 (draining, not dead)", status)
	}
	if err := cl.Kill(0); err != nil {
		t.Fatal(err)
	}
	if status, _ := clusterGet(t, "http://"+addrs[0].String(), "/healthz"); status != http.StatusServiceUnavailable {
		t.Errorf("shard 0 /healthz = %d after kill; want 503", status)
	}
}
