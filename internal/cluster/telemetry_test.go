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
