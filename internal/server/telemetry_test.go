package server

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestIterateZeroAllocsWithTelemetry pins the observability cost on the hot
// loop: with the metrics registry and the convergence flight recorder both
// attached, a steady-state server iteration (fold, engine step, telemetry
// sample) must still not allocate.
func TestIterateZeroAllocsWithTelemetry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		blocks int
	}{
		{"default", 0},
		{"parallel", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := testTopology(t)
			srv, err := New(Config{Topology: topo, Blocks: tc.blocks, UpdateThreshold: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			reg := telemetry.NewRegistry()
			srv.RegisterMetrics(reg)
			rec := telemetry.NewFlightRecorder(0)
			srv.AttachFlightRecorder(rec)

			srv.publish(steadyFlows(64))

			// Fold the flows in, converge and grow every reused buffer to its
			// working size.
			for i := 0; i < 50; i++ {
				if err := srv.iterate(nil, 0); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() { srv.iterate(nil, 0) }); allocs != 0 {
				t.Fatalf("steady-state iterate with telemetry allocates %.1f times per op; want 0", allocs)
			}

			if rec.Total() < 150 {
				t.Fatalf("flight recorder saw %d samples; want >= 150", rec.Total())
			}
			last := rec.Snapshot()[rec.Len()-1]
			if last.Iteration == 0 || last.LatencySec <= 0 {
				t.Fatalf("flight sample not populated: %+v", last)
			}
			if last.Objective == 0 {
				t.Fatalf("converged run should have a finite non-zero objective, got %+v", last)
			}
			if n := srv.NumFlows(); n != 64 {
				t.Fatalf("NumFlows = %d; want the 64 published flows", n)
			}
		})
	}
}

// steadyFlows is a burst of n unowned flowlet adds on the test topology: what
// the steady-state allocation pins fold in through publish and iterate.
func steadyFlows(n int) []event {
	burst := make([]event, n)
	for i := range burst {
		burst[i] = event{flow: core.FlowID(i), src: i % 16, dst: (i + 5) % 16, weight: 1}
	}
	return burst
}

// TestServerMetricsExposition scrapes a live daemon's registry and lints the
// exposition: every counter surface must appear as a named series, and the
// output must be a valid Prometheus text exposition.
func TestServerMetricsExposition(t *testing.T) {
	topo := testTopology(t)
	srv, cli := startPipeDaemon(t, Config{Topology: topo})
	defer cli.Close()

	reg := telemetry.NewRegistry()
	srv.RegisterMetrics(reg)

	if err := cli.FlowletStart(1, 0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Step(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := telemetry.Lint(out); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
	for _, series := range []string{
		"flowtune_sessions_accepted_total 1",
		"flowtune_sessions_active 1",
		"flowtune_events_received_total",
		`flowtune_events_dropped_total{reason="duplicate_add"}`,
		`flowtune_events_dropped_total{reason="drain_reject"}`,
		"flowtune_updates_sent_total",
		`flowtune_wire_bytes_total{direction="fanout",encoding="wire"}`,
		`flowtune_wire_bytes_total{direction="fanout",encoding="fixed_v3"}`,
		"flowtune_flows 1",
		"flowtune_iterations_total 1",
		"flowtune_arrival_iterations_total 0", // step-driven: nothing wakes a loop
		"flowtune_iteration_latency_seconds_bucket",
		"flowtune_churn_events_total 1",
		"flowtune_draining 0",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
}

// TestServerMetricsShardLabels checks the label plumbing the cluster admin
// uses: the same server registered under a shard label renders labeled
// series, and two label sets coexist in one registry.
func TestServerMetricsShardLabels(t *testing.T) {
	topo := testTopology(t)
	reg := telemetry.NewRegistry()
	for i, shard := range []string{"0", "1"} {
		srv, err := New(Config{Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.RegisterMetrics(reg, telemetry.Label{Key: "shard", Value: shard})
		_ = i
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := telemetry.Lint(out); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
	for _, series := range []string{
		`flowtune_flows{shard="0"} 0`,
		`flowtune_flows{shard="1"} 0`,
		`flowtune_events_dropped_total{shard="0",reason="duplicate_add"} 0`,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("exposition missing %q:\n%s", series, out)
		}
	}
}

// TestFlightRecorderSamplesChurn drives flowlet churn through a session and
// checks the flight recorder attributes it to the right iteration, and that a
// step-driven daemon's samples are deterministic: a second daemon driven
// through the same churn records the same samples, wall-clock latency aside.
func TestFlightRecorderSamplesChurn(t *testing.T) {
	topo := testTopology(t)
	var runs [2][]telemetry.FlightSample
	for k := range runs {
		srv, cli := startPipeDaemon(t, Config{Topology: topo})
		rec := telemetry.NewFlightRecorder(8)
		srv.AttachFlightRecorder(rec)
		step := func() {
			t.Helper()
			if _, err := cli.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.FlowletStart(1, 0, 5, 1); err != nil {
			t.Fatal(err)
		}
		if err := cli.FlowletStart(2, 3, 9, 1); err != nil {
			t.Fatal(err)
		}
		step()
		step()
		step()
		if err := cli.FlowletEnd(1); err != nil {
			t.Fatal(err)
		}
		if err := cli.FlowletStart(3, 0, 9, 2); err != nil {
			t.Fatal(err)
		}
		step()
		step()
		runs[k] = rec.Snapshot()
	}

	samples := runs[0]
	if len(samples) != 5 {
		t.Fatalf("got %d samples; want 5", len(samples))
	}
	s := samples[0]
	if s.ChurnEvents != 2 {
		t.Fatalf("ChurnEvents = %d; want 2 (both adds folded at the step boundary)", s.ChurnEvents)
	}
	if s.Iteration != 1 || s.Updates != 2 {
		t.Fatalf("sample = %+v; want iteration 1 with 2 updates", s)
	}
	if got := samples[3].ChurnEvents; got != 2 {
		t.Fatalf("iteration 4 ChurnEvents = %d; want 2 (one end, one add)", got)
	}
	if len(runs[1]) != len(samples) {
		t.Fatalf("second run recorded %d samples; want %d", len(runs[1]), len(samples))
	}
	for i := range samples {
		a, b := runs[0][i], runs[1][i]
		a.LatencySec, b.LatencySec = 0, 0
		if a != b {
			t.Fatalf("sample %d differs between identical runs:\n%+v\n%+v", i, a, b)
		}
	}
}
