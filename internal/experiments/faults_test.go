package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/faults"
)

// plan parses a fault plan from its text form, exercising the same codec an
// operator-supplied plan file would go through.
func plan(t *testing.T, lines ...string) *faults.Plan {
	t.Helper()
	p, err := faults.Parse(faults.PlanFormat + "\n" + strings.Join(lines, "\n") + "\n")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runNamed runs one named scenario in short mode.
func runNamed(t *testing.T, name string, seed int64) *ScenarioResult {
	t.Helper()
	cfg, err := NamedScenario(name, true, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFaultScenarioDeterminism runs every fault scenario twice with the same
// seed and requires byte-identical serialized results, then checks the fault
// report says what the plan scripted. This is the table the ISSUE's
// determinism guarantee hangs on: every mutation lands at a step boundary,
// so a faulted run is as reproducible as a clean one.
func TestFaultScenarioDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		check func(t *testing.T, r *ScenarioResult)
	}{
		{"linkdown-websearch", func(t *testing.T, r *ScenarioResult) {
			if r.Faults == nil || r.Faults.CapacityChanges != 2 {
				t.Fatalf("faults = %+v; want 2 capacity changes", r.Faults)
			}
		}},
		{"trafficshift-rehash", func(t *testing.T, r *ScenarioResult) {
			if r.Faults == nil || r.Faults.Rehashes != 1 {
				t.Fatalf("faults = %+v; want 1 rehash", r.Faults)
			}
			if r.Faults.SyntheticFlows != 16 {
				t.Fatalf("synthetic flows = %d; want 16 (one per server)", r.Faults.SyntheticFlows)
			}
		}},
		{"flashcrowd-incast", func(t *testing.T, r *ScenarioResult) {
			if r.Faults == nil || r.Faults.SyntheticFlows != 12 {
				t.Fatalf("faults = %+v; want 12 synthetic flows", r.Faults)
			}
		}},
		{"cascade-failover", func(t *testing.T, r *ScenarioResult) {
			if r.Faults == nil || len(r.Faults.Kills) != 2 {
				t.Fatalf("faults = %+v; want 2 kills", r.Faults)
			}
			for _, k := range r.Faults.Kills {
				if k.Adopter < 0 || k.RecoverySteps < 1 || k.Takeovers < 1 {
					t.Fatalf("kill of shard %d not recovered: %+v", k.Shard, k)
				}
			}
			if r.Faults.Kills[0].Shard != 3 || r.Faults.Kills[1].Shard != 2 {
				t.Fatalf("cascade victims %+v; want shards 3 then 2", r.Faults.Kills)
			}
			if r.Faults.Kills[1].Step-r.Faults.Kills[0].Step != 30 {
				t.Fatalf("cascade spacing %d steps; want 30", r.Faults.Kills[1].Step-r.Faults.Kills[0].Step)
			}
		}},
		{"kill-during-drain", func(t *testing.T, r *ScenarioResult) {
			if r.Faults == nil || r.Faults.Drains != 1 || len(r.Faults.Kills) != 1 {
				t.Fatalf("faults = %+v; want 1 drain and 1 kill", r.Faults)
			}
			k := r.Faults.Kills[0]
			if !k.DuringDrain {
				t.Fatal("kill not marked as during-drain")
			}
			if k.Adopter < 0 || k.AdoptedFlows < 1 {
				t.Fatalf("drained shard not adopted: %+v", k)
			}
		}},
		{"freerun-latency", func(t *testing.T, r *ScenarioResult) {
			c := r.Control
			if c == nil || c.RateLatencySamples == 0 {
				t.Fatalf("control = %+v; want rate-latency samples", c)
			}
			// Sanity bounds in simulated time: the first rate arrives after
			// at least one 10 µs allocator interval and well under a
			// millisecond on the short fabric.
			if c.RateLatencySec.P50 < 10e-6 || c.RateLatencySec.P99 > 1e-3 {
				t.Fatalf("rate latency p50 %g p99 %g; want within [10µs, 1ms]", c.RateLatencySec.P50, c.RateLatencySec.P99)
			}
			if c.ExchangeFolds == 0 || c.LoopIterations == 0 {
				t.Fatalf("control = %+v; want exchange and loop counters", c)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := runNamed(t, c.name, 7)
			b := runNamed(t, c.name, 7)
			ja, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			jb, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ja, jb) {
				t.Fatalf("two seeded runs differ:\n%s\n%s", ja, jb)
			}
			c.check(t, a)
		})
	}
}

// TestFaultScenariosDegradeNotDestroy compares each fault scenario against
// its clean base: faults may hurt the tail but must not collapse the run.
func TestFaultScenariosDegradeNotDestroy(t *testing.T) {
	incastRef := runNamed(t, "incast", 7)
	shardedRef := runNamed(t, "sharded-incast", 7)
	webRef := runNamed(t, "websearch-poisson", 7)
	cases := []struct {
		name string
		ref  *ScenarioResult
	}{
		{"linkdown-websearch", webRef},
		{"flashcrowd-incast", incastRef},
		{"cascade-failover", incastRef},
		{"kill-during-drain", shardedRef},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := runNamed(t, c.name, 7)
			if r.CompletionRate < 0.5*c.ref.CompletionRate {
				t.Fatalf("completion %.2f collapsed vs clean %.2f", r.CompletionRate, c.ref.CompletionRate)
			}
			if r.NormFCT.P99 > 20*c.ref.NormFCT.P99 {
				t.Fatalf("norm-FCT p99 %.2f exploded vs clean %.2f", r.NormFCT.P99, c.ref.NormFCT.P99)
			}
		})
	}
}

// TestFaultPlanConfigValidation pins the config-level error paths.
func TestFaultPlanConfigValidation(t *testing.T) {
	// Kills need a sharded cluster.
	cfg, err := NamedScenario("daemon-incast", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan(t, "step=10 kind=kill-daemon shard=0")
	if _, err := RunScenario(cfg); err == nil {
		t.Fatal("kill plan without shards accepted")
	}

	// A plan scheduled past the run's horizon must fail loudly, not
	// silently skip events.
	cfg, err = NamedScenario("incast", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan(t, "step=1000000 kind=link-down rack=0 spine=1")
	if _, err := RunScenario(cfg); err == nil {
		t.Fatal("plan past the horizon accepted")
	}

	// A link that does not exist on the short fabric.
	cfg, err = NamedScenario("incast", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan(t, "step=10 kind=link-down rack=99 spine=0")
	if _, err := RunScenario(cfg); err == nil {
		t.Fatal("out-of-range link accepted")
	}
}
