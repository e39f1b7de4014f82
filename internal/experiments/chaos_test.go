package experiments

import (
	"encoding/json"
	"testing"
)

// TestChaosFailoverScenario is the acceptance check for the chaos suite: a
// daemon of the sharded cluster is killed mid-measurement, a peer adopts its
// rack block within a bounded number of allocator steps, and the run's tail
// FCT degrades by a bounded factor relative to the same scenario without the
// kill (sharded-incast is the chaos scenario's own config minus the chaos).
func TestChaosFailoverScenario(t *testing.T) {
	cfg, err := NamedScenario("chaos-failover", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults == nil || len(cfg.Faults.Events) != 1 || cfg.Shards < 2 {
		t.Fatalf("scenario wiring: Faults=%+v Shards=%d, want one kill event on a sharded cluster", cfg.Faults, cfg.Shards)
	}
	killStep := cfg.Faults.Events[0].Step
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows == 0 || res.FinishedFlows == 0 || res.GoodputBps <= 0 {
		t.Fatalf("chaos scenario measured nothing: %+v", res)
	}
	if res.Faults == nil || res.Faults.EventsApplied != 1 || len(res.Faults.Kills) != 1 {
		t.Fatalf("chaos scenario result carries no single-kill report: %+v", res.Faults)
	}
	ch := res.Faults.Kills[0]
	if ch.Shard != cfg.Shards-1 {
		t.Errorf("killed shard %d, want the last shard %d", ch.Shard, cfg.Shards-1)
	}
	if ch.Step != killStep {
		t.Errorf("kill landed at step %d, want %d", ch.Step, killStep)
	}
	if ch.Adopter != 0 {
		t.Errorf("shard %d adopted the dead shard, want shard 0 (the successor ring's wrap target)", ch.Adopter)
	}
	if ch.Takeovers != 1 {
		t.Errorf("adopter recorded %d takeovers, want exactly 1", ch.Takeovers)
	}
	if ch.AdoptedFlows <= 0 {
		t.Errorf("adopter claimed %d flows from the replica, want > 0", ch.AdoptedFlows)
	}
	// Death detection is step-driven: the survivor notices the dead peer on
	// its next exchange push and adopts at the following iteration boundary,
	// so the endpoint must fail over within a handful of allocator steps.
	if ch.RecoverySteps < 1 || ch.RecoverySteps > 4 {
		t.Errorf("client failover took %d steps, want within [1, 4]", ch.RecoverySteps)
	}

	// Bounded degradation: the same scenario without the kill is exactly
	// sharded-incast. The frozen window and the re-converged prices cost
	// tail latency, but the recovery must keep the p99 within a small
	// constant factor of the undisturbed run.
	base, err := NamedScenario("sharded-incast", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NormFCT.P99 <= 0 {
		t.Fatalf("reference run has no normalized-FCT p99: %+v", ref.NormFCT)
	}
	if factor := res.NormFCT.P99 / ref.NormFCT.P99; factor > 3 {
		t.Errorf("chaos normalized-FCT p99 %.3f is %.2fx the undisturbed %.3f, want ≤ 3x",
			res.NormFCT.P99, factor, ref.NormFCT.P99)
	}
	if res.CompletionRate < 0.5*ref.CompletionRate {
		t.Errorf("chaos completion rate %.3f collapsed vs undisturbed %.3f",
			res.CompletionRate, ref.CompletionRate)
	}
}

// TestChaosFailoverDeterministic re-runs the chaos scenario and requires
// byte-identical JSON: the kill lands at a fixed allocator step, death
// detection rides the synchronous exchange push, and adoption happens at an
// iteration boundary, so even the failure injection is reproducible. The
// committed BENCH_chaos-failover.json baseline depends on this.
func TestChaosFailoverDeterministic(t *testing.T) {
	cfg, err := NamedScenario("chaos-failover", true, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("two identical chaos runs diverged:\n%s\n%s", aj, bj)
	}
	if a.Faults == nil || len(a.Faults.Kills) != 1 {
		t.Fatal("kill report missing from result")
	}
}

// TestChaosRequiresShards pins the configuration coupling: the chaos
// scenario's kill only makes sense when peers exist to take over.
func TestChaosRequiresShards(t *testing.T) {
	cfg, err := NamedScenario("chaos-failover", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 1
	if _, err := RunScenario(cfg); err == nil {
		t.Fatal("RunScenario accepted the chaos kill without Shards > 1")
	}
}
