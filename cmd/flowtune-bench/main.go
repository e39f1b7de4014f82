// Command flowtune-bench regenerates the tables and figures of the Flowtune
// paper's evaluation (§6) and runs trace-driven workload scenarios.
//
// Paper experiments are selected with -experiment; "all" runs every one of
// them. The -quick flag shrinks durations and sweeps so the full suite
// completes in a couple of minutes; omit it for the full-scale runs recorded
// in EXPERIMENTS.md.
//
// Scenario mode is selected with -scenario: a comma-separated list of named
// scenarios (or "all"), each combining a fabric, a flow-size distribution, an
// arrival process, and a traffic pattern. Every scenario prints a summary and
// writes a machine-readable BENCH_<name>.json into -out; identical seeds
// produce byte-identical JSON. The -short flag shrinks the fabric and run
// windows for CI smoke runs. Use -list to enumerate the scenarios.
//
// -validate <dir> checks that a directory holds a well-formed BENCH_*.json
// for every named scenario (present, schema-tagged, and structurally sane);
// CI runs it against both the fresh artifacts and the baselines committed at
// the repository root, so a scenario can neither silently disappear nor rot
// its schema.
//
// -diff <dir> compares freshly generated results in <dir> against the
// baselines in -baseline (default "."): the job fails when any scenario's
// normalized-FCT p99 regresses by more than 2%. Because scenario runs are
// byte-deterministic for a given seed, the diff also reports whether each
// result is byte-identical to its baseline — an exact comparison, not a
// tolerance check — so unintended behavior changes are visible even when
// they do not move the tails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowtune-bench: ")

	experiment := flag.String("experiment", "all",
		"experiment to run: table1, fastpass, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, or all")
	quick := flag.Bool("quick", false, "run shortened versions of every experiment")
	scenario := flag.String("scenario", "",
		"run workload scenarios instead of paper experiments: a comma-separated list of names, or \"all\"")
	scaling := flag.Bool("scaling", false,
		"run the wire-scaling sweep (flows on a k=16 fat-tree, shards x blocks on a two-tier fabric) and write BENCH_scaling.json into -out")
	short := flag.Bool("short", false, "shrink scenario fabrics and run windows (CI smoke mode)")
	outDir := flag.String("out", ".", "directory for scenario BENCH_<name>.json files")
	list := flag.Bool("list", false, "list the named scenarios and exit")
	validate := flag.String("validate", "",
		"validate BENCH_<name>.json files for every named scenario in this directory, then exit")
	diff := flag.String("diff", "",
		"compare BENCH_<name>.json files in this directory against the -baseline directory and fail on normalized-FCT p99 regressions, then exit")
	baseline := flag.String("baseline", ".", "baseline directory for -diff")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if *list {
		for _, name := range experiments.ScenarioNames() {
			fmt.Printf("%-20s %s\n", name, experiments.ScenarioAbout(name))
		}
		return
	}
	if *validate != "" {
		if err := validateDir(*validate); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("validated %d scenario result files in %s\n", len(experiments.ScenarioNames()), *validate)
		return
	}
	if *diff != "" {
		if err := diffDirs(*diff, *baseline); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *scaling {
		if err := runScaling(*short, *seed, *outDir); err != nil {
			log.Fatalf("scaling: %v", err)
		}
		return
	}
	if *scenario != "" {
		names := strings.Split(*scenario, ",")
		if *scenario == "all" {
			names = experiments.ScenarioNames()
		}
		for _, name := range names {
			if err := runScenario(strings.TrimSpace(name), *short, *seed, *outDir); err != nil {
				log.Fatalf("scenario %s: %v", name, err)
			}
		}
		return
	}

	names := strings.Split(*experiment, ",")
	if *experiment == "all" {
		names = []string{"table1", "fastpass", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"}
	}
	for _, name := range names {
		if err := run(strings.TrimSpace(name), *quick, *seed); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
}

// validateDir checks every named scenario has a well-formed result file in
// dir: BENCH_<name>.json exists, carries the current schema tag, matches its
// scenario name, and holds a structurally plausible run.
func validateDir(dir string) error {
	var problems []string
	for _, name := range experiments.ScenarioNames() {
		path := filepath.Join(dir, "BENCH_"+name+".json")
		if err := validateScenarioFile(path, name); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if _, err := loadScalingFile(filepath.Join(dir, scalingFile)); err != nil {
		problems = append(problems, err.Error())
	}
	if len(problems) > 0 {
		return fmt.Errorf("invalid benchmark results:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// validateScenarioFile checks one BENCH_*.json against the schema.
func validateScenarioFile(path, name string) error {
	_, _, err := loadScenarioFile(path, name)
	return err
}

// plausibleP99 reports whether a normalized-FCT p99 is a usable gate input:
// finite and positive (normalized FCT is ≥ 1 by construction, so zero means
// the statistic was never computed).
func plausibleP99(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// loadScenarioFile reads one BENCH_*.json, checks it against the schema, and
// returns the decoded result along with the raw bytes (one read, one decode).
func loadScenarioFile(path, name string) (*experiments.ScenarioResult, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var res experiments.ScenarioResult
	if err := dec.Decode(&res); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if dec.More() {
		return nil, nil, fmt.Errorf("%s: trailing data after the result object", path)
	}
	switch {
	case res.Schema != experiments.ScenarioResultSchema:
		return nil, nil, fmt.Errorf("%s: schema %q, want %q", path, res.Schema, experiments.ScenarioResultSchema)
	case res.Name != name:
		return nil, nil, fmt.Errorf("%s: names scenario %q, want %q", path, res.Name, name)
	case res.Servers <= 0 || res.Duration <= 0:
		return nil, nil, fmt.Errorf("%s: implausible fabric (%d servers, %gs duration)", path, res.Servers, res.Duration)
	case res.Flows <= 0 || res.FinishedFlows <= 0:
		return nil, nil, fmt.Errorf("%s: no measured flows (%d flows, %d finished)", path, res.Flows, res.FinishedFlows)
	case res.GoodputBps <= 0:
		return nil, nil, fmt.Errorf("%s: no goodput recorded", path)
	}
	return &res, data, nil
}

// normFCTP99Tolerance is the benchmark-trajectory gate: a fresh run whose
// normalized-FCT p99 exceeds the baseline's by more than this fraction fails
// the diff.
const normFCTP99Tolerance = 0.02

// diffDirs compares the fresh scenario results in freshDir against the
// baselines in baseDir, failing on any normalized-FCT p99 regression beyond
// normFCTP99Tolerance. Both directories must hold a valid result for every
// named scenario.
func diffDirs(freshDir, baseDir string) error {
	var problems []string
	for _, name := range experiments.ScenarioNames() {
		freshPath := filepath.Join(freshDir, "BENCH_"+name+".json")
		basePath := filepath.Join(baseDir, "BENCH_"+name+".json")
		fresh, freshRaw, err := loadScenarioFile(freshPath, name)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		base, baseRaw, err := loadScenarioFile(basePath, name)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		// Runs are byte-deterministic for a given seed, so identity is an
		// exact byte comparison, not a float tolerance.
		identical := bytes.Equal(freshRaw, baseRaw)
		baseP99, freshP99 := base.NormFCT.P99, fresh.NormFCT.P99
		// A broken p99 (zero, negative, NaN, Inf) on either side must fail
		// the gate, never slip through a vacuous float comparison.
		if !plausibleP99(baseP99) {
			problems = append(problems, fmt.Sprintf("%s: implausible baseline normalized-FCT p99 %g", basePath, baseP99))
			continue
		}
		if !plausibleP99(freshP99) {
			problems = append(problems, fmt.Sprintf("%s: implausible fresh normalized-FCT p99 %g", freshPath, freshP99))
			continue
		}
		delta := freshP99/baseP99 - 1
		status := "changed"
		if identical {
			status = "identical"
		}
		fmt.Printf("%-20s norm-FCT p99 %12.6f -> %12.6f  (%+.2f%%, %s)\n",
			name, baseP99, freshP99, delta*100, status)
		if delta > normFCTP99Tolerance {
			problems = append(problems,
				fmt.Sprintf("%s: normalized-FCT p99 regressed %.2f%% (baseline %g, fresh %g, tolerance %.0f%%)",
					name, delta*100, baseP99, freshP99, normFCTP99Tolerance*100))
		}
	}
	if err := diffScaling(freshDir, baseDir); err != nil {
		problems = append(problems, err.Error())
	}
	if len(problems) > 0 {
		return fmt.Errorf("benchmark trajectory regressions:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Printf("no normalized-FCT p99 regressions beyond %.0f%% across %d scenarios\n",
		normFCTP99Tolerance*100, len(experiments.ScenarioNames()))
	return nil
}

// runScenario executes one named scenario and writes its BENCH_<name>.json.
func runScenario(name string, short bool, seed int64, outDir string) error {
	cfg, err := experiments.NamedScenario(name, short, seed)
	if err != nil {
		return err
	}
	res, err := experiments.RunScenario(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := filepath.Join(outDir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n\n", path)
	return nil
}

// scalingFile is the wire-scaling artifact's file name.
const scalingFile = "BENCH_scaling.json"

// wireReductionFloor is the wire v4 acceptance gate: the sharded-incast
// scenario's fixed-v3 / actual byte ratio must stay at or above this for
// both the fan-out and the exchange.
const wireReductionFloor = 2.0

// runScaling executes the wire-scaling sweep and writes BENCH_scaling.json.
func runScaling(short bool, seed int64, outDir string) error {
	res, err := experiments.RunScaling(experiments.ScalingConfig{
		Short: short,
		Seed:  seed,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := filepath.Join(outDir, scalingFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// loadScalingFile reads and schema-checks one BENCH_scaling.json.
func loadScalingFile(path string) (*experiments.ScalingResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var res experiments.ScalingResult
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%s: trailing data after the result object", path)
	}
	switch {
	case res.Schema != experiments.ScalingResultSchema:
		return nil, fmt.Errorf("%s: schema %q, want %q", path, res.Schema, experiments.ScalingResultSchema)
	case len(res.Points) == 0:
		return nil, fmt.Errorf("%s: no sweep points", path)
	case res.ShardedIncast.FanoutReduction < wireReductionFloor:
		return nil, fmt.Errorf("%s: sharded-incast fan-out reduction %.2fx below the %gx floor",
			path, res.ShardedIncast.FanoutReduction, wireReductionFloor)
	case res.ShardedIncast.ExchangeReduction < wireReductionFloor:
		return nil, fmt.Errorf("%s: sharded-incast exchange reduction %.2fx below the %gx floor",
			path, res.ShardedIncast.ExchangeReduction, wireReductionFloor)
	}
	return &res, nil
}

// scalingWireBytes serializes a scaling result with every timing block
// zeroed: the deterministic remainder is what the diff gate compares.
func scalingWireBytes(res *experiments.ScalingResult) ([]byte, error) {
	clone := *res
	clone.Points = append([]experiments.ScalingPoint(nil), res.Points...)
	for i := range clone.Points {
		clone.Points[i].Timing = experiments.ScalingTiming{}
	}
	return json.Marshal(&clone)
}

// diffScaling compares the fresh scaling artifact against the committed
// baseline: both must pass the reduction floor, and the deterministic wire
// blocks must match exactly (timings are machine-dependent and ignored).
func diffScaling(freshDir, baseDir string) error {
	fresh, err := loadScalingFile(filepath.Join(freshDir, scalingFile))
	if err != nil {
		return err
	}
	base, err := loadScalingFile(filepath.Join(baseDir, scalingFile))
	if err != nil {
		return err
	}
	freshWire, err := scalingWireBytes(fresh)
	if err != nil {
		return err
	}
	baseWire, err := scalingWireBytes(base)
	if err != nil {
		return err
	}
	status := "identical"
	if !bytes.Equal(freshWire, baseWire) {
		status = "changed"
	}
	fmt.Printf("%-20s fan-out %.2fx, exchange %.2fx reduction on sharded-incast  (wire blocks %s)\n",
		"scaling", fresh.ShardedIncast.FanoutReduction, fresh.ShardedIncast.ExchangeReduction, status)
	if status == "changed" {
		return fmt.Errorf("%s: deterministic wire blocks differ from the baseline (regenerate with -scaling -short if the change is intended)", scalingFile)
	}
	return nil
}

// run executes one experiment and prints its rendering.
func run(name string, quick bool, seed int64) error {
	fmt.Printf("==== %s ====\n", name)
	defer fmt.Println()
	switch name {
	case "table1":
		cases := experiments.DefaultScalingCases()
		warmup, iters := 20, 200
		if quick {
			cases = cases[:3]
			warmup, iters = 5, 50
		}
		rows, err := experiments.ScalingTable(cases, warmup, iters, seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderScalingTable(rows))
	case "fastpass":
		flows := 3072
		if quick {
			flows = 1024
		}
		cmp, err := experiments.MeasureFastpassComparison(384, flows, seed)
		if err != nil {
			return err
		}
		fmt.Print(cmp.Render())
	case "fig4":
		for _, scheme := range transport.AllSchemes() {
			cfg := experiments.DefaultConvergenceConfig(scheme)
			if quick {
				cfg.StepInterval = 2e-3
			}
			res, err := experiments.RunConvergence(cfg)
			if err != nil {
				return err
			}
			fmt.Print(res.Render(cfg))
		}
	case "fig5":
		duration := 10e-3
		loads := []float64{0.2, 0.4, 0.6, 0.8}
		if quick {
			duration = 3e-3
			loads = []float64{0.4, 0.8}
		}
		points, err := experiments.RunFig5(loads, nil, duration, seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig5(points))
	case "fig6":
		duration := 8e-3
		loads := []float64{0.2, 0.4, 0.6, 0.8}
		if quick {
			duration = 3e-3
			loads = []float64{0.6}
		}
		points, err := experiments.RunFig6(loads, nil, nil, duration, seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig6(points))
	case "fig7":
		duration := 5e-3
		sizes := []int{128, 256, 512, 1024, 2048}
		loads := []float64{0.4, 0.6, 0.8}
		if quick {
			duration = 2e-3
			sizes = []int{128, 256, 512}
			loads = []float64{0.6}
		}
		points, err := experiments.RunFig7(sizes, loads, duration, seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig7(points))
	case "fig8", "fig9", "fig10", "fig11":
		res, err := runComparison(quick, seed)
		if err != nil {
			return err
		}
		switch name {
		case "fig8":
			fmt.Print(experiments.RenderFig8(res.SpeedupOverFlowtune()))
		case "fig9":
			fmt.Print(res.RenderFig9())
		case "fig10":
			fmt.Print(res.RenderFig10())
		case "fig11":
			fmt.Print(res.RenderFig11())
		}
	case "fig12":
		cfg := experiments.NormalizationConfig{Seed: seed}
		loads := []float64{0.2, 0.4, 0.6, 0.8}
		if quick {
			cfg.Duration = 2e-3
			loads = []float64{0.4, 0.8}
		}
		points, err := experiments.RunFig12(loads, cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig12(points))
	case "fig13":
		cfg := experiments.NormalizationConfig{Seed: seed}
		loads := []float64{0.2, 0.4, 0.6, 0.8}
		if quick {
			cfg.Duration = 2e-3
			loads = []float64{0.6}
		}
		points, err := experiments.RunFig13(loads, cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig13(points))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
		os.Exit(2)
	}
	return nil
}

// comparisonCache avoids re-running the expensive scheme sweep when several
// of fig8–fig11 are requested in the same invocation.
var comparisonCache *experiments.ComparisonResult

func runComparison(quick bool, seed int64) (*experiments.ComparisonResult, error) {
	if comparisonCache != nil {
		return comparisonCache, nil
	}
	cfg := experiments.ComparisonConfig{Workload: workload.Web, Seed: seed}
	if quick {
		cfg.Loads = []float64{0.6}
		cfg.Duration = 4e-3
		cfg.Warmup = 1e-3
	}
	res, err := experiments.RunComparison(cfg)
	if err != nil {
		return nil, err
	}
	comparisonCache = res
	return res, nil
}
