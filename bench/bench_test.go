package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs a 200 ms window of every workload, untraced and
// traced, through the one command and checks that every named metric is
// present, finite and unit-tagged, and that the gate passes.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if w.resident >= 1000000 && (testing.Short() || raceEnabled) {
			continue // a million registrations under the race detector take minutes
		}
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.2", "--trace", []string{"0", "1"}[trace]}
			code, err := run(args, &out)
			if code != 0 || err != nil {
				t.Fatalf("%v: exit %d: %v\n%s", args, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%v: last line is not the result object: %v", args, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%v: correct=%t attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%v: %d metrics, want %d", args, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%v: metric %s is missing", args, d.name)
				case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
					t.Errorf("%v: metric %s = %v", args, d.name, *m.Value)
				case m.Unit != d.unit:
					t.Errorf("%v: metric %s has unit %q, want %q", args, d.name, m.Unit, d.unit)
				}
				if trace == 0 && ok && m.Value != nil && *m.Value <= 0 {
					t.Errorf("%v: end-to-end metric %s = %v, must be positive", args, d.name, *m.Value)
				}
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n         int
		p, want   float64
		supported bool
	}{
		{20, 0.5, 10, true},     // 10 beyond
		{19, 0.5, 10, false},    // 9 beyond
		{100, 0.9, 90, true},    // 10 beyond
		{99, 0.9, 90, false},    // 9 beyond
		{1000, 0.99, 990, true}, // 10 beyond
		{134, 0.99, 133, false}, // one beyond: scale-1m's p99 is its second-largest sample
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(sample(c.n), c.p)
		if got != c.want || ok != c.supported {
			t.Errorf("percentile(1..%d, %g) = %g, %t; want %g, %t", c.n, c.p, got, ok, c.want, c.supported)
		}
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile of an empty sample = %g, %t", v, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %g %g %g", q1, q2, q3)
	}
}

// TestEstimatesStandOnTheBestSlices: on a closed loop a disturbed stretch of
// the window must not move the latency or the rate; on the open loop both are
// whole-window figures.
func TestEstimatesStandOnTheBestSlices(t *testing.T) {
	const slices, perSlice = 40, 30
	win, err := newWindow(slices*perSlice, slices, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer win.free()
	win.marks = append(win.marks, mark{})
	var at time.Duration
	for k := 0; k < slices; k++ {
		lat := 10 * time.Microsecond
		if k%5 != 0 { // four slices in five are disturbed: everything takes three times as long
			lat *= 3
		}
		for i := 0; i < perSlice; i++ {
			win.lat.add(int64(lat))
			at += lat
		}
		win.ops += perSlice
		win.marks = append(win.marks, mark{ops: win.ops, at: at})
	}
	win.elapsed = at
	p50, rate, n := win.estimates(findWorkload("step-idle"))
	if p50 != 10 || math.Abs(rate-1e5) > 1 || n != slices {
		t.Errorf("closed loop: p50 %g us, %g ops/s over %d slices; want 10, 1e5, %d", p50, rate, n, slices)
	}
	p50, rate, _ = win.estimates(findWorkload("freerun-1k"))
	if whole := float64(win.ops) / at.Seconds(); p50 != 30 || rate != whole {
		t.Errorf("open loop: p50 %g us, %g ops/s; want the whole window's 30 and %g", p50, rate, whole)
	}
}

// TestSpansNest checks the conn-wrapper spans of a traced window: they nest,
// and together they are the round trip they cut, never more.
func TestSpansNest(t *testing.T) {
	for _, name := range []string{"step-idle", "freerun-1k"} {
		w := findWorkload(name)
		b, err := setup(w, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		win, err := newWindow(40000, 1, true, w.interval > 0)
		if err != nil {
			t.Fatal(err)
		}
		err = b.run(400*time.Millisecond, win)
		b.close()
		if err != nil {
			t.Fatal(err)
		}
		if win.latTraced.n == 0 || win.lat.n == 0 {
			t.Fatalf("%s: %d traced and %d untraced operations, want both", name, win.latTraced.n, win.lat.n)
		}
		if win.unmatched*20 > win.ops {
			t.Errorf("%s: %d of %d traced operations did not nest", name, win.unmatched, win.ops)
		}
		for i := 0; i < win.latTraced.n; i++ {
			var sum int64
			for _, c := range win.sp {
				// column.add clamps at 0, so a span that was negative would
				// show as the sum falling short of the round trip instead.
				sum += c.at(i)
			}
			// On the open loop the round trip starts at the due time, before
			// the call the spans start at; on the closed loop they coincide.
			trip := win.latTraced.at(i)
			if sum > trip || win.late == nil && sum != trip {
				t.Fatalf("%s: operation %d spans sum to %d ns, round trip %d ns", name, i, sum, trip)
			}
		}
		win.free()
	}
}

// TestSameSeedSameRun checks determinism: a seed fixes every flowlet's
// endpoints, and on step-driven workloads a fixed number of steps costs
// bit-identical wire bytes per event.
func TestSameSeedSameRun(t *testing.T) {
	for id := int64(0); id < 5000; id++ {
		s1, d1 := endpoints(42, id, 1024)
		s2, d2 := endpoints(42, id, 1024)
		if s1 != s2 || d1 != d2 || s1 == d1 || s1 < 0 || s1 >= 1024 || d1 < 0 || d1 >= 1024 {
			t.Fatalf("endpoints(42, %d) = %d→%d then %d→%d", id, s1, d1, s2, d2)
		}
	}
	s1, d1 := endpoints(42, 9, 1024)
	if s2, d2 := endpoints(43, 9, 1024); s1 == s2 && d1 == d2 {
		t.Errorf("seeds 42 and 43 give flow 9 the same endpoints %d→%d", s1, d1)
	}
	bytesPerEvent := func(w *workload, steps int) float64 {
		b, err := setup(w, 42, false)
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		before, err := b.counters()
		if err != nil {
			t.Fatal(err)
		}
		win, err := newWindow(steps, 1, false, false)
		if err != nil {
			t.Fatal(err)
		}
		defer win.free()
		if err := b.run(0, win); err != nil {
			t.Fatal(err)
		}
		after, err := b.counters()
		if err != nil {
			t.Fatal(err)
		}
		if win.ops != steps || win.failed != 0 {
			t.Fatalf("%s: %d operations, %d failed, want %d and 0", w.name, win.ops, win.failed, steps)
		}
		return float64(int64(win.ops*w.requestBytes())+deltaOf(before, after).fanoutBytes) / float64(win.events)
	}
	for _, c := range []struct {
		name  string
		steps int
	}{{"step-idle", 2000}, {"step-10k", 200}, {"churn-20k", 20}} {
		w := findWorkload(c.name)
		first, second := bytesPerEvent(w, c.steps), bytesPerEvent(w, c.steps)
		if first != second || first <= 0 {
			t.Errorf("%s: wire bytes per event %v then %v with the same seed", c.name, first, second)
		}
	}
}

// TestGateCatchesAWrongFlowSet: the gate must fail when the daemon's flow set
// is not the one the harness believes in.
func TestGateCatchesAWrongFlowSet(t *testing.T) {
	b, err := setup(findWorkload("step-idle"), 5, false)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.idle(b.w.quiet); err != nil {
		t.Fatal(err)
	}
	mirror, err := b.replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.gate(mirror); err != nil {
		t.Fatalf("gate on an untouched daemon: %v", err)
	}
	b.next++ // the harness now expects a flowlet the daemon never saw
	if err := b.gate(mirror); err == nil {
		t.Error("gate passed although a live flowlet has no rate")
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the tables in
// workloads.go equal, so the file the driver reads cannot drift from what the
// harness prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if strings.Join(spec.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v", spec.Command)
	}
	var listed []workload
	for _, w := range workloads {
		if !w.manual {
			listed = append(listed, w)
		}
	}
	if len(spec.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness that are not manual", len(spec.Workloads), len(listed))
	}
	for i, w := range listed {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %q %q, harness has %q %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, harness has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the harness's %g", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestCompareVerdicts: a spread wider than the bound is unresolved, not
// unchanged; a median worse by more than the bound is a regression; every
// ratio names its base.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s, rates []float64) string {
		path := filepath.Join(dir, name)
		for i := range p50s {
			r := &result{Workload: "step-idle", Metrics: map[string]metricValue{
				"start_to_rate_p50_us": {Value: p50s[i], Unit: "us"},
				"events_per_s":         {Value: rates[i], Unit: "1/s"},
				"setup_s":              {Value: []float64{1, 2, 3}[i], Unit: "s"},
			}}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent.json", []float64{16, 16.1, 16.2}, []float64{100000, 101000, 102000})
	change := write("change.json", []float64{21, 21.1, 21.2}, []float64{100500, 101500, 102500})
	var out bytes.Buffer
	code, err := compareFiles(parent, change, &out)
	if err != nil || code != 1 {
		t.Fatalf("compare: exit %d, %v\n%s", code, err, out.String())
	}
	row := func(metric string) string {
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+metric+" ") {
				return line
			}
		}
		t.Fatalf("no row for %s in\n%s", metric, out.String())
		return ""
	}
	if r := row("start_to_rate_p50_us"); !strings.Contains(r, "REGRESSED") || !strings.Contains(r, "% of 16.1 us") {
		t.Errorf("p50 row: %s", r)
	}
	if r := row("events_per_s"); !strings.Contains(r, "within bound") {
		t.Errorf("events row: %s", r)
	}
	if r := row("setup_s"); !strings.Contains(r, "unresolved") {
		t.Errorf("setup row: %s", r)
	}
}
