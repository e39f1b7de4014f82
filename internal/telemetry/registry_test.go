package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("flows_total", "total flows", Label{"shard", "0"})
	c.Add(3)
	reg.Counter("flows_total", "total flows", Label{"shard", "1"}).Add(1)
	reg.GaugeFunc("queue_depth", "events waiting", func() float64 { return 2.5 })
	reg.GaugeFunc("up", "always 1", func() float64 { return 1 })
	reg.CounterFunc("bytes_total", "bytes", func() float64 { return 1e6 }, Label{"encoding", "wire"})

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP flows_total total flows\n",
		"# TYPE flows_total counter\n",
		`flows_total{shard="0"} 3` + "\n",
		`flows_total{shard="1"} 1` + "\n",
		"queue_depth 2.5\n",
		"up 1\n",
		`bytes_total{encoding="wire"} 1000000` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint(out); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
}

func TestRegistryHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("latency_seconds", "iteration latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d; want 4", h.Count())
	}
	if got := h.Sum(); math.Abs(got-5.555) > 1e-12 {
		t.Fatalf("Sum = %g; want 5.555", got)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="0.01"} 1`,
		`latency_seconds_bucket{le="0.1"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="+Inf"} 4`,
		"latency_seconds_sum 5.555",
		"latency_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint(out); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
}

func TestRegistryLabeledHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency", []float64{1}, Label{"shard", "2"})
	h.Observe(0.5)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `lat_bucket{shard="2",le="1"} 1`) {
		t.Errorf("labeled bucket series missing:\n%s", out)
	}
	if err := Lint(out); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("ok_total", "fine")
	mustPanic("duplicate series", func() { reg.Counter("ok_total", "fine") })
	mustPanic("type mismatch", func() { reg.GaugeFunc("ok_total", "fine", func() float64 { return 0 }) })
	mustPanic("help mismatch", func() { reg.Counter("ok_total", "different", Label{"a", "b"}) })
	mustPanic("bad name", func() { reg.Counter("bad name", "x") })
	mustPanic("bad label key", func() { reg.Counter("fine_total", "x", Label{"0bad", "v"}) })
	mustPanic("unsorted buckets", func() { reg.Histogram("h", "x", []float64{2, 1}) })
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "c", Label{"path", "a\"b\\c\nd"})
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `c_total{path="a\"b\\c\nd"} 0`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped series %q missing:\n%s", want, b.String())
	}
	if err := Lint(b.String()); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("Value = %d; want 5 (negative add ignored)", c.Value())
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no help/type", "foo 1\n"},
		{"duplicate series", "# HELP foo f\n# TYPE foo counter\nfoo 1\nfoo 2\n"},
		{"bad type", "# HELP foo f\n# TYPE foo banana\nfoo 1\n"},
		{"bad value", "# HELP foo f\n# TYPE foo counter\nfoo abc\n"},
		{"interleaved families", "# HELP a f\n# TYPE a counter\na 1\n# HELP b f\n# TYPE b counter\nb 1\na{x=\"1\"} 2\n"},
		{"empty", "\n"},
	}
	for _, c := range cases {
		if err := Lint(c.in); err == nil {
			t.Errorf("%s: lint accepted invalid exposition", c.name)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("bucket %d = %g; want %g", i, b[i], want[i])
		}
	}
}
