package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Series under the same family name are told
// apart by their label sets ({shard="0"} vs {shard="1"}).
type Label struct {
	Key, Value string
}

// metricKind is the Prometheus metric type of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing value. The zero value is unusable;
// obtain counters from a Registry. All methods are safe for concurrent use
// and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be non-negative; negative deltas
// are ignored so a miscounted source cannot make the series non-monotonic).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets are cumulative
// upper-bound counters in the Prometheus style; Observe is a linear scan
// over at most a few dozen bounds plus three atomic adds — no allocation,
// no locking.
type Histogram struct {
	bounds []float64 // sorted upper bounds, +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n exponentially spaced bucket bounds starting at start
// and growing by factor. It is the standard latency-bucket shape
// (ExpBuckets(1e-6, 4, 10) spans 1 µs to ~262 ms).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// series is one exposition line: a label set plus its value source.
type series struct {
	labels string // pre-rendered {k="v",...}, "" when unlabeled
	// Exactly one of the following is set.
	counter     *Counter
	counterFunc func() float64
	gaugeFunc   func() float64
	hist        *Histogram
}

// family is one named metric with HELP/TYPE and its series.
type family struct {
	name string
	help string
	kind metricKind
	ser  []series
	seen map[string]struct{} // label strings, duplicate defense
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration order is preserved, so scrapes are
// deterministic. Registration methods panic on invalid names, duplicate
// series, or re-registering a name under a different type/help — these are
// programming errors, caught by the exposition lint test.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(name, help, kindCounter, series{counter: c}, labels)
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the binding that exposes pre-existing atomic counters
// (server.Stats and friends) without double-counting.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindCounter, series{counterFunc: fn}, labels)
}

// GaugeFunc registers a gauge series evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindGauge, series{gaugeFunc: fn}, labels)
}

// Histogram registers and returns a histogram with the given upper bounds
// (sorted ascending; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %s bounds not sorted", name))
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)),
	}
	r.add(name, help, kindHistogram, series{hist: h}, labels)
	return h
}

func (r *Registry) add(name, help string, kind metricKind, s series, labels []Label) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, seen: make(map[string]struct{})}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	} else if f.help != help {
		panic(fmt.Sprintf("telemetry: metric %s re-registered with different help", name))
	}
	if _, dup := f.seen[s.labels]; dup {
		panic(fmt.Sprintf("telemetry: duplicate series %s%s", name, s.labels))
	}
	f.seen[s.labels] = struct{}{}
	f.ser = append(f.ser, s)
}

// validMetricName reports whether name matches the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// validLabelKey reports whether key matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(key string) bool {
	if key == "" {
		return false
	}
	for i, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// renderLabels renders a label set as {k="v",...} with exposition escaping,
// keys in the given order (callers pass stable orders, so series identity is
// deterministic).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label key %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		escapeLabelValue(&b, l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes (backslash, quote,
// newline).
func escapeLabelValue(b *strings.Builder, v string) {
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
}

// escapeHelp escapes a HELP string (backslash and newline only, per the
// format).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value. Integral values print without an
// exponent so counters read naturally; everything else uses the shortest
// round-trip float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): families in registration order, each preceded by its HELP
// and TYPE lines, series in registration order. Scrape-time funcs are
// evaluated here.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.ser {
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.counterFunc != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.counterFunc()))
			case s.gaugeFunc != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.gaugeFunc()))
			case s.hist != nil:
				writeHistogram(&b, f.name, s.labels, s.hist)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative _bucket lines,
// then _sum and _count.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	// The bucket label set extends the series labels with le="bound".
	prefix := "{"
	if labels != "" {
		prefix = labels[:len(labels)-1] + ","
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%sle=%q} %d\n", name, prefix, formatValue(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", name, prefix, h.Count())
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.Count())
}
