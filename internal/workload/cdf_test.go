package workload

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParseCDFTwoColumn(t *testing.T) {
	src := `# comment line
1460 0
14600 0.5

146000 1.0
`
	d, err := ParseCDF("test", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseCDF: %v", err)
	}
	if got := d.quantile(0); got != 1460 {
		t.Errorf("Quantile(0) = %g, want 1460", got)
	}
	if got := d.quantile(1); got != 146000 {
		t.Errorf("Quantile(1) = %g, want 146000", got)
	}
	if got := d.quantile(0.5); got < 14599 || got > 14601 {
		t.Errorf("Quantile(0.5) = %g, want ~14600", got)
	}
}

func TestParseCDFThreeColumnAndImplicitZero(t *testing.T) {
	// ns-2 style: <bytes> <id> <cdf>, first probability above zero.
	src := "1460 1 0.3\n14600 2 1\n"
	d, err := ParseCDF("ns2", strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseCDF: %v", err)
	}
	// The zero-probability point is prepended at the smallest size.
	if got := d.quantile(0.1); got != 1460 {
		t.Errorf("Quantile(0.1) = %g, want 1460", got)
	}
}

func TestParseCDFErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"not ending at 1":  "100 0\n200 0.5\n",
		"bad column count": "100\n",
		"bad probability":  "100 1.5\n",
		"bad size":         "abc 1\n",
		"trailing garbage": "1460x 0.5\n2000 1\n",
		"glued columns":    "1e44.5 0.9\n2000 1\n",
		"NaN probability":  "1460 0\n1460 NaN\n2920 1\n",
		"NaN size":         "1460 0\nNaN 0.5\n2920 1\n",
		"infinite size":    "1460 0\n+Inf 0.5\n+Inf 1\n",
		"NaN last point":   "1460 0.2\n2920 NaN\n",
	}
	for name, src := range cases {
		if _, err := ParseCDF(name, strings.NewReader(src)); err == nil {
			t.Errorf("%s: ParseCDF accepted %q", name, src)
		}
	}
}

// TestBuiltinDistSanity checks mean/percentile invariants of every built-in
// distribution: quantiles are monotone, span the table, and the analytic mean
// matches the empirical mean of a large sample.
func TestBuiltinDistSanity(t *testing.T) {
	for _, kind := range []Kind{Web, Cache, Hadoop, WebSearch, DataMining} {
		d := NewSizeDist(kind)
		min, max := d.quantile(0), d.quantile(1)
		if min <= 0 || max <= min {
			t.Fatalf("%s: degenerate quantile range [%g, %g]", kind, min, max)
		}
		prev := 0.0
		for u := 0.0; u <= 1.0; u += 0.01 {
			q := d.quantile(u)
			if q < prev {
				t.Fatalf("%s: quantile not monotone at u=%.2f: %g < %g", kind, u, q, prev)
			}
			prev = q
		}
		mean := d.Mean()
		if mean < min || mean > max {
			t.Fatalf("%s: mean %g outside [%g, %g]", kind, mean, min, max)
		}
		rng := rand.New(rand.NewSource(1))
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(d.Sample(rng))
		}
		got := sum / n
		if got < 0.9*mean || got > 1.1*mean {
			t.Errorf("%s: sample mean %g deviates from analytic mean %g by more than 10%%", kind, got, mean)
		}
	}
}

func TestDistributionShapes(t *testing.T) {
	// Over half of data-mining flows fit in one packet; web-search flows
	// start at one MSS and reach the megabyte range.
	dm := NewSizeDist(DataMining)
	if p50 := dm.quantile(0.5); p50 > 1460 {
		t.Errorf("datamining p50 = %g, want <= 1460", p50)
	}
	ws := NewSizeDist(WebSearch)
	if p99 := ws.quantile(0.99); p99 < 1e6 {
		t.Errorf("websearch p99 = %g, want >= 1 MB", p99)
	}
	if ws.Mean() <= NewSizeDist(Web).Mean() {
		t.Errorf("websearch mean %g should exceed facebook web mean %g", ws.Mean(), NewSizeDist(Web).Mean())
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{Web, Cache, Hadoop, WebSearch, DataMining} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted unknown name")
	}
}
