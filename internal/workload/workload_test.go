package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		want string
	}{{Web, "web"}, {Cache, "cache"}, {Hadoop, "hadoop"}} {
		if got := tc.kind.String(); got != tc.want {
			t.Errorf("%v.String() = %q, want %q", tc.kind, got, tc.want)
		}
	}
}

func TestNewEmpiricalValidation(t *testing.T) {
	cases := []struct {
		name string
		pts  []cdfPoint
	}{
		{"too few", []cdfPoint{{Bytes: 1, Prob: 0}}},
		{"no zero start", []cdfPoint{{Bytes: 1, Prob: 0.5}, {Bytes: 2, Prob: 1}}},
		{"no one end", []cdfPoint{{Bytes: 1, Prob: 0}, {Bytes: 2, Prob: 0.9}}},
		{"non-positive size", []cdfPoint{{Bytes: 0, Prob: 0}, {Bytes: 2, Prob: 1}}},
		{"decreasing prob", []cdfPoint{{Bytes: 1, Prob: 0}, {Bytes: 2, Prob: 0.7}, {Bytes: 3, Prob: 0.5}, {Bytes: 4, Prob: 1}}},
		{"decreasing size", []cdfPoint{{Bytes: 10, Prob: 0}, {Bytes: 5, Prob: 0.5}, {Bytes: 20, Prob: 1}}},
		{"NaN prob", []cdfPoint{{Bytes: 1, Prob: 0}, {Bytes: 2, Prob: math.NaN()}, {Bytes: 3, Prob: 1}}},
		{"NaN size", []cdfPoint{{Bytes: 1, Prob: 0}, {Bytes: math.NaN(), Prob: 0.5}, {Bytes: 3, Prob: 1}}},
		{"infinite size", []cdfPoint{{Bytes: 1, Prob: 0}, {Bytes: math.Inf(1), Prob: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewEmpirical("bad", tc.pts); err == nil {
				t.Error("invalid CDF accepted")
			}
		})
	}
	if _, err := NewEmpirical("ok", []cdfPoint{{Bytes: 100, Prob: 0}, {Bytes: 1000, Prob: 1}}); err != nil {
		t.Errorf("valid CDF rejected: %v", err)
	}
}

func TestSizeDistMeansOrdering(t *testing.T) {
	web := NewSizeDist(Web)
	cache := NewSizeDist(Cache)
	hadoop := NewSizeDist(Hadoop)
	// The paper: Web has the smallest mean flow size, Hadoop the largest.
	if !(web.Mean() < cache.Mean() && cache.Mean() < hadoop.Mean()) {
		t.Errorf("mean ordering wrong: web=%.0f cache=%.0f hadoop=%.0f", web.Mean(), cache.Mean(), hadoop.Mean())
	}
}

func TestWebMostlySmallFlows(t *testing.T) {
	// "the majority of flows are under 10 packets" — check the Web CDF.
	web := NewSizeDist(Web)
	if q := web.quantile(0.5); q > 10*PacketSize {
		t.Errorf("web median %g bytes should be under 10 packets", q)
	}
}

func TestQuantileMonotone(t *testing.T) {
	for _, kind := range []Kind{Web, Cache, Hadoop} {
		d := NewSizeDist(kind)
		prev := 0.0
		for u := 0.0; u <= 1.0; u += 0.01 {
			q := d.quantile(u)
			if q < prev {
				t.Fatalf("%v quantile not monotone at u=%.2f: %g < %g", kind, u, q, prev)
			}
			prev = q
		}
	}
}

func TestSampleWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []Kind{Web, Cache, Hadoop} {
		d := NewSizeDist(kind)
		lo := d.quantile(0)
		hi := d.quantile(1)
		for i := 0; i < 10000; i++ {
			s := float64(d.Sample(rng))
			if s < 64 || s < lo*0.99 || s > hi*1.01 {
				t.Fatalf("%v sample %g outside [%g,%g]", kind, s, lo, hi)
			}
		}
	}
}

func TestSampleMeanMatchesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewSizeDist(Web)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	empirical := sum / n
	if math.Abs(empirical-d.Mean())/d.Mean() > 0.05 {
		t.Errorf("sample mean %.0f deviates more than 5%% from analytic mean %.0f", empirical, d.Mean())
	}
}

func TestGeneratorConfigValidation(t *testing.T) {
	base := GeneratorConfig{Kind: Web, NumServers: 16, ServerLinkCapacity: 10e9, Load: 0.5}
	cases := []struct {
		name   string
		mutate func(*GeneratorConfig)
	}{
		{"one server", func(c *GeneratorConfig) { c.NumServers = 1 }},
		{"zero capacity", func(c *GeneratorConfig) { c.ServerLinkCapacity = 0 }},
		{"zero load", func(c *GeneratorConfig) { c.Load = 0 }},
		{"load above one", func(c *GeneratorConfig) { c.Load = 1.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := NewGenerator(cfg); err == nil {
				t.Error("invalid generator config accepted")
			}
		})
	}
	if _, err := NewGenerator(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestGeneratorArrivalRateMatchesLoad(t *testing.T) {
	cfg := GeneratorConfig{Kind: Web, NumServers: 100, ServerLinkCapacity: 10e9, Load: 0.8, Seed: 3}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// offered bytes/s = rate × mean size; offered load = offered bits /
	// (servers × capacity) should equal Load.
	offered := g.rate * g.dist.Mean() * 8
	load := offered / (float64(cfg.NumServers) * cfg.ServerLinkCapacity)
	if math.Abs(load-cfg.Load) > 1e-9 {
		t.Errorf("implied load %g, want %g", load, cfg.Load)
	}
}

func TestGeneratorFlowletsSortedAndValid(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{Kind: Cache, NumServers: 32, ServerLinkCapacity: 10e9, Load: 0.6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flows := generateN(g, 5000)
	prev := 0.0
	seen := make(map[int64]bool)
	for _, f := range flows {
		if f.Arrival < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = f.Arrival
		if f.Src == f.Dst {
			t.Fatal("flowlet with identical src and dst")
		}
		if f.Src < 0 || f.Src >= 32 || f.Dst < 0 || f.Dst >= 32 {
			t.Fatalf("endpoint out of range: %+v", f)
		}
		if f.SizeBytes < 64 {
			t.Fatalf("flowlet too small: %+v", f)
		}
		if seen[f.ID] {
			t.Fatalf("duplicate flowlet ID %d", f.ID)
		}
		seen[f.ID] = true
	}
}

func TestGenerateUntilHorizon(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{Kind: Web, NumServers: 64, ServerLinkCapacity: 10e9, Load: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 1e-3
	flows := g.GenerateUntil(horizon)
	if len(flows) == 0 {
		t.Fatal("no flowlets generated in 1 ms at load 0.5")
	}
	for _, f := range flows {
		if f.Arrival >= horizon {
			t.Fatalf("flowlet at %g beyond horizon %g", f.Arrival, horizon)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() []Flowlet {
		g, err := NewGenerator(GeneratorConfig{Kind: Web, NumServers: 16, ServerLinkCapacity: 10e9, Load: 0.4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return generateN(g, 100)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generator not deterministic at flowlet %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestBucketLabel(t *testing.T) {
	cases := []struct {
		bytes int64
		want  string
	}{
		{1, "1 packet"},
		{1500, "1 packet"},
		{1501, "1-10 packets"},
		{15000, "1-10 packets"},
		{15001, "10-100 packets"},
		{150000, "10-100 packets"},
		{150001, "100-1000 packets"},
		{1500000, "100-1000 packets"},
		{1500001, "large"},
		{1 << 30, "large"},
	}
	for _, tc := range cases {
		if got := BucketLabel(tc.bytes); got != tc.want {
			t.Errorf("BucketLabel(%d) = %q, want %q", tc.bytes, got, tc.want)
		}
	}
	if len(Buckets()) != 5 {
		t.Errorf("Buckets() should list 5 buckets")
	}
}

// TestBucketLabelProperty: the bucket label is consistent with SizePackets.
func TestBucketLabelProperty(t *testing.T) {
	prop := func(raw uint32) bool {
		bytes := int64(raw%(3<<20)) + 1
		packets := (bytes + PacketSize - 1) / PacketSize
		label := BucketLabel(bytes)
		switch {
		case packets <= 1:
			return label == "1 packet"
		case packets <= 10:
			return label == "1-10 packets"
		case packets <= 100:
			return label == "10-100 packets"
		case packets <= 1000:
			return label == "100-1000 packets"
		default:
			return label == "large"
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// generateN returns the generator's next n flowlets.
func generateN(g *Generator, n int) []Flowlet {
	out := make([]Flowlet, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.Next())
	}
	return out
}
