package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind selects one of the three Facebook workloads from the paper.
type Kind int

const (
	// Web is the web-server workload: dominated by very small flows, with
	// the highest rate of flowlet arrivals. It stresses Flowtune the most
	// and is the paper's default.
	Web Kind = iota
	// Cache is the cache-follower workload: small-to-medium flows with a
	// heavier tail than Web.
	Cache
	// Hadoop is the Hadoop workload: larger flows and the lowest arrival
	// rate for a given load.
	Hadoop
	// WebSearch is the DCTCP web-search workload (Alizadeh et al., SIGCOMM
	// 2010), the standard heavy-short-query distribution of the
	// flow-scheduling literature.
	WebSearch
	// DataMining is the VL2 data-mining workload (Greenberg et al., SIGCOMM
	// 2009): over half the flows are a single packet, but most bytes travel
	// in flows of 100 MB and more.
	DataMining
)

// String returns the lowercase workload name used in the paper's figures.
func (k Kind) String() string {
	switch k {
	case Web:
		return "web"
	case Cache:
		return "cache"
	case Hadoop:
		return "hadoop"
	case WebSearch:
		return "websearch"
	case DataMining:
		return "datamining"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a workload name ("web", "cache", "hadoop", "websearch",
// "datamining") to its Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{Web, Cache, Hadoop, WebSearch, DataMining} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown workload kind %q", s)
}

// PacketSize is the MTU-sized packet used to convert between bytes and
// packets in the evaluation (1500-byte Ethernet frames).
const PacketSize = 1500

// SizeDist is a flow/flowlet size distribution in bytes.
type SizeDist interface {
	// Sample draws a flowlet size in bytes.
	Sample(rng *rand.Rand) int64
	// Mean returns the distribution's mean size in bytes.
	Mean() float64
	// Name returns a short identifier for reports.
	Name() string
}

// cdfPoint is one point of an empirical CDF: Prob of the size being <= Bytes.
type cdfPoint struct {
	Bytes float64
	Prob  float64
}

// EmpiricalDist is a piecewise log-linear empirical size distribution,
// interpolated between CDF points in log-size space.
type EmpiricalDist struct {
	name   string
	points []cdfPoint
	mean   float64
}

// NewEmpirical builds an empirical distribution from CDF points. Points must
// be sorted by probability, start at probability 0 and end at probability 1,
// with strictly positive, finite sizes. The conditions are written so that a
// NaN, which fails every comparison, fails them too.
func NewEmpirical(name string, points []cdfPoint) (*EmpiricalDist, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("workload: need at least 2 CDF points, got %d", len(points))
	}
	if points[0].Prob != 0 || points[len(points)-1].Prob != 1 {
		return nil, fmt.Errorf("workload: CDF must span probability [0,1]")
	}
	for i, p := range points {
		if !(p.Bytes > 0) || math.IsInf(p.Bytes, 1) {
			return nil, fmt.Errorf("workload: CDF point %d has size %g, want positive and finite", i, p.Bytes)
		}
		if i > 0 && !(p.Prob >= points[i-1].Prob && p.Bytes >= points[i-1].Bytes) {
			return nil, fmt.Errorf("workload: CDF points must be non-decreasing (point %d)", i)
		}
	}
	d := &EmpiricalDist{name: name, points: points}
	d.mean = d.computeMean()
	return d, nil
}

// computeMean numerically integrates the inverse CDF.
func (d *EmpiricalDist) computeMean() float64 {
	const steps = 100000
	sum := 0.0
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / steps
		sum += d.quantile(u)
	}
	return sum / steps
}

// quantile returns the size at probability u using log-linear interpolation.
func (d *EmpiricalDist) quantile(u float64) float64 {
	pts := d.points
	if u <= pts[0].Prob {
		return pts[0].Bytes
	}
	if u >= pts[len(pts)-1].Prob {
		return pts[len(pts)-1].Bytes
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Prob >= u })
	lo, hi := pts[i-1], pts[i]
	if hi.Prob == lo.Prob {
		return hi.Bytes
	}
	frac := (u - lo.Prob) / (hi.Prob - lo.Prob)
	logSize := math.Log(lo.Bytes) + frac*(math.Log(hi.Bytes)-math.Log(lo.Bytes))
	return math.Exp(logSize)
}

// Sample draws a flowlet size in bytes (at least 64 bytes).
func (d *EmpiricalDist) Sample(rng *rand.Rand) int64 {
	size := int64(math.Round(d.quantile(rng.Float64())))
	if size < 64 {
		size = 64
	}
	return size
}

// Mean returns the mean flowlet size in bytes.
func (d *EmpiricalDist) Mean() float64 { return d.mean }

// Name returns the distribution name.
func (d *EmpiricalDist) Name() string { return d.name }

// NewSizeDist returns the empirical flowlet-size distribution for a workload
// kind. The CDFs are modelled after the published Facebook datacenter
// measurements (Roy et al., SIGCOMM 2015) referenced by the paper: Web is
// dominated by sub-10-packet flows, Cache has a mid-size body with a heavy
// tail, and Hadoop has the largest flows.
func NewSizeDist(kind Kind) *EmpiricalDist {
	var pts []cdfPoint
	switch kind {
	case Web:
		pts = []cdfPoint{
			{Bytes: 100, Prob: 0},
			{Bytes: 300, Prob: 0.30},
			{Bytes: 1e3, Prob: 0.55},
			{Bytes: 3e3, Prob: 0.70},
			{Bytes: 1e4, Prob: 0.80},
			{Bytes: 5e4, Prob: 0.90},
			{Bytes: 2e5, Prob: 0.96},
			{Bytes: 1e6, Prob: 0.99},
			{Bytes: 1e7, Prob: 1.0},
		}
	case Cache:
		pts = []cdfPoint{
			{Bytes: 100, Prob: 0},
			{Bytes: 500, Prob: 0.20},
			{Bytes: 2e3, Prob: 0.45},
			{Bytes: 1e4, Prob: 0.65},
			{Bytes: 7e4, Prob: 0.80},
			{Bytes: 4e5, Prob: 0.92},
			{Bytes: 2e6, Prob: 0.98},
			{Bytes: 3e7, Prob: 1.0},
		}
	case Hadoop:
		pts = []cdfPoint{
			{Bytes: 300, Prob: 0},
			{Bytes: 1e3, Prob: 0.10},
			{Bytes: 1e4, Prob: 0.30},
			{Bytes: 1e5, Prob: 0.55},
			{Bytes: 1e6, Prob: 0.80},
			{Bytes: 1e7, Prob: 0.95},
			{Bytes: 1e8, Prob: 1.0},
		}
	case WebSearch:
		pts = webSearchCDF
	case DataMining:
		pts = dataMiningCDF
	default:
		panic(fmt.Sprintf("workload: unknown kind %d", int(kind)))
	}
	d, err := NewEmpirical(kind.String(), pts)
	if err != nil {
		panic(err) // the built-in tables are statically correct
	}
	return d
}

// Flowlet is one flowlet to be injected into the network or announced to the
// allocator.
type Flowlet struct {
	// ID is a unique, monotonically increasing identifier.
	ID int64
	// Arrival is the arrival time in seconds from the start of the run.
	Arrival float64
	// Src and Dst are server indices.
	Src, Dst int
	// SizeBytes is the flowlet length in bytes.
	SizeBytes int64
}

// GeneratorConfig configures a flowlet generator.
type GeneratorConfig struct {
	// Kind selects the size distribution.
	Kind Kind
	// NumServers is the number of servers to spread traffic across.
	NumServers int
	// ServerLinkCapacity is the capacity of each server link in bits/s.
	ServerLinkCapacity float64
	// Load is the target average server load in (0, 1]: the Poisson
	// arrival rate is chosen so offered bytes equal Load × capacity.
	Load float64
	// Seed seeds the deterministic random source.
	Seed int64
}

// Validate checks the generator configuration.
func (c GeneratorConfig) Validate() error {
	switch {
	case c.NumServers < 2:
		return fmt.Errorf("workload: need at least 2 servers, got %d", c.NumServers)
	case c.ServerLinkCapacity <= 0:
		return fmt.Errorf("workload: ServerLinkCapacity must be positive, got %g", c.ServerLinkCapacity)
	case c.Load <= 0 || c.Load > 1:
		return fmt.Errorf("workload: Load must be in (0,1], got %g", c.Load)
	}
	return nil
}

// Generator produces a Poisson stream of flowlets at a target load.
type Generator struct {
	cfg   GeneratorConfig
	dist  *EmpiricalDist
	rng   *rand.Rand
	rate  float64 // aggregate flowlet arrivals per second
	next  float64 // arrival time of the next flowlet
	count int64
}

// NewGenerator creates a flowlet generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dist := NewSizeDist(cfg.Kind)
	// 100% load is when the per-server arrival rate equals link capacity
	// divided by mean flow size (§6.2).
	perServer := cfg.Load * cfg.ServerLinkCapacity / (8 * dist.Mean())
	g := &Generator{
		cfg:  cfg,
		dist: dist,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		rate: perServer * float64(cfg.NumServers),
	}
	g.next = g.expInterval()
	return g, nil
}

func (g *Generator) expInterval() float64 {
	return g.rng.ExpFloat64() / g.rate
}

// Next returns the next flowlet in arrival order.
func (g *Generator) Next() Flowlet {
	f := Flowlet{
		ID:        g.count,
		Arrival:   g.next,
		SizeBytes: g.dist.Sample(g.rng),
	}
	f.Src = g.rng.Intn(g.cfg.NumServers)
	f.Dst = g.rng.Intn(g.cfg.NumServers - 1)
	if f.Dst >= f.Src {
		f.Dst++
	}
	g.count++
	g.next += g.expInterval()
	return f
}

// GenerateUntil returns all flowlets arriving before the given time horizon
// in seconds.
func (g *Generator) GenerateUntil(horizon float64) []Flowlet {
	var out []Flowlet
	for g.next < horizon {
		out = append(out, g.Next())
	}
	return out
}

// BucketLabel classifies a flowlet size into the paper's Figure 8 buckets:
// "1 packet", "1-10 packets", "10-100 packets", "100-1000 packets", "large".
func BucketLabel(sizeBytes int64) string {
	packets := (sizeBytes + PacketSize - 1) / PacketSize
	switch {
	case packets <= 1:
		return "1 packet"
	case packets <= 10:
		return "1-10 packets"
	case packets <= 100:
		return "10-100 packets"
	case packets <= 1000:
		return "100-1000 packets"
	default:
		return "large"
	}
}

// Buckets lists the Figure 8 bucket labels in ascending size order.
func Buckets() []string {
	return []string{"1 packet", "1-10 packets", "10-100 packets", "100-1000 packets", "large"}
}
