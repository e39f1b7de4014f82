package main

import (
	"time"

	"repro/internal/topology"
)

// workload is one fixed traffic mix. The names are permanent: later PRs
// compare against numbers recorded under them.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json carries
	// the same sentence).
	why    string
	fabric topology.Config
	// resident is the constant number of live flowlets; churn is the number
	// of flowlet ends (and as many starts) per step or probe.
	resident, churn int
	// interval is the daemon's free-running tick; zero means the harness
	// drives every iteration with a Step frame (closed loop).
	interval time.Duration
	// probesPerSec is the open-loop offered probe rate (free-running only).
	probesPerSec float64
	// warmup is the number of operations run before a measured window with
	// the workload's own churn, enough for NED to have converged on the
	// freshly registered resident set (at a million flows that takes ~45
	// steps, during which a step costs twice its steady-state time) and for
	// route caches, maps and reused buffers to be warm.
	warmup int
	// quiet is the number of churn-free iterations before the correctness
	// gate reads the daemon's rates.
	quiet int
	// mirror makes the gate compare every rate with an in-process
	// core.Allocator that replayed the same events (within 1%). It is off
	// where that costs too much (scale-1m) or cannot be done from outside
	// (freerun-1k: the daemon's tick interleaving is not observable, and the
	// allocation a history of churn converges to depends on it). The traced
	// pass replays regardless, for the core/num/norm timings.
	mirror bool
	// par2 also replays through a 2-block ParallelAllocator (traced only).
	par2 bool
	// manual keeps the workload out of BENCHMARK.json: it runs from the
	// command line like the others, but the driver's time limit for all its
	// runs together cannot hold it (see README).
	manual bool
}

// closFabric is the 1024-host leaf-spine every workload but step-idle uses.
var closFabric = topology.Config{Racks: 32, ServersPerRack: 32, Spines: 16, LinkCapacity: 10e9}

// flowtunedFabric is the flowtuned flag defaults (-racks 9
// -servers-per-rack 16 -spines 4 -capacity 10e9).
var flowtunedFabric = topology.Config{Racks: 9, ServersPerRack: 16, Spines: 4, LinkCapacity: 10e9}

var workloads = []workload{
	{
		name:     "step-idle",
		why:      "16 resident flows, 1 end + 1 start per Step: the bare socket/wire/server/transport path, the solver is ~3 us of the round trip",
		fabric:   flowtunedFabric,
		resident: 16, churn: 1, warmup: 100, quiet: 200, mirror: true,
	},
	{
		name:     "step-10k",
		why:      "10000 resident, 1 end + 1 start per Step: the core/num/norm iteration is ~85% of the round trip, the opposite regime to step-idle",
		fabric:   closFabric,
		resident: 10000, churn: 1, warmup: 100, quiet: 200, mirror: true, par2: true,
	},
	{
		name:     "churn-20k",
		why:      "20000 resident, 2000 ends + 2000 starts per Step: inbox fold, churn path, route lookups and an all-rates-changed fan-out dominate, not the solver",
		fabric:   closFabric,
		resident: 20000, churn: 2000, warmup: 100, quiet: 200, mirror: true,
	},
	{
		name:     "scale-1m",
		why:      "1000000 resident, 1024 ends + 1024 starts per Step: the roadmap's million-flow point, ns/flow of the solver, fan-out volume and memory per flow",
		fabric:   closFabric,
		resident: 1000000, churn: 1024, warmup: 64, quiet: 40, manual: true,
	},
	{
		name:     "freerun-1k",
		why:      "free-running 1 ms daemon, 1000 resident, Poisson open loop at 100 probes/s: tick wait, writer kick and socket wake-ups dominate, the solver is ~80 us",
		fabric:   closFabric,
		resident: 1000, churn: 1, interval: time.Millisecond, probesPerSec: 100, warmup: 1000, quiet: 200,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Daemon configuration is the flowtuned default: sequential engine,
// threshold 0.01, lossless wire v4, default gamma.
const updateThreshold = 0.01

// flowletBytes is the size hint every started flowlet carries, so adds travel
// in the 32-byte v4 form.
const flowletBytes = 1 << 20

// metricDef names one reported metric. The two tables below are the single
// definition: BENCHMARK.json repeats them and a test holds the two equal.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before -compare calls it a regression (0 for per-layer).
	bound float64
}

// endToEnd are what a user of the control plane sees. failed_share is not
// listed: it is 0 on a healthy run, so it travels as the result's
// failed/attempted pair instead. The p99 is per-layer (tail.*): scale-1m and
// freerun-1k cannot support it (see README).
var endToEnd = []metricDef{
	{"start_to_rate_p50_us", "us", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"wire_bytes_per_event", "B", "lower", 0.25},
	{"rss_after_gc_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced pass's numbers, layer = module name.
var perLayer = []metricDef{
	{name: "transport.encode_us", unit: "us", better: "lower"},
	{name: "transport.decode_us", unit: "us", better: "lower"},
	{name: "transport.decode_ns_per_update", unit: "ns", better: "lower"},
	{name: "socket.up_us", unit: "us", better: "lower"},
	{name: "socket.down_us", unit: "us", better: "lower"},
	{name: "socket.rtt_floor_us", unit: "us", better: "lower"},
	{name: "host.sleep_quantum_us", unit: "us", better: "lower"},
	{name: "server.turnaround_us", unit: "us", better: "lower"},
	{name: "server.turnaround_p99_us", unit: "us", better: "lower"},
	{name: "server.iterate_us", unit: "us", better: "lower"},
	{name: "server.self_us", unit: "us", better: "lower"},
	{name: "server.iterate_share", unit: "ratio", better: "lower"},
	{name: "server.iterations_per_s", unit: "1/s", better: "higher"},
	{name: "server.ns_per_update", unit: "ns", better: "lower"},
	{name: "server.updates_per_event", unit: "ratio", better: "lower"},
	{name: "server.batches_per_step", unit: "ratio", better: "lower"},
	{name: "server.coalesced_share", unit: "ratio", better: "lower"},
	{name: "server.fanout_bytes_per_update", unit: "B", better: "lower"},
	{name: "server.fanout_compression", unit: "ratio", better: "higher"},
	{name: "server.dropped_share", unit: "ratio", better: "lower"},
	{name: "server.alloc_bytes_per_event", unit: "B", better: "lower"},
	{name: "core.iterate_us", unit: "us", better: "lower"},
	{name: "core.filter_us", unit: "us", better: "lower"},
	{name: "core.ns_per_flow_iter", unit: "ns", better: "lower"},
	{name: "core.update_share", unit: "ratio", better: "lower"},
	{name: "core.flowlet_start_ns", unit: "ns", better: "lower"},
	{name: "core.flowlet_end_ns", unit: "ns", better: "lower"},
	{name: "core.par2_iterate_us", unit: "us", better: "lower"},
	{name: "num.ned_step_us", unit: "us", better: "lower"},
	{name: "num.ns_per_flow", unit: "ns", better: "lower"},
	{name: "norm.fnorm_us", unit: "us", better: "lower"},
	{name: "topology.route_ns", unit: "ns", better: "lower"},
	{name: "topology.route_hit_share", unit: "ratio", better: "higher"},
	{name: "wire.add_encode_ns", unit: "ns", better: "lower"},
	{name: "wire.add_decode_ns", unit: "ns", better: "lower"},
	{name: "wire.rate_encode_ns_per_entry", unit: "ns", better: "lower"},
	{name: "wire.rate_decode_ns_per_entry", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_rate_entry", unit: "B", better: "lower"},
	{name: "wire.allocs_per_frame", unit: "count", better: "lower"},
	{name: "telemetry.record_ns", unit: "ns", better: "lower"},
	{name: "generator.late_p99_us", unit: "us", better: "lower"},
	{name: "tail.start_to_rate_p90_us", unit: "us", better: "lower"},
	{name: "tail.start_to_rate_p99_us", unit: "us", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "trace.unaccounted_share", unit: "ratio", better: "lower"},
}

// endpoints derives flow id's source and destination server from the seed
// alone, so the daemon pass, the mirror replay and the gate's route
// recomputation agree without a stored event log. Traffic is uniform random
// with src != dst.
func endpoints(seed uint64, id int64, servers int) (src, dst int) {
	h := splitmix64(seed*0x9e3779b97f4a7c15 + uint64(id))
	src = int(h % uint64(servers))
	dst = int((h >> 32) % uint64(servers-1))
	if dst >= src {
		dst++
	}
	return src, dst
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
