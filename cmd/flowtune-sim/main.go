// Command flowtune-sim runs a single packet-level simulation of one
// congestion-control scheme over one workload and prints flow-completion-time
// percentiles, drop statistics, and queueing delays — the raw ingredients of
// Figures 8–11.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowtune-sim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable body of the command.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("flowtune-sim", flag.ContinueOnError)
	fs.SetOutput(out)
	schemeName := fs.String("scheme", "flowtune", "scheme: flowtune, dctcp, pfabric, sfqcodel, xcp, tcp")
	kindName := fs.String("workload", "web", "workload: web, cache, hadoop, websearch, datamining")
	load := fs.Float64("load", 0.6, "target server load in (0,1]")
	duration := fs.Float64("duration", 10e-3, "measured simulation time in seconds")
	warmup := fs.Float64("warmup", 2e-3, "warmup time in seconds")
	racks := fs.Int("racks", 0, "racks (0 = the paper's 9-rack fabric)")
	serversPerRack := fs.Int("servers-per-rack", 0, "servers per rack (0 = the paper's 16)")
	spines := fs.Int("spines", 0, "spine switches (0 = the paper's 4)")
	seed := fs.Int64("seed", 1, "workload random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scheme, err := parseScheme(*schemeName)
	if err != nil {
		return err
	}
	kind, err := workload.ParseKind(strings.ToLower(*kindName))
	if err != nil {
		return err
	}

	topoCfg := topology.DefaultSimConfig()
	if *racks > 0 {
		topoCfg.Racks = *racks
	}
	if *serversPerRack > 0 {
		topoCfg.ServersPerRack = *serversPerRack
	}
	if *spines > 0 {
		topoCfg.Spines = *spines
	}
	topo, err := topology.NewTwoTier(topoCfg)
	if err != nil {
		return err
	}
	horizon := *warmup + *duration
	eng, err := transport.NewEngine(transport.EngineConfig{
		Scheme:            scheme,
		Topology:          topo,
		QueueSamplePeriod: 100e-6,
		Horizon:           horizon,
	})
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Kind:               kind,
		NumServers:         topo.NumServers(),
		ServerLinkCapacity: topo.Config().LinkCapacity,
		Load:               *load,
		Seed:               *seed,
	})
	if err != nil {
		return err
	}
	flows := gen.GenerateUntil(horizon * 0.9)
	if err := eng.AddFlowlets(flows); err != nil {
		return err
	}
	eng.Run(horizon)

	fmt.Fprintf(out, "scheme=%s workload=%s load=%.2f servers=%d flowlets=%d\n",
		scheme, kind, *load, topo.NumServers(), len(flows))

	var measured []metrics.FlowRecord
	for _, r := range eng.Records() {
		if r.Start >= *warmup {
			measured = append(measured, r)
		}
	}
	fmt.Fprintf(out, "completion rate: %.1f%%\n", 100*metrics.CompletionRate(measured))
	fmt.Fprintf(out, "dropped: %.3f Gbit/s\n", float64(eng.DroppedBytes()*8)/horizon/1e9)
	fmt.Fprintln(out, "normalized FCT by flow size bucket:")
	for _, s := range metrics.SummarizeFCT(measured, workload.BucketLabel, workload.Buckets()) {
		fmt.Fprintf(out, "  %-18s n=%-7d mean=%-8.2f p50=%-8.2f p99=%-8.2f\n", s.Bucket, s.Count, s.Mean, s.P50, s.P99)
	}
	if scheme == transport.Flowtune {
		fmt.Fprintf(out, "control traffic injected: %.3f MB\n", float64(eng.ControlBytes())/1e6)
	}
	return nil
}

// parseScheme maps a CLI name to a Scheme.
func parseScheme(name string) (transport.Scheme, error) {
	switch strings.ToLower(name) {
	case "flowtune":
		return transport.Flowtune, nil
	case "dctcp":
		return transport.DCTCP, nil
	case "pfabric":
		return transport.PFabric, nil
	case "sfqcodel":
		return transport.SFQCoDel, nil
	case "xcp":
		return transport.XCP, nil
	case "tcp":
		return transport.TCP, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", name)
	}
}
