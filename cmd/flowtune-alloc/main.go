// Command flowtune-alloc benchmarks the multicore NED allocator (§5/§6.1 of
// the paper) on this machine: it builds a synthetic two-tier fabric, loads a
// random flow set, and reports the time per allocator iteration for a chosen
// number of blocks, nodes, and flows.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowtune-alloc: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable body of the command.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("flowtune-alloc", flag.ContinueOnError)
	fs.SetOutput(out)
	blocks := fs.Int("blocks", 2, "number of rack blocks (FlowBlocks = blocks^2); must be a power of two")
	nodes := fs.Int("nodes", 384, "number of servers (multiple of 48)")
	flows := fs.Int("flows", 3072, "number of concurrent flows")
	iters := fs.Int("iters", 200, "measured iterations")
	warmup := fs.Int("warmup", 20, "warmup iterations")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	row, err := experiments.MeasureScalingCase(experiments.ScalingCase{
		Blocks: *blocks,
		Nodes:  *nodes,
		Flows:  *flows,
	}, *warmup, *iters, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cores (FlowBlocks): %d\n", row.Cores)
	fmt.Fprintf(out, "nodes:              %d\n", row.Nodes)
	fmt.Fprintf(out, "flows:              %d\n", row.Flows)
	fmt.Fprintf(out, "time per iteration: %s\n", row.TimePerIteration)
	fmt.Fprintf(out, "sequential engine:  %s\n", row.SequentialTimePerIteration)
	fmt.Fprintf(out, "scheduled fabric:   %.2f Tbit/s\n", row.AllocatedTbps)
	return nil
}
