// Package server hosts flowtuned, the networked allocator daemon: the
// centralized Flowtune rate allocator run as a long-lived process that
// endpoints talk to over the wire protocol of internal/wire.
//
// The daemon's control loop mirrors the paper's design. It is the loop type:
// the allocator (a core.ParallelAllocator with Config.Blocks rack blocks, one
// by default, which runs on the iterating goroutine alone), the flow table,
// the inbox and each session's owned flows and pending rates, and three
// passes over them that do no I/O and take no lock. fold applies the
// flowlet-start and -end notifications queued since the last iteration — a
// burst at a time: what one Read brought in, which is what an endpoint wrote
// in one Flush, is never split across iterations; step runs one NED step plus
// F-NORM and the notify filter (AppendUpdates); route hands each changed rate
// to the session that registered the flow. Server is the shell: sockets,
// session readers and writers, the ticker, iteration timing, the sharded
// exchange, snapshots and the flight recorder. It runs the passes under one
// mutex, the loop lock, and writes a step reply, encoded under it, after it.
// An add the allocator refuses (no route, a weight that is not finite) is
// counted in Stats.RejectedAdds and logged, never folded in.
//
// Iterations are driven two ways. With Config.Interval set, one loop
// goroutine free-runs: it iterates on arrival, the moment a session publishes
// a burst of flowlet events (a flowlet start is answered in one iteration,
// not after one tick; bursts landing mid-iteration coalesce into the next),
// and otherwise every Interval, the idle cadence that keeps the optimizer
// converging between arrivals. Peer exchange bundles and heartbeats never
// wake it — two shards would ping-pong iterations forever — and wait for the
// next tick or arrival. Updates reach clients through per-session
// writer goroutines with coalescing backpressure: a slow client holds at
// most one pending rate per flow (latest wins), so it can never stall the
// allocator or grow daemon memory. With Interval zero the daemon is
// step-driven — a client Step frame triggers exactly one iteration and
// receives a synchronous reply batch — which is how the deterministic
// end-to-end tests and the daemon-backed scenarios run.
//
// Sessions run over any net.Conn: loopback TCP via Serve, or an in-memory
// net.Pipe end via ServeConn. A disconnecting session's flowlets are retired
// at the next iteration boundary. Loop latency/throughput percentiles are
// exposed through LoopStats.
package server
