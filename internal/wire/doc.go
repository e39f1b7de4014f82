// Package wire defines the binary protocol spoken between Flowtune endpoints,
// the flowtuned allocator daemon, and the daemons of a sharded cluster.
//
// Frames are length-prefixed: a 4-byte header (type byte plus a little-endian
// uint24 payload length) followed by the payload. There is one protocol
// generation (Version): the Hello/Welcome and PeerHello handshakes carry it and
// each side refuses any other, so nothing is negotiated. Clients send
// FlowletAdd and FlowletEnd notifications and, in step-driven deterministic
// runs, a Step request that drives one allocator iteration; the daemon fans
// rate updates out as RateDelta frames and announces state resets with
// EpochNotify. Peer daemons exchange boundary state as PriceDigestDelta and
// PriceSnapshotDelta frames (delta.go), acknowledged by ExchangeAck, alongside
// Heartbeat, Takeover and FlowState replica frames. FlowState and the
// fixed-layout PriceSnapshot are also the on-disk drain snapshot — the one
// encoding that outlives a daemon process.
//
// Encoders are append-style (AppendFlowletAdd et al.) and do not allocate
// once the destination buffer has grown to a steady-state size; decoders of
// fixed-layout frames validate exact payload lengths and alias their input,
// decoders of delta frames fill a reused value. Scanner reads frames off any
// io.Reader through one reused buffer — one Read per burst of frames, payloads
// handed out as slices of it, and Buffered marking where a burst ends. Every
// (encode, decode) pair round-trips bit-exactly, including NaN rate patterns —
// see the package fuzz test.
package wire
