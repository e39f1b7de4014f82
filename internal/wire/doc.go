// Package wire defines the binary protocol spoken between Flowtune endpoints
// and the flowtuned allocator daemon.
//
// Frames are length-prefixed: a 4-byte header (type byte plus a little-endian
// uint24 payload length) followed by a fixed-layout payload. Protocol
// version 1 has six frame types: the Hello/Welcome handshake (which carries
// the allocator epoch so endpoints can detect daemon restarts), FlowletAdd
// and FlowletEnd notifications, a Step request that drives one allocator
// iteration in step-driven deterministic runs, and the RateBatch fan-out of
// rate updates.
//
// Encoders are append-style (AppendFlowletAdd et al.) and do not allocate
// once the destination buffer has grown to a steady-state size; decoders
// validate exact payload lengths and alias their input, and RateBatch
// entries decode in place. Scanner reads frames off any io.Reader through one
// reused buffer — one Read per burst of frames, payloads handed out as slices
// of it, and Buffered marking where a burst ends. Every (encode, decode) pair round-trips bit-exactly,
// including NaN rate patterns — see the package fuzz test.
package wire
