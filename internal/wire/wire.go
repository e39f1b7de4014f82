package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Version is the one protocol generation this build speaks. The Hello/Welcome
// and PeerHello handshakes carry it, and every side refuses a peer announcing
// anything else: a cluster is installed and upgraded as one system, so live
// connections never span generations and nothing is negotiated. The frames of
// generations 1-3 that generation 4 replaced (RateBatch, PriceDigest) are
// gone; their type numbers stay reserved.
const Version = 4

// Frame layout: a 4-byte header (message type in byte 0, little-endian uint24
// payload length in bytes 1-3) followed by the payload. All integer fields
// are little-endian; rates and weights are IEEE-754 float64 bit patterns.
const (
	// HeaderBytes is the fixed frame-header size.
	HeaderBytes = 4
	// MaxPayload is the largest encodable payload (the uint24 limit).
	MaxPayload = 1<<24 - 1
)

// MsgType identifies the frame type carried in a header.
type MsgType uint8

// Frame types. The numbers are wire constants and never move.
const (
	// TypeInvalid is never sent; it marks the zero value.
	TypeInvalid MsgType = 0
	// TypeHello opens a session (client → server).
	TypeHello MsgType = 1
	// TypeWelcome acknowledges a Hello and carries the allocator epoch
	// (server → client).
	TypeWelcome MsgType = 2
	// TypeFlowletAdd registers a flowlet (client → server).
	TypeFlowletAdd MsgType = 3
	// TypeFlowletEnd retires a flowlet (client → server).
	TypeFlowletEnd MsgType = 4
	// TypeStep asks the daemon to run one allocator iteration now
	// (client → server; used by step-driven deterministic runs).
	TypeStep MsgType = 5
	// reservedRateBatch was the fixed RateBatch frame of generations 1-3.
	// Nothing sends it and parseHeader rejects it as unknown.
	reservedRateBatch MsgType = 6
	// TypeEpochNotify announces a new allocator epoch mid-session
	// (server → client), so endpoints detect a daemon state reset without
	// waiting for a failed write. Clients react by re-registering their
	// flowlets (AllocClient.Reconnect).
	TypeEpochNotify MsgType = 7
	// TypePeerHello opens a shard-to-shard peer session (peer → peer); the
	// accepting daemon replies with its own PeerHello.
	TypePeerHello MsgType = 8
	// reservedPriceDigest was the fixed PriceDigest frame of generations
	// 1-3; reserved like reservedRateBatch.
	reservedPriceDigest MsgType = 9
	// TypePriceSnapshot lists link prices in fixed-size entries. It is the
	// price half of an on-disk drain snapshot (Server.Snapshot/Restore) and is
	// never sent on a live connection: peers exchange TypePriceSnapshotDelta.
	TypePriceSnapshot MsgType = 10
	// TypeExchangeAck acknowledges receipt of an exchange bundle (one per
	// PriceSnapshotDelta chunk); step-driven clusters use it as the delivery
	// barrier that keeps runs deterministic.
	TypeExchangeAck MsgType = 11
	// TypeFlowState carries a chunk of a shard's live flowlet registry
	// (peer → peer): each daemon replicates its flow state to its
	// designated successor so a dead shard's rack block can be adopted
	// warm. The same frames are the flow half of an on-disk drain snapshot.
	TypeFlowState MsgType = 12
	// TypeHeartbeat is a peer-liveness ping (peer → peer). Free-running
	// daemons stamp one into every exchange bundle; a peer silent past the
	// heartbeat timeout is treated as dead, like a failed push.
	TypeHeartbeat MsgType = 13
	// TypeTakeover announces that the sending daemon has adopted a dead
	// peer's shard (adopter → every surviving peer). Receivers re-target
	// their digests for the orphaned rack block at the adopter and accept
	// its price snapshots for the adopted links.
	TypeTakeover MsgType = 14
	// TypeRateDelta carries rate updates with varint-delta flow IDs and
	// xor-compressed (or optionally Mbps-quantized) rates (server → client).
	TypeRateDelta MsgType = 15
	// TypePriceDigestDelta pushes one shard's local load and Hessian-diagonal
	// contributions on links the receiver owns (peer → peer), delta-encoded
	// against the previous acked bundle on the same connection: only links
	// whose load or Hessian diagonal changed are listed. The owner folds them
	// into its next price update, so boundary links are priced from
	// cluster-wide demand.
	TypePriceDigestDelta MsgType = 16
	// TypePriceSnapshotDelta publishes the sender's current prices for links
	// it owns (peer → peer), epoch-stamped so a restarted shard's stale
	// prices are never folded into a newer generation, and delta-encoded like
	// the digest: only links whose price changed are listed.
	TypePriceSnapshotDelta MsgType = 17
)

// EpochDrainFlag marks an EpochNotify pushed by a draining daemon: its
// allocator is shutting down gracefully and the announced epoch (low bits) is
// the one a restarted daemon will exceed. Clients react by freezing at their
// last-known rates — the paper's own failure fallback — instead of treating
// the connection loss as an error (transport.ErrDaemonDraining).
const EpochDrainFlag uint64 = 1 << 63

// String returns the frame-type name.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeWelcome:
		return "welcome"
	case TypeFlowletAdd:
		return "flowlet-add"
	case TypeFlowletEnd:
		return "flowlet-end"
	case TypeStep:
		return "step"
	case TypeEpochNotify:
		return "epoch-notify"
	case TypePeerHello:
		return "peer-hello"
	case TypePriceSnapshot:
		return "price-snapshot"
	case TypeExchangeAck:
		return "exchange-ack"
	case TypeFlowState:
		return "flow-state"
	case TypeHeartbeat:
		return "heartbeat"
	case TypeTakeover:
		return "takeover"
	case TypeRateDelta:
		return "rate-delta"
	case TypePriceDigestDelta:
		return "price-digest-delta"
	case TypePriceSnapshotDelta:
		return "price-snapshot-delta"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Fixed payload sizes per frame type.
const (
	helloLen   = 10 // version u16 + client id u64
	welcomeLen = 18 // version u16 + epoch u64 + interval u64
	addLen     = 24 // flow i64 + src i32 + dst i32 + weight f64
	endLen     = 8  // flow i64
	stepLen    = 8  // seq u64

	epochNotifyLen = 8  // epoch u64
	peerHelloLen   = 18 // version u16 + shard u32 + numShards u32 + epoch u64
	snapHdrLen     = 24 // epoch u64 + seq u64 + shard u32 + count u32
	snapEntryLen   = 12 // link u32 + price f64
	ackLen         = 8  // seq u64

	flowStateHdrLen   = 24 // epoch u64 + seq u64 + shard u32 + count u32
	flowStateEntryLen = 24 // flow i64 + src i32 + dst i32 + weight f64
	heartbeatLen      = 12 // seq u64 + shard u32
	takeoverLen       = 24 // epoch u64 + seq u64 + dead u32 + by u32

	addSizedLen = 32 // flow i64 + src i32 + dst i32 + weight f64 + size i64

	// The delta frames (delta.go) lead with a flags byte followed by uvarint
	// header words (seq/shard/epoch are tiny in practice, so the headers
	// shrink to a handful of bytes); these are the worst-case header sizes,
	// used only by the chunking bounds.
	rateDeltaHdrMax   = 11 // flags u8 + seq uvarint (<=10)
	digestDeltaHdrMax = 16 // flags u8 + seq uvarint (<=10) + shard uvarint (<=5)
	snapDeltaHdrMax   = 26 // flags u8 + epoch uvarint (<=10) + seq uvarint (<=10) + shard uvarint (<=5)
)

// Hello opens a session. ClientID is an opaque label the daemon echoes in
// logs; it does not affect allocation.
type Hello struct {
	Version  uint16
	ClientID uint64
}

// Welcome is the server's handshake reply. Epoch identifies the allocator
// generation (it changes when a daemon restarts), letting endpoints detect
// failover and re-register their flowlets. IntervalNanos is the longest gap
// between a free-running daemon's iterations in nanoseconds (arrivals iterate
// at once), 0 when step-driven.
type Welcome struct {
	Version       uint16
	Epoch         uint64
	IntervalNanos uint64
}

// FlowletAdd registers a flowlet from server Src to server Dst. Size is an
// optional hint of the flowlet's expected size in bytes (0 = unknown); a
// nonzero Size is carried in the 32-byte payload form. The daemon decodes and
// then drops the hint: no allocator sees it.
type FlowletAdd struct {
	Flow     int64
	Src, Dst int32
	Weight   float64
	Size     int64
}

// FlowletEnd retires a flowlet.
type FlowletEnd struct {
	Flow int64
}

// Step asks the daemon to fold in pending flowlet events and run one
// allocator iteration. The daemon replies to the stepping session with a
// RateDelta echoing Seq (empty when no owned rate changed).
type Step struct {
	Seq uint64
}

// RateEntry is one rate update of a RateDelta.
type RateEntry struct {
	Flow int64
	Rate float64
}

// EpochNotify announces a new allocator epoch to a connected client.
type EpochNotify struct {
	Epoch uint64
}

// PeerHello opens a shard-to-shard peer session: the dialing daemon
// identifies its shard index and the cluster size it believes in, so a
// misconfigured cluster (mismatched shard counts) fails at the handshake
// instead of silently exchanging prices for the wrong partition.
type PeerHello struct {
	Version   uint16
	Shard     uint32
	NumShards uint32
	Epoch     uint64
}

// SnapshotEntry is one link's price in a PriceSnapshot.
type SnapshotEntry struct {
	Link  uint32
	Price float64
}

// FlowStateEntry is one live flowlet of a FlowState chunk; the fields mirror
// FlowletAdd so an adopter (or a restarted daemon) can re-admit the flow
// through the ordinary registration path.
type FlowStateEntry struct {
	Flow     int64
	Src, Dst int32
	Weight   float64
}

// Heartbeat is a peer-liveness ping carrying the sender's shard index and
// iteration counter.
type Heartbeat struct {
	Seq   uint64
	Shard uint32
}

// Takeover announces that shard By has adopted dead shard Dead's rack block.
// Epoch is the adopter's allocator epoch and Seq the iteration at which the
// adoption takes effect, so receivers fold it at the same deterministic
// boundary as the rest of the exchange.
type Takeover struct {
	Epoch uint64
	Seq   uint64
	Dead  uint32
	By    uint32
}

// StepReplyFlag marks a RateDelta sent as the synchronous reply to a Step
// frame: its Seq is the Step's Seq with this bit set. Frames fanned out
// asynchronously carry the daemon's iteration counter with the bit clear,
// so a client can always tell a step barrier from background updates.
const StepReplyFlag uint64 = 1 << 63

// ---------------------------------------------------------------------------
// Encoding. Encoders append a complete frame (header + payload) to buf and
// return the extended slice; with a pre-grown buffer they do not allocate.

// appendHeader appends a frame header for a payload of n bytes.
func appendHeader(buf []byte, t MsgType, n int) []byte {
	return append(buf, byte(t), byte(n), byte(n>>8), byte(n>>16))
}

// AppendHello appends an encoded Hello frame.
func AppendHello(buf []byte, m Hello) []byte {
	buf = appendHeader(buf, TypeHello, helloLen)
	buf = binary.LittleEndian.AppendUint16(buf, m.Version)
	return binary.LittleEndian.AppendUint64(buf, m.ClientID)
}

// AppendWelcome appends an encoded Welcome frame.
func AppendWelcome(buf []byte, m Welcome) []byte {
	buf = appendHeader(buf, TypeWelcome, welcomeLen)
	buf = binary.LittleEndian.AppendUint16(buf, m.Version)
	buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
	return binary.LittleEndian.AppendUint64(buf, m.IntervalNanos)
}

// AppendFlowletAdd appends an encoded FlowletAdd frame: the 24-byte payload
// when Size is zero, the 32-byte sized form otherwise.
func AppendFlowletAdd(buf []byte, m FlowletAdd) []byte {
	n := addLen
	if m.Size != 0 {
		n = addSizedLen
	}
	buf = appendHeader(buf, TypeFlowletAdd, n)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Flow))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Src))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Dst))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Weight))
	if m.Size != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Size))
	}
	return buf
}

// AppendFlowletEnd appends an encoded FlowletEnd frame.
func AppendFlowletEnd(buf []byte, m FlowletEnd) []byte {
	buf = appendHeader(buf, TypeFlowletEnd, endLen)
	return binary.LittleEndian.AppendUint64(buf, uint64(m.Flow))
}

// AppendStep appends an encoded Step frame.
func AppendStep(buf []byte, m Step) []byte {
	buf = appendHeader(buf, TypeStep, stepLen)
	return binary.LittleEndian.AppendUint64(buf, m.Seq)
}

// AppendEpochNotify appends an encoded EpochNotify frame.
func AppendEpochNotify(buf []byte, m EpochNotify) []byte {
	buf = appendHeader(buf, TypeEpochNotify, epochNotifyLen)
	return binary.LittleEndian.AppendUint64(buf, m.Epoch)
}

// AppendPeerHello appends an encoded PeerHello frame.
func AppendPeerHello(buf []byte, m PeerHello) []byte {
	buf = appendHeader(buf, TypePeerHello, peerHelloLen)
	buf = binary.LittleEndian.AppendUint16(buf, m.Version)
	buf = binary.LittleEndian.AppendUint32(buf, m.Shard)
	buf = binary.LittleEndian.AppendUint32(buf, m.NumShards)
	return binary.LittleEndian.AppendUint64(buf, m.Epoch)
}

// MaxSnapshotEntries is the largest number of entries one PriceSnapshot
// frame can carry without overflowing the uint24 payload length.
const MaxSnapshotEntries = (MaxPayload - snapHdrLen) / snapEntryLen

// AppendPriceSnapshotHeader appends the frame and snapshot headers of a
// PriceSnapshot with count entries; the caller then appends exactly count
// entries with AppendSnapshotEntry. count must not exceed
// MaxSnapshotEntries.
func AppendPriceSnapshotHeader(buf []byte, epoch, seq uint64, shard uint32, count int) []byte {
	buf = appendHeader(buf, TypePriceSnapshot, snapHdrLen+count*snapEntryLen)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, shard)
	return binary.LittleEndian.AppendUint32(buf, uint32(count))
}

// AppendSnapshotEntry appends one entry of a PriceSnapshot opened with
// AppendPriceSnapshotHeader.
func AppendSnapshotEntry(buf []byte, e SnapshotEntry) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, e.Link)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Price))
}

// MaxFlowStateEntries is the largest number of entries one FlowState frame
// can carry without overflowing the uint24 payload length.
const MaxFlowStateEntries = (MaxPayload - flowStateHdrLen) / flowStateEntryLen

// AppendFlowStateHeader appends the frame and chunk headers of a FlowState
// with count entries; the caller then appends exactly count entries with
// AppendFlowStateEntry. count must not exceed MaxFlowStateEntries.
func AppendFlowStateHeader(buf []byte, epoch, seq uint64, shard uint32, count int) []byte {
	buf = appendHeader(buf, TypeFlowState, flowStateHdrLen+count*flowStateEntryLen)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, shard)
	return binary.LittleEndian.AppendUint32(buf, uint32(count))
}

// AppendFlowStateEntry appends one entry of a FlowState opened with
// AppendFlowStateHeader.
func AppendFlowStateEntry(buf []byte, e FlowStateEntry) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Flow))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Src))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Dst))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Weight))
}

// AppendHeartbeat appends an encoded Heartbeat frame.
func AppendHeartbeat(buf []byte, m Heartbeat) []byte {
	buf = appendHeader(buf, TypeHeartbeat, heartbeatLen)
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	return binary.LittleEndian.AppendUint32(buf, m.Shard)
}

// AppendTakeover appends an encoded Takeover frame.
func AppendTakeover(buf []byte, m Takeover) []byte {
	buf = appendHeader(buf, TypeTakeover, takeoverLen)
	buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, m.Dead)
	return binary.LittleEndian.AppendUint32(buf, m.By)
}

// AppendExchangeAck appends an encoded ExchangeAck frame.
func AppendExchangeAck(buf []byte, seq uint64) []byte {
	buf = appendHeader(buf, TypeExchangeAck, ackLen)
	return binary.LittleEndian.AppendUint64(buf, seq)
}

// ---------------------------------------------------------------------------
// Decoding. Decoders take the payload of one frame (as delivered by
// ParseFrame or Scanner.Next) and validate its exact length.

// payloadErr reports a payload of the wrong size.
func payloadErr(t MsgType, want, got int) error {
	return fmt.Errorf("wire: %s payload must be %d bytes, got %d", t, want, got)
}

// DecodeHello decodes a Hello payload.
func DecodeHello(p []byte) (Hello, error) {
	if len(p) != helloLen {
		return Hello{}, payloadErr(TypeHello, helloLen, len(p))
	}
	return Hello{
		Version:  binary.LittleEndian.Uint16(p),
		ClientID: binary.LittleEndian.Uint64(p[2:]),
	}, nil
}

// DecodeWelcome decodes a Welcome payload.
func DecodeWelcome(p []byte) (Welcome, error) {
	if len(p) != welcomeLen {
		return Welcome{}, payloadErr(TypeWelcome, welcomeLen, len(p))
	}
	return Welcome{
		Version:       binary.LittleEndian.Uint16(p),
		Epoch:         binary.LittleEndian.Uint64(p[2:]),
		IntervalNanos: binary.LittleEndian.Uint64(p[10:]),
	}, nil
}

// DecodeFlowletAdd decodes a FlowletAdd payload, accepting both the 24-byte
// form and the 32-byte sized form. The sized form must carry a
// positive size: zero means "no hint" and is only ever sent as the short
// form, so both forms re-encode canonically.
func DecodeFlowletAdd(p []byte) (FlowletAdd, error) {
	if len(p) != addLen && len(p) != addSizedLen {
		return FlowletAdd{}, fmt.Errorf("wire: %s payload must be %d or %d bytes, got %d", TypeFlowletAdd, addLen, addSizedLen, len(p))
	}
	m := FlowletAdd{
		Flow:   int64(binary.LittleEndian.Uint64(p)),
		Src:    int32(binary.LittleEndian.Uint32(p[8:])),
		Dst:    int32(binary.LittleEndian.Uint32(p[12:])),
		Weight: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
	}
	if len(p) == addSizedLen {
		m.Size = int64(binary.LittleEndian.Uint64(p[24:]))
		if m.Size <= 0 {
			return FlowletAdd{}, fmt.Errorf("wire: sized flowlet-add must carry a positive size, got %d", m.Size)
		}
	}
	return m, nil
}

// DecodeFlowletEnd decodes a FlowletEnd payload.
func DecodeFlowletEnd(p []byte) (FlowletEnd, error) {
	if len(p) != endLen {
		return FlowletEnd{}, payloadErr(TypeFlowletEnd, endLen, len(p))
	}
	return FlowletEnd{Flow: int64(binary.LittleEndian.Uint64(p))}, nil
}

// DecodeStep decodes a Step payload.
func DecodeStep(p []byte) (Step, error) {
	if len(p) != stepLen {
		return Step{}, payloadErr(TypeStep, stepLen, len(p))
	}
	return Step{Seq: binary.LittleEndian.Uint64(p)}, nil
}

// DecodeEpochNotify decodes an EpochNotify payload.
func DecodeEpochNotify(p []byte) (EpochNotify, error) {
	if len(p) != epochNotifyLen {
		return EpochNotify{}, payloadErr(TypeEpochNotify, epochNotifyLen, len(p))
	}
	return EpochNotify{Epoch: binary.LittleEndian.Uint64(p)}, nil
}

// DecodePeerHello decodes a PeerHello payload.
func DecodePeerHello(p []byte) (PeerHello, error) {
	if len(p) != peerHelloLen {
		return PeerHello{}, payloadErr(TypePeerHello, peerHelloLen, len(p))
	}
	return PeerHello{
		Version:   binary.LittleEndian.Uint16(p),
		Shard:     binary.LittleEndian.Uint32(p[2:]),
		NumShards: binary.LittleEndian.Uint32(p[6:]),
		Epoch:     binary.LittleEndian.Uint64(p[10:]),
	}, nil
}

// PriceSnapshot is a decoded price listing of an on-disk snapshot. It aliases
// the frame payload: it is only valid until the underlying buffer is reused,
// and Entry decodes in place without allocating.
type PriceSnapshot struct {
	// Epoch is the writing daemon's allocator epoch.
	Epoch uint64
	// Seq is its iteration counter when the snapshot was taken.
	Seq uint64
	// Shard is its shard index.
	Shard   uint32
	entries []byte
}

// DecodePriceSnapshot decodes a PriceSnapshot payload.
func DecodePriceSnapshot(p []byte) (PriceSnapshot, error) {
	if len(p) < snapHdrLen {
		return PriceSnapshot{}, fmt.Errorf("wire: price-snapshot payload must be at least %d bytes, got %d", snapHdrLen, len(p))
	}
	count := binary.LittleEndian.Uint32(p[20:])
	if want := snapHdrLen + int(count)*snapEntryLen; len(p) != want {
		return PriceSnapshot{}, fmt.Errorf("wire: price-snapshot declares %d entries (%d bytes), got %d bytes", count, want, len(p))
	}
	return PriceSnapshot{
		Epoch:   binary.LittleEndian.Uint64(p),
		Seq:     binary.LittleEndian.Uint64(p[8:]),
		Shard:   binary.LittleEndian.Uint32(p[16:]),
		entries: p[snapHdrLen:],
	}, nil
}

// Len returns the number of entries in the snapshot.
func (s PriceSnapshot) Len() int { return len(s.entries) / snapEntryLen }

// Entry decodes entry i.
func (s PriceSnapshot) Entry(i int) SnapshotEntry {
	p := s.entries[i*snapEntryLen:]
	return SnapshotEntry{
		Link:  binary.LittleEndian.Uint32(p),
		Price: math.Float64frombits(binary.LittleEndian.Uint64(p[4:])),
	}
}

// FlowState is a decoded flow-state chunk. It aliases the frame payload like
// PriceSnapshot.
type FlowState struct {
	// Epoch is the sender's allocator epoch; stale-epoch chunks are dropped
	// like stale price snapshots.
	Epoch uint64
	// Seq is the sender's iteration counter when the chunk was taken.
	Seq uint64
	// Shard is the shard whose flows the chunk carries.
	Shard   uint32
	entries []byte
}

// DecodeFlowState decodes a FlowState payload.
func DecodeFlowState(p []byte) (FlowState, error) {
	if len(p) < flowStateHdrLen {
		return FlowState{}, fmt.Errorf("wire: flow-state payload must be at least %d bytes, got %d", flowStateHdrLen, len(p))
	}
	count := binary.LittleEndian.Uint32(p[20:])
	if want := flowStateHdrLen + int(count)*flowStateEntryLen; len(p) != want {
		return FlowState{}, fmt.Errorf("wire: flow-state declares %d entries (%d bytes), got %d bytes", count, want, len(p))
	}
	return FlowState{
		Epoch:   binary.LittleEndian.Uint64(p),
		Seq:     binary.LittleEndian.Uint64(p[8:]),
		Shard:   binary.LittleEndian.Uint32(p[16:]),
		entries: p[flowStateHdrLen:],
	}, nil
}

// Len returns the number of entries in the chunk.
func (f FlowState) Len() int { return len(f.entries) / flowStateEntryLen }

// Entry decodes entry i.
func (f FlowState) Entry(i int) FlowStateEntry {
	p := f.entries[i*flowStateEntryLen:]
	return FlowStateEntry{
		Flow:   int64(binary.LittleEndian.Uint64(p)),
		Src:    int32(binary.LittleEndian.Uint32(p[8:])),
		Dst:    int32(binary.LittleEndian.Uint32(p[12:])),
		Weight: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
	}
}

// DecodeHeartbeat decodes a Heartbeat payload.
func DecodeHeartbeat(p []byte) (Heartbeat, error) {
	if len(p) != heartbeatLen {
		return Heartbeat{}, payloadErr(TypeHeartbeat, heartbeatLen, len(p))
	}
	return Heartbeat{
		Seq:   binary.LittleEndian.Uint64(p),
		Shard: binary.LittleEndian.Uint32(p[8:]),
	}, nil
}

// DecodeTakeover decodes a Takeover payload.
func DecodeTakeover(p []byte) (Takeover, error) {
	if len(p) != takeoverLen {
		return Takeover{}, payloadErr(TypeTakeover, takeoverLen, len(p))
	}
	return Takeover{
		Epoch: binary.LittleEndian.Uint64(p),
		Seq:   binary.LittleEndian.Uint64(p[8:]),
		Dead:  binary.LittleEndian.Uint32(p[16:]),
		By:    binary.LittleEndian.Uint32(p[20:]),
	}, nil
}

// DecodeExchangeAck decodes an ExchangeAck payload and returns the echoed
// sequence number.
func DecodeExchangeAck(p []byte) (uint64, error) {
	if len(p) != ackLen {
		return 0, payloadErr(TypeExchangeAck, ackLen, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// ---------------------------------------------------------------------------
// Framing.

// ErrShortFrame reports that a buffer ends mid-frame.
var ErrShortFrame = fmt.Errorf("wire: short frame")

// maxMsgType is the highest frame type of the protocol.
const maxMsgType = TypePriceSnapshotDelta

// fixedLen is the exact payload size of every fixed-size frame type (0 for
// the variable-length ones; FlowletAdd's second, sized form is checked
// beside it in parseHeader).
var fixedLen = [maxMsgType + 1]int32{
	TypeHello:       helloLen,
	TypeWelcome:     welcomeLen,
	TypeFlowletAdd:  addLen,
	TypeFlowletEnd:  endLen,
	TypeStep:        stepLen,
	TypeEpochNotify: epochNotifyLen,
	TypePeerHello:   peerHelloLen,
	TypeExchangeAck: ackLen,
	TypeHeartbeat:   heartbeatLen,
	TypeTakeover:    takeoverLen,
}

// parseHeader validates a frame header and returns its type and payload
// length. Unknown types are rejected, and so is a length no frame of a
// fixed-size type can have: the length field is untrusted, and refusing an
// impossible one here means a reader never waits for (or reserves room for)
// a payload its decoder would reject anyway.
func parseHeader(h []byte) (MsgType, int, error) {
	t := MsgType(h[0])
	if t == TypeInvalid || t > maxMsgType || t == reservedRateBatch || t == reservedPriceDigest {
		return TypeInvalid, 0, fmt.Errorf("wire: unknown frame type %d", h[0])
	}
	n := int(h[1]) | int(h[2])<<8 | int(h[3])<<16
	if want := int(fixedLen[t]); want != 0 && n != want && !(t == TypeFlowletAdd && n == addSizedLen) {
		return TypeInvalid, 0, fmt.Errorf("wire: %s frame declares a %d-byte payload", t, n)
	}
	return t, n, nil
}

// ParseFrame splits one frame off the front of buf. It returns the frame
// type, its payload (aliasing buf), and the remaining bytes. A buffer ending
// mid-frame returns ErrShortFrame; an unknown frame type, or a payload
// length impossible for a fixed-size type, is an error.
func ParseFrame(buf []byte) (t MsgType, payload, rest []byte, err error) {
	if len(buf) < HeaderBytes {
		return TypeInvalid, nil, buf, ErrShortFrame
	}
	t, n, err := parseHeader(buf)
	if err != nil {
		return TypeInvalid, nil, buf, err
	}
	if len(buf) < HeaderBytes+n {
		return TypeInvalid, nil, buf, ErrShortFrame
	}
	return t, buf[HeaderBytes : HeaderBytes+n], buf[HeaderBytes+n:], nil
}

// scanBufBytes is the Scanner's initial buffer: room for an endpoint's whole
// step burst (thousands of 12- to 36-byte notifications) or a few thousand
// rate updates, so a burst written in one go is read in one or two Reads.
const scanBufBytes = 64 << 10

// Scanner reads frames from a byte stream through one reused buffer: a Read
// pulls in as many bytes as the stream has ready — usually a whole burst of
// frames — and Next hands out payload slices of that buffer, so the cost of
// receiving is per burst, not per frame. The payload returned by Next is
// valid only until the following Next call.
//
// The buffer grows only for a frame larger than it, and only as that frame's
// bytes actually arrive (doubling, capped at the frame size): a header
// declaring a 16 MB payload reserves nothing by itself.
//
// A Next call interrupted mid-frame by a transient read error (typically a
// net.Conn read deadline) keeps the partial frame buffered: the next call
// resumes where the read stopped instead of desynchronizing the stream, so
// polling a connection with deadlines is safe.
//
// Buffered tells a reader where a burst ends, so it can act once per burst
// rather than once per frame.
type Scanner struct {
	r   io.Reader
	buf []byte
	// buf[pos:end] holds the bytes read but not yet handed out.
	pos, end int
}

// NewScanner creates a frame scanner over r.
func NewScanner(r io.Reader) *Scanner { return &Scanner{r: r} }

// Next returns the next frame. It returns io.EOF at a clean end of stream and
// io.ErrUnexpectedEOF when the stream ends mid-frame; any other read error
// leaves the partial frame buffered for the next call. A malformed header
// (see ParseFrame) is returned on every call: the stream cannot resync.
func (s *Scanner) Next() (MsgType, []byte, error) {
	for {
		need := HeaderBytes
		if have := s.end - s.pos; have >= HeaderBytes {
			t, n, err := parseHeader(s.buf[s.pos:])
			if err != nil {
				return TypeInvalid, nil, err
			}
			need = HeaderBytes + n
			if have >= need {
				payload := s.buf[s.pos+HeaderBytes : s.pos+need]
				s.pos += need
				return t, payload, nil
			}
		}
		if err := s.fill(need); err != nil {
			return TypeInvalid, nil, err
		}
	}
}

// Buffered reports whether the next Next call returns without reading from
// the stream: the buffer already holds a complete frame (or a malformed
// header, which Next rejects). False marks a burst boundary — everything the
// last Read brought in has been handed out and the following Next may block —
// which is where a reader acts on the frames it collected.
func (s *Scanner) Buffered() bool {
	have := s.end - s.pos
	if have < HeaderBytes {
		return false
	}
	_, n, err := parseHeader(s.buf[s.pos:])
	return err != nil || have >= HeaderBytes+n
}

// fill makes room for a frame of need bytes at the front of the buffer and
// issues one Read. It reports an error only when the Read brought no bytes.
func (s *Scanner) fill(need int) error {
	if s.pos > 0 {
		// Only the partial frame at the tail (less than one frame, nothing
		// at the end of a burst) moves; the whole buffer is free again.
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	}
	if s.end == len(s.buf) {
		// Full with the frame still incomplete (or not allocated yet): the
		// frame is larger than the buffer.
		size := max(scanBufBytes, min(2*len(s.buf), need))
		s.buf = append(make([]byte, 0, size), s.buf[:s.end]...)[:size]
	}
	n, err := s.r.Read(s.buf[s.end:])
	s.end += n
	if n > 0 || err == nil {
		return nil
	}
	if err == io.EOF && s.end > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}
