package wire

// Delta-encoded frames. The paper's control plane ships ~6-byte rate updates
// by sending only what changed; the three frames here make wire cost scale
// with *change*, not with flow or link count:
//
//   - RateDelta carries rate updates to clients. Flow IDs are zigzag-varint
//     deltas against the previous entry (batches are usually close to sorted,
//     so deltas are tiny), and rates are xor-compressed against the previous
//     entry's rate bits — bit-exact float64s, so allocation math is
//     untouched. An optional quantized mode (flags bit 0) sends uvarint Mbps
//     instead, the paper's own granularity.
//   - PriceDigestDelta / PriceSnapshotDelta are the boundary exchange between
//     peer daemons. The *sender* delta-encodes against the bundle the peer
//     last acked and lists only changed links; a frame with the reset flag
//     re-baselines the receiver (full resync) after an ack gap, peer
//     reconnect, or takeover.
//
// Their headers are a flags byte followed by uvarint seq/shard/epoch words
// (tiny counters in practice). Steady state sends many small or empty frames
// — an empty step reply is 7 bytes — so the header is the fan-out floor once
// suppression has removed the entries.
//
// All varints are minimal-length and xor-floats carry no zero top byte, so
// every accepted payload re-encodes bit-identically (FuzzFrameRoundTrip
// relies on this canonical form).

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Flag bits of the delta frames.
const (
	// RateDeltaQuantized marks a RateDelta whose rates are uvarint Mbps
	// (paper-style granularity) instead of bit-exact xor-compressed floats.
	RateDeltaQuantized byte = 1 << 0
	// RateDeltaStepReply is the wire form of StepReplyFlag: the seq uvarint
	// carries only the counter, so the flag rides in the flags byte instead
	// of pinning the header at eight bytes. Steady-state replies are often
	// empty or tiny — header bytes are the fan-out floor.
	RateDeltaStepReply byte = 1 << 1
	// DeltaReset marks a PriceDigestDelta or PriceSnapshotDelta that
	// re-baselines the receiver: digest resets zero every contribution from
	// the sending shard first, snapshot resets re-pin exactly the listed
	// links and unpin the rest.
	DeltaReset byte = 1 << 0
)

// Conservative worst-case entry sizes, used only for the chunking bounds.
const (
	maxRateDeltaEntryLen = 20 // flow varint (<=10) + quantized Mbps varint (<=10)
	maxDigestDeltaEntry  = 28 // link varint (<=10) + two xor-floats (<=9 each)
	maxSnapDeltaEntry    = 19 // link varint (<=10) + one xor-float (<=9)
)

// MaxRateDeltaEntries is the largest entry count guaranteed to fit one
// RateDelta frame whatever the entry values (worst-case varint sizes; the
// extra 10 covers the entry-count varint).
const MaxRateDeltaEntries = (MaxPayload - rateDeltaHdrMax - 10) / maxRateDeltaEntryLen

// MaxDigestDeltaEntries is the worst-case entry bound of PriceDigestDelta.
const MaxDigestDeltaEntries = (MaxPayload - digestDeltaHdrMax - 10) / maxDigestDeltaEntry

// MaxSnapshotDeltaEntries is the worst-case entry bound of
// PriceSnapshotDelta.
const MaxSnapshotDeltaEntries = (MaxPayload - snapDeltaHdrMax - 10) / maxSnapDeltaEntry

// maxQuantized caps quantized rates at 2^50 Mbps (~10^21 bits/s, far beyond
// any link). The cap keeps quantize(dequantize(q)) == q exact in float64, so
// quantized frames re-encode bit-identically.
const maxQuantized = 1 << 50

// quantizeRate rounds a rate to the paper's Mbps granularity for the
// quantized RateDelta mode. Positive rates never round to zero (a live flow
// keeps at least 1 Mbps) and non-positive rates quantize to zero.
func quantizeRate(rate float64) uint64 {
	if rate <= 0 || math.IsNaN(rate) {
		return 0
	}
	q := math.Round(rate / 1e6)
	if q < 1 {
		return 1
	}
	if q >= maxQuantized {
		return maxQuantized
	}
	return uint64(q)
}

// dequantizeRate maps a quantized Mbps value back to a rate in bits/s.
func dequantizeRate(q uint64) float64 { return float64(q) * 1e6 }

// patchFrameLen back-fills the uint24 payload length of a variable-length
// frame whose header was appended at start. Encoders panic on overflow: the
// Max*DeltaEntries bounds make exceeding MaxPayload a caller bug, and a
// silently truncated length would desynchronize the stream.
func patchFrameLen(buf []byte, start int) []byte {
	n := len(buf) - start - HeaderBytes
	if n > MaxPayload {
		panic(fmt.Sprintf("wire: %s payload %d bytes exceeds MaxPayload; respect the Max*DeltaEntries bounds", MsgType(buf[start]), n))
	}
	buf[start+1] = byte(n)
	buf[start+2] = byte(n >> 8)
	buf[start+3] = byte(n >> 16)
	return buf
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarint decodes a minimal-length unsigned varint, rejecting non-canonical
// encodings (a padded varint would break the bit-exact re-encode property).
func uvarint(p []byte) (uint64, int, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, fmt.Errorf("wire: truncated or overlong varint")
	}
	if n > 1 && v>>(7*uint(n-1)) == 0 {
		return 0, 0, fmt.Errorf("wire: non-minimal varint")
	}
	return v, n, nil
}

// appendXorFloat appends the xor-compressed form of a float64 bit pattern
// against the previous value: one byte with the significant-byte count of
// x = bits ^ prev, then that many little-endian bytes. Equal values cost a
// single zero byte. It stores the whole 8-byte word and keeps its low n
// bytes: the same bytes as a byte loop, in one store (the 8-n bytes past the
// returned length, within buf's capacity, are scratch).
func appendXorFloat(buf []byte, bitsNow, prev uint64) []byte {
	x := bitsNow ^ prev
	n := (bits.Len64(x) + 7) / 8
	buf = append(buf, byte(n))
	return binary.LittleEndian.AppendUint64(buf, x)[:len(buf)+n]
}

// xorFloat decodes one appendXorFloat value, returning the new bit pattern
// and the number of bytes consumed. Non-canonical forms (length > 8, or a
// zero top byte) are rejected. With a whole word after the length byte it
// loads eight bytes and masks off those beyond the value; only a value at the
// very end of a payload takes the byte loop.
func xorFloat(p []byte, prev uint64) (uint64, int, error) {
	if len(p) < 1 {
		return 0, 0, fmt.Errorf("wire: truncated xor-float")
	}
	n := int(p[0])
	if n > 8 {
		return 0, 0, fmt.Errorf("wire: xor-float length %d exceeds 8", n)
	}
	var x uint64
	if len(p) >= 9 {
		x = binary.LittleEndian.Uint64(p[1:9]) & (^uint64(0) >> (64 - 8*uint(n)))
	} else {
		if len(p) < 1+n {
			return 0, 0, fmt.Errorf("wire: truncated xor-float")
		}
		for i := 0; i < n; i++ {
			x |= uint64(p[1+i]) << (8 * uint(i))
		}
	}
	if n > 0 && p[n] == 0 {
		return 0, 0, fmt.Errorf("wire: non-minimal xor-float")
	}
	return prev ^ x, 1 + n, nil
}

// ---------------------------------------------------------------------------
// RateDelta.

// RateDelta is a decoded delta rate-update frame. Entries are decoded eagerly
// (they are not random-accessible); DecodeRateDelta reuses the Entries
// capacity of the value it fills.
type RateDelta struct {
	// Seq is the daemon iteration that produced the updates, or, with
	// StepReplyFlag set, the Seq of the Step frame this frame answers.
	Seq uint64
	// Quantized reports the Mbps-granularity mode; rates have already been
	// dequantized to bits/s.
	Quantized bool
	Entries   []RateEntry
}

// AppendRateDelta appends a complete RateDelta frame. Entries keep their
// order (step replies preserve the engine's update order); flow IDs are
// zigzag-encoded deltas so any order round-trips. len(entries) must not
// exceed MaxRateDeltaEntries.
func AppendRateDelta(buf []byte, seq uint64, quantized bool, entries []RateEntry) []byte {
	var enc RateDeltaEncoder
	buf = enc.Begin(buf, seq, quantized, len(entries))
	for _, e := range entries {
		buf = enc.Append(buf, e.Flow, e.Rate)
	}
	return enc.End(buf)
}

// RateDeltaEncoder appends one RateDelta frame an entry at a time, so a
// sender encodes straight from wherever its rates live: Begin appends the
// header with the entry count, Append one entry per call, and End back-fills
// the frame length. Exactly n entries must be appended between Begin and End.
// The zero value is ready for Begin, and Begin resets it.
type RateDeltaEncoder struct {
	start, left int
	quantized   bool
	prevFlow    int64
	prevBits    uint64
}

// Begin appends the header of a RateDelta frame carrying n entries; n must
// not exceed MaxRateDeltaEntries.
func (enc *RateDeltaEncoder) Begin(buf []byte, seq uint64, quantized bool, n int) []byte {
	*enc = RateDeltaEncoder{start: len(buf), left: n, quantized: quantized}
	buf = appendHeader(buf, TypeRateDelta, 0)
	var flags byte
	if quantized {
		flags |= RateDeltaQuantized
	}
	if seq&StepReplyFlag != 0 {
		flags |= RateDeltaStepReply
		seq &^= StepReplyFlag
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, seq)
	return binary.AppendUvarint(buf, uint64(n))
}

// Append appends one entry: its flow as a zigzag delta against the previous
// entry's, its rate xor-compressed against the previous rate (or as uvarint
// Mbps in the quantized mode).
func (enc *RateDeltaEncoder) Append(buf []byte, flow int64, rate float64) []byte {
	enc.left--
	buf = binary.AppendUvarint(buf, zigzag(flow-enc.prevFlow))
	enc.prevFlow = flow
	if enc.quantized {
		return binary.AppendUvarint(buf, quantizeRate(rate))
	}
	b := math.Float64bits(rate)
	buf = appendXorFloat(buf, b, enc.prevBits)
	enc.prevBits = b
	return buf
}

// End completes the frame. It panics when the entries appended do not match
// the count Begin wrote: the frame would desynchronize the stream.
func (enc *RateDeltaEncoder) End(buf []byte) []byte {
	if enc.left != 0 {
		panic(fmt.Sprintf("wire: rate-delta entries appended differ by %d from the count Begin wrote", -enc.left))
	}
	return patchFrameLen(buf, enc.start)
}

// DecodeRateDelta decodes a RateDelta payload into d, reusing d.Entries.
func DecodeRateDelta(p []byte, d *RateDelta) error {
	var dec RateDeltaDecoder
	if err := dec.Reset(p); err != nil {
		return err
	}
	d.Seq, d.Quantized = dec.Seq, dec.Quantized
	d.Entries = d.Entries[:0]
	for e, ok := dec.Next(); ok; e, ok = dec.Next() {
		d.Entries = append(d.Entries, e)
	}
	return dec.Err()
}

// RateDeltaDecoder decodes a RateDelta payload an entry at a time, so a
// receiver puts each rate straight where it keeps them. Reset parses the
// header; then Next yields the entries in order until it reports false, and
// Err tells a complete, canonical payload (nil) from a malformed one. A
// RateDeltaDecoder aliases the payload it was reset to.
type RateDeltaDecoder struct {
	// Seq and Quantized are the header's, as in RateDelta.
	Seq       uint64
	Quantized bool

	p        []byte // the undecoded rest of the payload
	i, count uint64
	prevFlow int64
	prevBits uint64
	err      error
}

// Reset parses the header of RateDelta payload p and readies the decoder
// for its entries.
func (dec *RateDeltaDecoder) Reset(p []byte) error {
	*dec = RateDeltaDecoder{}
	if len(p) < 1 {
		return fmt.Errorf("wire: rate-delta payload is empty")
	}
	flags := p[0]
	if flags&^(RateDeltaQuantized|RateDeltaStepReply) != 0 {
		return fmt.Errorf("wire: rate-delta has unknown flags %#x", flags)
	}
	dec.Quantized = flags&RateDeltaQuantized != 0
	p = p[1:]
	seq, n, err := uvarint(p)
	if err != nil {
		return fmt.Errorf("wire: rate-delta seq: %w", err)
	}
	if seq&StepReplyFlag != 0 {
		return fmt.Errorf("wire: rate-delta seq %#x collides with the step-reply bit", seq)
	}
	p = p[n:]
	dec.Seq = seq
	if flags&RateDeltaStepReply != 0 {
		dec.Seq |= StepReplyFlag
	}
	count, n, err := uvarint(p)
	if err != nil {
		return fmt.Errorf("wire: rate-delta count: %w", err)
	}
	p = p[n:]
	if count > uint64(len(p)) { // every entry takes >= 2 bytes
		return fmt.Errorf("wire: rate-delta declares %d entries in %d bytes", count, len(p))
	}
	dec.p, dec.count = p, count
	return nil
}

// Next decodes the next entry. It reports false once every entry has been
// decoded, or at the first malformed one; Err then tells which.
func (dec *RateDeltaDecoder) Next() (RateEntry, bool) {
	if dec.i == dec.count || dec.err != nil {
		if dec.err == nil && len(dec.p) != 0 {
			dec.err = fmt.Errorf("wire: rate-delta has %d trailing bytes", len(dec.p))
		}
		return RateEntry{}, false
	}
	p := dec.p
	u, n, err := uvarint(p)
	if err != nil {
		dec.err = fmt.Errorf("wire: rate-delta entry %d flow: %w", dec.i, err)
		return RateEntry{}, false
	}
	p = p[n:]
	dec.prevFlow += unzigzag(u)
	var rate float64
	if dec.Quantized {
		q, n, err := uvarint(p)
		if err != nil {
			dec.err = fmt.Errorf("wire: rate-delta entry %d rate: %w", dec.i, err)
			return RateEntry{}, false
		}
		if q > maxQuantized {
			dec.err = fmt.Errorf("wire: rate-delta entry %d quantized rate %d exceeds %d Mbps", dec.i, q, uint64(maxQuantized))
			return RateEntry{}, false
		}
		p = p[n:]
		rate = dequantizeRate(q)
	} else {
		b, n, err := xorFloat(p, dec.prevBits)
		if err != nil {
			dec.err = fmt.Errorf("wire: rate-delta entry %d rate: %w", dec.i, err)
			return RateEntry{}, false
		}
		p = p[n:]
		dec.prevBits = b
		rate = math.Float64frombits(b)
	}
	dec.p = p
	dec.i++
	return RateEntry{Flow: dec.prevFlow, Rate: rate}, true
}

// Err returns the first decoding error — a malformed entry, or bytes left
// after the last one — once Next has reported false, and nil for a payload
// decoded whole.
func (dec *RateDeltaDecoder) Err() error { return dec.err }

// ---------------------------------------------------------------------------
// PriceDigestDelta.

// PriceDigestDelta is a decoded delta digest. Entries are decoded eagerly;
// DecodePriceDigestDelta reuses the slice capacities of the value it fills.
type PriceDigestDelta struct {
	// Seq is the sender's iteration counter when the digest was taken and
	// Shard the sending shard's index.
	Seq   uint64
	Shard uint32
	// Reset re-baselines the receiver: zero every contribution from this
	// shard before applying the listed entries. A reset digest may omit
	// all-zero links; a non-reset digest lists exactly the changed links.
	Reset bool
	Links []uint32
	Loads []float64
	Hdiag []float64
}

// AppendPriceDigestDelta appends a complete PriceDigestDelta frame over
// parallel links/loads/hdiag slices. Links keep their order (senders emit
// them sorted, making deltas small, but any order round-trips). len(links)
// must not exceed MaxDigestDeltaEntries.
func AppendPriceDigestDelta(buf []byte, seq uint64, shard uint32, reset bool, links []uint32, loads, hdiag []float64) []byte {
	start := len(buf)
	buf = appendHeader(buf, TypePriceDigestDelta, 0)
	var flags byte
	if reset {
		flags |= DeltaReset
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(shard))
	buf = binary.AppendUvarint(buf, uint64(len(links)))
	var prevLink int64
	var prevLoad, prevHdiag uint64
	for i, l := range links {
		buf = binary.AppendUvarint(buf, zigzag(int64(l)-prevLink))
		prevLink = int64(l)
		lb := math.Float64bits(loads[i])
		buf = appendXorFloat(buf, lb, prevLoad)
		prevLoad = lb
		hb := math.Float64bits(hdiag[i])
		buf = appendXorFloat(buf, hb, prevHdiag)
		prevHdiag = hb
	}
	return patchFrameLen(buf, start)
}

// DecodePriceDigestDelta decodes a PriceDigestDelta payload into d, reusing
// its slice capacities.
func DecodePriceDigestDelta(p []byte, d *PriceDigestDelta) error {
	if len(p) < 1 {
		return fmt.Errorf("wire: price-digest-delta payload is empty")
	}
	flags := p[0]
	if flags&^DeltaReset != 0 {
		return fmt.Errorf("wire: price-digest-delta has unknown flags %#x", flags)
	}
	d.Reset = flags&DeltaReset != 0
	p = p[1:]
	seq, n, err := uvarint(p)
	if err != nil {
		return fmt.Errorf("wire: price-digest-delta seq: %w", err)
	}
	p = p[n:]
	d.Seq = seq
	shard, n, err := uvarint(p)
	if err != nil {
		return fmt.Errorf("wire: price-digest-delta shard: %w", err)
	}
	if shard > math.MaxUint32 {
		return fmt.Errorf("wire: price-digest-delta shard %d out of range", shard)
	}
	p = p[n:]
	d.Shard = uint32(shard)
	count, n, err := uvarint(p)
	if err != nil {
		return fmt.Errorf("wire: price-digest-delta count: %w", err)
	}
	p = p[n:]
	if count > uint64(len(p)) { // every entry takes >= 3 bytes
		return fmt.Errorf("wire: price-digest-delta declares %d entries in %d bytes", count, len(p))
	}
	d.Links = d.Links[:0]
	d.Loads = d.Loads[:0]
	d.Hdiag = d.Hdiag[:0]
	var prevLink int64
	var prevLoad, prevHdiag uint64
	for i := uint64(0); i < count; i++ {
		u, n, err := uvarint(p)
		if err != nil {
			return fmt.Errorf("wire: price-digest-delta entry %d link: %w", i, err)
		}
		p = p[n:]
		prevLink += unzigzag(u)
		if prevLink < 0 || prevLink > math.MaxUint32 {
			return fmt.Errorf("wire: price-digest-delta entry %d link %d out of range", i, prevLink)
		}
		lb, n, err := xorFloat(p, prevLoad)
		if err != nil {
			return fmt.Errorf("wire: price-digest-delta entry %d load: %w", i, err)
		}
		p = p[n:]
		prevLoad = lb
		hb, n, err := xorFloat(p, prevHdiag)
		if err != nil {
			return fmt.Errorf("wire: price-digest-delta entry %d hdiag: %w", i, err)
		}
		p = p[n:]
		prevHdiag = hb
		d.Links = append(d.Links, uint32(prevLink))
		d.Loads = append(d.Loads, math.Float64frombits(lb))
		d.Hdiag = append(d.Hdiag, math.Float64frombits(hb))
	}
	if len(p) != 0 {
		return fmt.Errorf("wire: price-digest-delta has %d trailing bytes", len(p))
	}
	return nil
}

// ---------------------------------------------------------------------------
// PriceSnapshotDelta.

// PriceSnapshotDelta is a decoded delta snapshot. Entries are decoded
// eagerly; DecodePriceSnapshotDelta reuses the slice capacities of the value
// it fills.
type PriceSnapshotDelta struct {
	// Epoch is the sender's allocator epoch (receivers drop snapshots from an
	// epoch older than the one the peer session advertised), Seq its
	// iteration counter when the snapshot was taken, Shard its shard index.
	Epoch uint64
	Seq   uint64
	Shard uint32
	// Reset re-baselines the receiver's pin set: pin exactly the listed
	// links at the listed prices. Unlike digest resets, a snapshot reset
	// must list every boundary link — a pinned zero price is not the same
	// as an unpinned link. Non-reset frames list only changed links.
	Reset  bool
	Links  []uint32
	Prices []float64
}

// AppendPriceSnapshotDelta appends a complete PriceSnapshotDelta frame over
// parallel links/prices slices. len(links) must not exceed
// MaxSnapshotDeltaEntries.
func AppendPriceSnapshotDelta(buf []byte, epoch, seq uint64, shard uint32, reset bool, links []uint32, prices []float64) []byte {
	start := len(buf)
	buf = appendHeader(buf, TypePriceSnapshotDelta, 0)
	var flags byte
	if reset {
		flags |= DeltaReset
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(shard))
	buf = binary.AppendUvarint(buf, uint64(len(links)))
	var prevLink int64
	var prevPrice uint64
	for i, l := range links {
		buf = binary.AppendUvarint(buf, zigzag(int64(l)-prevLink))
		prevLink = int64(l)
		pb := math.Float64bits(prices[i])
		buf = appendXorFloat(buf, pb, prevPrice)
		prevPrice = pb
	}
	return patchFrameLen(buf, start)
}

// DecodePriceSnapshotDelta decodes a PriceSnapshotDelta payload into d,
// reusing its slice capacities.
func DecodePriceSnapshotDelta(p []byte, d *PriceSnapshotDelta) error {
	if len(p) < 1 {
		return fmt.Errorf("wire: price-snapshot-delta payload is empty")
	}
	flags := p[0]
	if flags&^DeltaReset != 0 {
		return fmt.Errorf("wire: price-snapshot-delta has unknown flags %#x", flags)
	}
	d.Reset = flags&DeltaReset != 0
	p = p[1:]
	epoch, n, err := uvarint(p)
	if err != nil {
		return fmt.Errorf("wire: price-snapshot-delta epoch: %w", err)
	}
	p = p[n:]
	d.Epoch = epoch
	seq, n, err := uvarint(p)
	if err != nil {
		return fmt.Errorf("wire: price-snapshot-delta seq: %w", err)
	}
	p = p[n:]
	d.Seq = seq
	shard, n, err := uvarint(p)
	if err != nil {
		return fmt.Errorf("wire: price-snapshot-delta shard: %w", err)
	}
	if shard > math.MaxUint32 {
		return fmt.Errorf("wire: price-snapshot-delta shard %d out of range", shard)
	}
	p = p[n:]
	d.Shard = uint32(shard)
	count, n, err := uvarint(p)
	if err != nil {
		return fmt.Errorf("wire: price-snapshot-delta count: %w", err)
	}
	p = p[n:]
	if count > uint64(len(p)) { // every entry takes >= 2 bytes
		return fmt.Errorf("wire: price-snapshot-delta declares %d entries in %d bytes", count, len(p))
	}
	d.Links = d.Links[:0]
	d.Prices = d.Prices[:0]
	var prevLink int64
	var prevPrice uint64
	for i := uint64(0); i < count; i++ {
		u, n, err := uvarint(p)
		if err != nil {
			return fmt.Errorf("wire: price-snapshot-delta entry %d link: %w", i, err)
		}
		p = p[n:]
		prevLink += unzigzag(u)
		if prevLink < 0 || prevLink > math.MaxUint32 {
			return fmt.Errorf("wire: price-snapshot-delta entry %d link %d out of range", i, prevLink)
		}
		pb, n, err := xorFloat(p, prevPrice)
		if err != nil {
			return fmt.Errorf("wire: price-snapshot-delta entry %d price: %w", i, err)
		}
		p = p[n:]
		prevPrice = pb
		d.Links = append(d.Links, uint32(prevLink))
		d.Prices = append(d.Prices, math.Float64frombits(pb))
	}
	if len(p) != 0 {
		return fmt.Errorf("wire: price-snapshot-delta has %d trailing bytes", len(p))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fixed-v3 size accounting. Generations 1-3 sent rates and boundary state in
// fixed-size frames (RateBatch, PriceDigest, PriceSnapshot); the daemons'
// FanoutBytesFixed/ExchangeBytesFixed counters still report what the same
// updates would have cost that way, as the baseline of the compression ratio.
// Only the arithmetic survives: the RateBatch and PriceDigest codecs are gone.

const (
	batchHdrLen    = 12 // seq u64 + count u32
	rateEntryLen   = 16 // flow i64 + rate f64
	digestHdrLen   = 16 // seq u64 + shard u32 + count u32
	digestEntryLen = 20 // link u32 + load f64 + hdiag f64
)

// MaxBatchEntries and MaxDigestEntries are the per-frame entry limits the
// fixed frames were chunked at (the uint24 payload length).
const (
	MaxBatchEntries  = (MaxPayload - batchHdrLen) / rateEntryLen
	MaxDigestEntries = (MaxPayload - digestHdrLen) / digestEntryLen
)

// RateBatchSize returns the size a fixed RateBatch frame with n entries had,
// header included.
func RateBatchSize(n int) int { return HeaderBytes + batchHdrLen + n*rateEntryLen }

// PriceDigestSize returns the size a fixed PriceDigest frame with n entries
// had, header included.
func PriceDigestSize(n int) int { return HeaderBytes + digestHdrLen + n*digestEntryLen }

// PriceSnapshotSize returns the encoded size of a PriceSnapshot frame with n
// entries, header included.
func PriceSnapshotSize(n int) int { return HeaderBytes + snapHdrLen + n*snapEntryLen }
