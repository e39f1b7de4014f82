package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzFrameRoundTrip feeds arbitrary bytes through the frame parser and,
// for every frame that decodes, re-encodes it and requires a bit-exact
// round trip. Decoders must never panic on malformed input.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Version: Version, ClientID: 1}))
	f.Add(AppendWelcome(nil, Welcome{Version: Version, Epoch: 3, IntervalNanos: 10_000}))
	f.Add(AppendFlowletAdd(nil, FlowletAdd{Flow: 7, Src: 1, Dst: 2, Weight: 1.5}))
	f.Add(AppendFlowletEnd(nil, FlowletEnd{Flow: 7}))
	f.Add(AppendStep(nil, Step{Seq: 9}))
	f.Add(AppendRateDelta(nil, 9, false, []RateEntry{{Flow: 7, Rate: 5e9}, {Flow: 8, Rate: math.NaN()}}))
	f.Add(AppendEpochNotify(nil, EpochNotify{Epoch: 2}))
	f.Add(AppendPeerHello(nil, PeerHello{Version: Version, Shard: 1, NumShards: 4, Epoch: 1}))
	snap := AppendPriceSnapshotHeader(nil, 1, 3, 0, 1)
	snap = AppendSnapshotEntry(snap, SnapshotEntry{Link: 4, Price: 1.5})
	f.Add(snap)
	f.Add(AppendExchangeAck(nil, 3))
	fstate := AppendFlowStateHeader(nil, 2, 5, 1, 2)
	fstate = AppendFlowStateEntry(fstate, FlowStateEntry{Flow: 7, Src: 1, Dst: 2, Weight: 1.5})
	fstate = AppendFlowStateEntry(fstate, FlowStateEntry{Flow: 8, Src: 3, Dst: 0, Weight: 0})
	f.Add(fstate)
	f.Add(AppendHeartbeat(nil, Heartbeat{Seq: 4, Shard: 2}))
	f.Add(AppendTakeover(nil, Takeover{Epoch: 2, Seq: 9, Dead: 0, By: 1}))
	f.Add([]byte{0xFF, 0x00})
	f.Add(appendHeader(nil, reservedRateBatch, batchHdrLen+3))
	f.Add(appendHeader(nil, reservedPriceDigest, digestHdrLen+7))

	// Delta frames: sized adds, empty deltas, quantized mode, reset
	// (ack-gap resync) frames, and max-varint flow/link jumps.
	f.Add(AppendFlowletAdd(nil, FlowletAdd{Flow: 7, Src: 1, Dst: 2, Weight: 1.5, Size: 1 << 20}))
	f.Add(AppendRateDelta(nil, 9|StepReplyFlag, false, []RateEntry{{Flow: 7, Rate: 5e9}, {Flow: 8, Rate: 5e9}, {Flow: 3, Rate: 2.5e9}}))
	f.Add(AppendRateDelta(nil, 4, false, nil))
	f.Add(AppendRateDelta(nil, 5, true, []RateEntry{{Flow: math.MaxInt64, Rate: 1e9}, {Flow: math.MinInt64, Rate: 0.2e6}}))
	f.Add(AppendPriceDigestDelta(nil, 3, 1, true, []uint32{4, 9, math.MaxUint32}, []float64{5e9, 0, 1}, []float64{-1e-3, 0, math.Inf(-1)}))
	f.Add(AppendPriceDigestDelta(nil, 4, 1, false, nil, nil, nil))
	f.Add(AppendPriceSnapshotDelta(nil, 1, 3, 0, true, []uint32{4, 5}, []float64{1.5, 1.5}))
	f.Add(AppendPriceSnapshotDelta(nil, 2, 7, 0, false, nil, nil))
	f.Add(appendHeader(nil, TypeRateDelta, rateDeltaHdrMax+5))

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := data
		for {
			typ, payload, rest, err := ParseFrame(buf)
			if err != nil {
				return
			}
			var reenc []byte
			switch typ {
			case TypeHello:
				m, err := DecodeHello(payload)
				if err != nil {
					break
				}
				reenc = AppendHello(nil, m)
			case TypeWelcome:
				m, err := DecodeWelcome(payload)
				if err != nil {
					break
				}
				reenc = AppendWelcome(nil, m)
			case TypeFlowletAdd:
				m, err := DecodeFlowletAdd(payload)
				if err != nil {
					break
				}
				reenc = AppendFlowletAdd(nil, m)
			case TypeFlowletEnd:
				m, err := DecodeFlowletEnd(payload)
				if err != nil {
					break
				}
				reenc = AppendFlowletEnd(nil, m)
			case TypeStep:
				m, err := DecodeStep(payload)
				if err != nil {
					break
				}
				reenc = AppendStep(nil, m)
			case TypeEpochNotify:
				m, err := DecodeEpochNotify(payload)
				if err != nil {
					break
				}
				reenc = AppendEpochNotify(nil, m)
			case TypePeerHello:
				m, err := DecodePeerHello(payload)
				if err != nil {
					break
				}
				reenc = AppendPeerHello(nil, m)
			case TypePriceSnapshot:
				s, err := DecodePriceSnapshot(payload)
				if err != nil {
					break
				}
				reenc = AppendPriceSnapshotHeader(nil, s.Epoch, s.Seq, s.Shard, s.Len())
				for i := 0; i < s.Len(); i++ {
					reenc = AppendSnapshotEntry(reenc, s.Entry(i))
				}
			case TypeExchangeAck:
				seq, err := DecodeExchangeAck(payload)
				if err != nil {
					break
				}
				reenc = AppendExchangeAck(nil, seq)
			case TypeFlowState:
				fs, err := DecodeFlowState(payload)
				if err != nil {
					break
				}
				reenc = AppendFlowStateHeader(nil, fs.Epoch, fs.Seq, fs.Shard, fs.Len())
				for i := 0; i < fs.Len(); i++ {
					reenc = AppendFlowStateEntry(reenc, fs.Entry(i))
				}
			case TypeHeartbeat:
				m, err := DecodeHeartbeat(payload)
				if err != nil {
					break
				}
				reenc = AppendHeartbeat(nil, m)
			case TypeTakeover:
				m, err := DecodeTakeover(payload)
				if err != nil {
					break
				}
				reenc = AppendTakeover(nil, m)
			case TypeRateDelta:
				var d RateDelta
				if err := DecodeRateDelta(payload, &d); err != nil {
					break
				}
				reenc = AppendRateDelta(nil, d.Seq, d.Quantized, d.Entries)
			case TypePriceDigestDelta:
				var d PriceDigestDelta
				if err := DecodePriceDigestDelta(payload, &d); err != nil {
					break
				}
				reenc = AppendPriceDigestDelta(nil, d.Seq, d.Shard, d.Reset, d.Links, d.Loads, d.Hdiag)
			case TypePriceSnapshotDelta:
				var d PriceSnapshotDelta
				if err := DecodePriceSnapshotDelta(payload, &d); err != nil {
					break
				}
				reenc = AppendPriceSnapshotDelta(nil, d.Epoch, d.Seq, d.Shard, d.Reset, d.Links, d.Prices)
			}
			if reenc != nil {
				orig := buf[:HeaderBytes+len(payload)]
				if !bytes.Equal(reenc, orig) {
					t.Fatalf("%s round trip differs:\n in %x\nout %x", typ, orig, reenc)
				}
			}
			buf = rest
		}
	})
}

// FuzzScanner checks the stream scanner agrees with the buffer parser on
// arbitrary input however the stream is fragmented: same frame sequence, same
// place of failure, no panics. maxChunk and errEvery drive a fragReader
// (scanner_test.go), so read boundaries and injected timeouts land anywhere.
func FuzzScanner(f *testing.F) {
	var seed []byte
	seed = AppendHello(seed, Hello{Version: Version})
	seed = AppendRateDelta(seed, 1, false, []RateEntry{{Flow: 1, Rate: 1e9}})
	f.Add(seed, uint8(0), uint8(0))
	f.Add(seed, uint8(1), uint8(2))
	f.Add([]byte{byte(TypeStep), stepLen, 0, 0, 1, 2}, uint8(3), uint8(0))
	f.Add([]byte{byte(TypeStep), 0xff, 0xff, 0xff, 1, 2}, uint8(0), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, maxChunk, errEvery uint8) {
		if errEvery == 1 {
			errEvery = 0 // every Read failing is a dead stream, not a slow one
		}
		r := &fragReader{data: data, maxChunk: int(maxChunk), errEvery: int(errEvery)}
		if maxChunk == 0 {
			r.maxChunk = len(data) + 1
		}
		checkScanMatchesParse(t, data, r)
	})
}

// TestWireLayoutConstants pins the wire-format constants — payload layouts and
// every frame-type number — so changing either without bumping Version fails
// loudly. batchHdrLen..digestEntryLen are the layouts of the retired fixed
// frames: only the fixed-v3 byte counters still compute with them.
func TestWireLayoutConstants(t *testing.T) {
	if Version != 4 {
		t.Fatalf("Version = %d; update layout pins when revving the protocol", Version)
	}
	pins := []struct {
		name string
		got  int
		want int
	}{
		{"HeaderBytes", HeaderBytes, 4},
		{"helloLen", helloLen, 10},
		{"welcomeLen", welcomeLen, 18},
		{"addLen", addLen, 24},
		{"endLen", endLen, 8},
		{"stepLen", stepLen, 8},
		{"batchHdrLen", batchHdrLen, 12},
		{"rateEntryLen", rateEntryLen, 16},
		{"epochNotifyLen", epochNotifyLen, 8},
		{"peerHelloLen", peerHelloLen, 18},
		{"digestHdrLen", digestHdrLen, 16},
		{"digestEntryLen", digestEntryLen, 20},
		{"snapHdrLen", snapHdrLen, 24},
		{"snapEntryLen", snapEntryLen, 12},
		{"ackLen", ackLen, 8},
		{"flowStateHdrLen", flowStateHdrLen, 24},
		{"flowStateEntryLen", flowStateEntryLen, 24},
		{"heartbeatLen", heartbeatLen, 12},
		{"takeoverLen", takeoverLen, 24},
		{"addSizedLen", addSizedLen, 32},
		{"rateDeltaHdrMax", rateDeltaHdrMax, 11},
		{"digestDeltaHdrMax", digestDeltaHdrMax, 16},
		{"snapDeltaHdrMax", snapDeltaHdrMax, 26},
	}
	for _, p := range pins {
		if p.got != p.want {
			t.Errorf("%s = %d; want %d (bump wire.Version when changing the layout)", p.name, p.got, p.want)
		}
	}
	types := map[MsgType]uint8{
		TypeInvalid: 0, TypeHello: 1, TypeWelcome: 2, TypeFlowletAdd: 3, TypeFlowletEnd: 4, TypeStep: 5,
		reservedRateBatch: 6, TypeEpochNotify: 7, TypePeerHello: 8, reservedPriceDigest: 9,
		TypePriceSnapshot: 10, TypeExchangeAck: 11, TypeFlowState: 12, TypeHeartbeat: 13, TypeTakeover: 14,
		TypeRateDelta: 15, TypePriceDigestDelta: 16, TypePriceSnapshotDelta: 17,
	}
	if len(types) != int(maxMsgType)+1 {
		t.Errorf("%d distinct frame-type numbers pinned; want %d (0..maxMsgType)", len(types), int(maxMsgType)+1)
	}
	for typ, want := range types {
		if uint8(typ) != want {
			t.Errorf("frame type %s = %d; want %d (type numbers never move)", typ, uint8(typ), want)
		}
	}
	// Endianness pin: Flow 1 encodes with its low byte first.
	b := AppendFlowletEnd(nil, FlowletEnd{Flow: 1})
	if b[HeaderBytes] != 1 || binary.LittleEndian.Uint64(b[HeaderBytes:]) != 1 {
		t.Errorf("FlowletEnd(1) encodes as %x; want little-endian", b)
	}
}
