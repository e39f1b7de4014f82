package wire

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestRateDeltaRoundTrip(t *testing.T) {
	cases := [][]RateEntry{
		nil,
		{{Flow: 0, Rate: 0}},
		{{Flow: 7, Rate: 5e9}, {Flow: 8, Rate: 5e9}, {Flow: 9, Rate: 5e9}},
		// Step replies keep engine order: descending and mixed IDs must
		// round-trip too (zigzag deltas).
		{{Flow: 100, Rate: 1e9}, {Flow: 3, Rate: 2e9}, {Flow: 50, Rate: 1e9}},
		{{Flow: math.MaxInt64, Rate: math.Inf(1)}, {Flow: math.MinInt64, Rate: -1}},
	}
	for _, entries := range cases {
		frame := AppendRateDelta(nil, 42|StepReplyFlag, false, entries)
		typ, payload, rest, err := ParseFrame(frame)
		if err != nil || typ != TypeRateDelta || len(rest) != 0 {
			t.Fatalf("ParseFrame: %v %v rest=%d", typ, err, len(rest))
		}
		var d RateDelta
		if err := DecodeRateDelta(payload, &d); err != nil {
			t.Fatalf("DecodeRateDelta: %v", err)
		}
		if d.Seq != 42|StepReplyFlag || d.Quantized {
			t.Fatalf("header round trip: %+v", d)
		}
		if len(d.Entries) != len(entries) {
			t.Fatalf("got %d entries, want %d", len(d.Entries), len(entries))
		}
		for i, e := range entries {
			g := d.Entries[i]
			if g.Flow != e.Flow || math.Float64bits(g.Rate) != math.Float64bits(e.Rate) {
				t.Fatalf("entry %d: got %+v, want %+v", i, g, e)
			}
		}
	}
}

func TestRateDeltaQuantized(t *testing.T) {
	entries := []RateEntry{{Flow: 1, Rate: 5e9}, {Flow: 2, Rate: 0.3e6}, {Flow: 3, Rate: 0}, {Flow: 4, Rate: 1.4999e6}}
	frame := AppendRateDelta(nil, 7, true, entries)
	_, payload, _, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var d RateDelta
	if err := DecodeRateDelta(payload, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Quantized {
		t.Fatal("quantized flag lost")
	}
	want := []float64{5e9, 1e6, 0, 1e6} // Mbps rounding, positive floor 1 Mbps
	for i, w := range want {
		if d.Entries[i].Rate != w {
			t.Fatalf("entry %d: got %g, want %g", i, d.Entries[i].Rate, w)
		}
	}
}

func TestDigestDeltaRoundTrip(t *testing.T) {
	links := []uint32{4, 9, 11, math.MaxUint32}
	loads := []float64{5e9, 5e9, 0, -1e-3}
	hdiag := []float64{-1e-3, -1e-3, math.Inf(-1), 0}
	frame := AppendPriceDigestDelta(nil, 3, 2, true, links, loads, hdiag)
	_, payload, _, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var d PriceDigestDelta
	if err := DecodePriceDigestDelta(payload, &d); err != nil {
		t.Fatal(err)
	}
	if d.Seq != 3 || d.Shard != 2 || !d.Reset {
		t.Fatalf("header round trip: %+v", d)
	}
	for i := range links {
		if d.Links[i] != links[i] || math.Float64bits(d.Loads[i]) != math.Float64bits(loads[i]) ||
			math.Float64bits(d.Hdiag[i]) != math.Float64bits(hdiag[i]) {
			t.Fatalf("entry %d: got (%d %g %g)", i, d.Links[i], d.Loads[i], d.Hdiag[i])
		}
	}
}

func TestSnapshotDeltaRoundTrip(t *testing.T) {
	links := []uint32{0, 1, 7}
	prices := []float64{1.5, 1.5, 0}
	frame := AppendPriceSnapshotDelta(nil, 9, 3, 1, false, links, prices)
	_, payload, _, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var d PriceSnapshotDelta
	if err := DecodePriceSnapshotDelta(payload, &d); err != nil {
		t.Fatal(err)
	}
	if d.Epoch != 9 || d.Seq != 3 || d.Shard != 1 || d.Reset {
		t.Fatalf("header round trip: %+v", d)
	}
	for i := range links {
		if d.Links[i] != links[i] || d.Prices[i] != prices[i] {
			t.Fatalf("entry %d: got (%d %g)", i, d.Links[i], d.Prices[i])
		}
	}
}

// refDecodeRateDelta is a reference RateDelta decoder written byte by byte
// from the format, sharing no code with RateDeltaDecoder: ok reports whether
// the payload is a complete, canonical frame (minimal varints, minimal
// xor-floats, quantized rates within the cap, no trailing bytes).
func refDecodeRateDelta(p []byte) (seq uint64, quantized bool, entries []RateEntry, ok bool) {
	uvar := func() (uint64, bool) {
		var v uint64
		for i := 0; i < 10 && i < len(p); i++ {
			b := p[i]
			if i == 9 && b > 1 {
				return 0, false // overflows 64 bits
			}
			v |= uint64(b&0x7f) << (7 * i)
			if b < 0x80 {
				if i > 0 && b == 0 {
					return 0, false // non-minimal
				}
				p = p[i+1:]
				return v, true
			}
		}
		return 0, false
	}
	if len(p) == 0 || p[0]&^3 != 0 {
		return 0, false, nil, false
	}
	flags := p[0]
	p = p[1:]
	quantized = flags&1 != 0
	seq, ok = uvar()
	if !ok || seq>>63 != 0 {
		return 0, false, nil, false
	}
	if flags&2 != 0 {
		seq |= StepReplyFlag
	}
	count, ok := uvar()
	if !ok {
		return 0, false, nil, false
	}
	var flow int64
	var rateBits uint64
	for ; count > 0; count-- {
		u, ok := uvar()
		if !ok {
			return 0, false, nil, false
		}
		flow += int64(u>>1) ^ -int64(u&1)
		if quantized {
			q, ok := uvar()
			if !ok || q > 1<<50 {
				return 0, false, nil, false
			}
			entries = append(entries, RateEntry{Flow: flow, Rate: float64(q) * 1e6})
			continue
		}
		if len(p) == 0 || p[0] > 8 || len(p) < 1+int(p[0]) {
			return 0, false, nil, false
		}
		n := int(p[0])
		if n > 0 && p[n] == 0 {
			return 0, false, nil, false
		}
		var x uint64
		for i := n; i >= 1; i-- {
			x = x<<8 | uint64(p[i])
		}
		p = p[1+n:]
		rateBits ^= x
		entries = append(entries, RateEntry{Flow: flow, Rate: math.Float64frombits(rateBits)})
	}
	return seq, quantized, entries, len(p) == 0
}

// streamRateDelta decodes payload entry by entry, as an endpoint does: onto
// the end of dst, which keeps only its first len(dst) entries on an error.
func streamRateDelta(payload []byte, dst []RateEntry) (RateDeltaDecoder, []RateEntry, error) {
	var dec RateDeltaDecoder
	if err := dec.Reset(payload); err != nil {
		return dec, dst, err
	}
	n0 := len(dst)
	for e, ok := dec.Next(); ok; e, ok = dec.Next() {
		dst = append(dst, e)
	}
	if _, ok := dec.Next(); ok {
		panic("Next yielded an entry after reporting the end")
	}
	if err := dec.Err(); err != nil {
		return dec, dst[:n0], err
	}
	return dec, dst, nil
}

// sameEntries compares entries bit for bit (NaN rates included).
func sameEntries(a, b []RateEntry) bool {
	return slices.EqualFunc(a, b, func(x, y RateEntry) bool {
		return x.Flow == y.Flow && math.Float64bits(x.Rate) == math.Float64bits(y.Rate)
	})
}

// TestRateDeltaStreaming drives the entry-at-a-time codec the way the daemon
// and the endpoint use it — one encoder reused for several frames appended
// after other bytes, a decoder appending onto entries already held — over
// random entry lists in both modes, and requires it to agree with
// AppendRateDelta, DecodeRateDelta and a reference decoder byte for byte and
// entry for entry. Every proper prefix of each payload, each payload with a
// trailing byte, and a one-entry payload whose rate is each of badXorFloats
// must be rejected by all three decoders alike, with no entry kept.
func TestRateDeltaStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	specials := []float64{0, math.Copysign(0, -1), 1e9, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64, 0.3e6, 2e21}
	randEntries := func(n int) []RateEntry {
		entries := make([]RateEntry, n)
		for i := range entries {
			switch rng.Intn(4) {
			case 0:
				entries[i].Flow = int64(rng.Uint64())
			default:
				entries[i].Flow = int64(rng.Intn(1 << 20))
			}
			switch rng.Intn(3) {
			case 0:
				entries[i].Rate = specials[rng.Intn(len(specials))]
			case 1:
				entries[i].Rate = math.Float64frombits(rng.Uint64())
			default:
				entries[i].Rate = float64(rng.Intn(10)+1) * 1e9
			}
		}
		return entries
	}
	held := []RateEntry{{Flow: -1, Rate: 1}, {Flow: -2, Rate: 2}}
	for round := 0; round < 200; round++ {
		quantized := round%2 == 1
		frames := make([][]RateEntry, 1+rng.Intn(3))
		for i := range frames {
			frames[i] = randEntries(rng.Intn(40) * rng.Intn(3))
		}
		seqs := []uint64{uint64(round), uint64(round) | StepReplyFlag, 1<<63 - 1}

		prefix := []byte{0xaa, 0xbb}
		want := slices.Clone(prefix)
		got := slices.Clone(prefix)
		var enc RateDeltaEncoder
		for i, entries := range frames {
			seq := seqs[i%len(seqs)]
			want = AppendRateDelta(want, seq, quantized, entries)
			got = enc.Begin(got, seq, quantized, len(entries))
			for _, e := range entries {
				got = enc.Append(got, e.Flow, e.Rate)
			}
			got = enc.End(got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: encoder bytes differ from AppendRateDelta:\n got %x\nwant %x", round, got, want)
		}

		rest := want[len(prefix):]
		for i, entries := range frames {
			typ, payload, next, err := ParseFrame(rest)
			if err != nil || typ != TypeRateDelta {
				t.Fatalf("round %d frame %d: %v %v", round, i, typ, err)
			}
			rest = next
			wantEntries := slices.Clone(entries)
			if quantized {
				for k := range wantEntries {
					wantEntries[k].Rate = dequantizeRate(quantizeRate(wantEntries[k].Rate))
				}
			}
			dec, stream, err := streamRateDelta(payload, slices.Clone(held))
			if err != nil || dec.Seq != seqs[i%len(seqs)] || dec.Quantized != quantized ||
				!sameEntries(stream[:len(held)], held) || !sameEntries(stream[len(held):], wantEntries) {
				t.Fatalf("round %d frame %d: streamed seq %#x quantized %v, %d entries, err %v", round, i, dec.Seq, dec.Quantized, len(stream)-len(held), err)
			}
			var d RateDelta
			if err := DecodeRateDelta(payload, &d); err != nil || !sameEntries(d.Entries, wantEntries) {
				t.Fatalf("round %d frame %d: DecodeRateDelta disagrees: %v", round, i, err)
			}
			if seq, q, ref, ok := refDecodeRateDelta(payload); !ok || seq != dec.Seq || q != quantized || !sameEntries(ref, wantEntries) {
				t.Fatalf("round %d frame %d: reference decoder disagrees (ok %v)", round, i, ok)
			}

			var bad [][]byte
			for n := 0; n < len(payload); n++ {
				bad = append(bad, payload[:n])
			}
			bad = append(bad, append(slices.Clone(payload), 0))
			if !quantized && len(entries) > 0 {
				// A one-entry frame with a zero rate ends in the rate's one
				// byte; replace it by each malformed xor-float.
				one := AppendRateDelta(nil, dec.Seq, false, []RateEntry{{Flow: entries[0].Flow}})[HeaderBytes:]
				for _, x := range badXorFloats {
					bad = append(bad, slices.Concat(one[:len(one)-1], x.p))
				}
			}
			for _, b := range bad {
				_, stream, err := streamRateDelta(b, slices.Clone(held))
				if err == nil || !sameEntries(stream, held) {
					t.Fatalf("round %d frame %d: streamed malformed payload %x: err %v, %d entries kept", round, i, b, err, len(stream))
				}
				if err := DecodeRateDelta(b, &RateDelta{}); err == nil {
					t.Fatalf("round %d frame %d: DecodeRateDelta accepted malformed payload %x", round, i, b)
				}
				if _, _, _, ok := refDecodeRateDelta(b); ok {
					t.Fatalf("round %d frame %d: reference decoder accepted malformed payload %x", round, i, b)
				}
			}
		}
	}
}

// TestRateDeltaEncoderCountsEntries: a frame whose entries do not match the
// count Begin wrote would desynchronize the stream, so End refuses it.
func TestRateDeltaEncoderCountsEntries(t *testing.T) {
	for _, appended := range []int{1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("End accepted %d entries in a frame declaring 2", appended)
				}
			}()
			var enc RateDeltaEncoder
			buf := enc.Begin(nil, 1, false, 2)
			for i := 0; i < appended; i++ {
				buf = enc.Append(buf, int64(i), 1e9)
			}
			enc.End(buf)
		}()
	}
}

// TestDeltaTruncation feeds every proper payload prefix of valid delta
// frames to the decoders: all must error, none may panic.
func TestDeltaTruncation(t *testing.T) {
	rd := AppendRateDelta(nil, 1, false, []RateEntry{{Flow: 1, Rate: 1e9}, {Flow: 2, Rate: 2e9}})
	dd := AppendPriceDigestDelta(nil, 1, 0, false, []uint32{3, 5}, []float64{1, 2}, []float64{3, 4})
	sd := AppendPriceSnapshotDelta(nil, 1, 2, 0, true, []uint32{3, 5}, []float64{1, 2})
	for name, frame := range map[string][]byte{"rate": rd, "digest": dd, "snapshot": sd} {
		payload := frame[HeaderBytes:]
		for n := 0; n < len(payload); n++ {
			var err error
			switch name {
			case "rate":
				err = DecodeRateDelta(payload[:n], &RateDelta{})
			case "digest":
				err = DecodePriceDigestDelta(payload[:n], &PriceDigestDelta{})
			case "snapshot":
				err = DecodePriceSnapshotDelta(payload[:n], &PriceSnapshotDelta{})
			}
			if err == nil {
				t.Fatalf("%s: %d-byte prefix of %d-byte payload decoded without error", name, n, len(payload))
			}
		}
	}
}

// TestFlowletAddSized pins the 24/32-byte dual forms.
func TestFlowletAddSized(t *testing.T) {
	plain := AppendFlowletAdd(nil, FlowletAdd{Flow: 1, Src: 2, Dst: 3, Weight: 1})
	if len(plain) != HeaderBytes+addLen {
		t.Fatalf("plain add is %d bytes, want %d", len(plain), HeaderBytes+addLen)
	}
	sized := AppendFlowletAdd(nil, FlowletAdd{Flow: 1, Src: 2, Dst: 3, Weight: 1, Size: 1 << 16})
	if len(sized) != HeaderBytes+addSizedLen {
		t.Fatalf("sized add is %d bytes, want %d", len(sized), HeaderBytes+addSizedLen)
	}
	m, err := DecodeFlowletAdd(sized[HeaderBytes:])
	if err != nil || m.Size != 1<<16 {
		t.Fatalf("sized decode: %+v %v", m, err)
	}
	// A zero size in the 32-byte form is non-canonical and must be rejected.
	bad := append([]byte(nil), sized[HeaderBytes:]...)
	for i := 24; i < 32; i++ {
		bad[i] = 0
	}
	if _, err := DecodeFlowletAdd(bad); err == nil {
		t.Fatal("zero-size 32-byte add decoded without error")
	}
}

// churnTraces builds the two BenchmarkWireEncode workloads: a slow-moving
// price trace (most links unchanged per iteration, the common steady state)
// and an incast rate storm (every flow's rate moves every iteration, but
// toward the same fair share).
func churnRates(n int, storm bool, rng *rand.Rand) (prev, next []RateEntry) {
	prev = make([]RateEntry, n)
	next = make([]RateEntry, n)
	for i := range prev {
		prev[i] = RateEntry{Flow: int64(i * 3), Rate: 1e9}
		next[i] = prev[i]
	}
	if storm {
		share := 1e10 / float64(n)
		for i := range next {
			next[i].Rate = share
		}
	} else {
		for i := 0; i < n/50+1; i++ {
			next[rng.Intn(n)].Rate = 1e9 * (1 + rng.Float64()/100)
		}
	}
	return prev, next
}

// BenchmarkWireEncode measures delta encoding on realistic churn traces,
// reporting bytes per iteration (the fixed-v3 cost of the full rate set is
// RateBatchSize(flows) = 65 552 bytes either way).
func BenchmarkWireEncode(b *testing.B) {
	const flows = 4096
	for _, bench := range []struct {
		name  string
		storm bool
	}{
		{"slow-prices", false},
		{"incast-storm", true},
	} {
		rng := rand.New(rand.NewSource(1))
		prev, next := churnRates(flows, bench.storm, rng)
		// Only entries whose rate changed since the last batch are sent.
		changed := make([]RateEntry, 0, flows)
		for i := range next {
			if next[i].Rate != prev[i].Rate {
				changed = append(changed, next[i])
			}
		}
		b.Run(bench.name+"/v4-delta", func(b *testing.B) {
			buf := make([]byte, 0, RateBatchSize(flows))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = AppendRateDelta(buf[:0], uint64(i), false, changed)
			}
			b.ReportMetric(float64(len(buf)), "bytes/iter")
		})
		b.Run(bench.name+"/v4-delta-quantized", func(b *testing.B) {
			buf := make([]byte, 0, RateBatchSize(flows))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = AppendRateDelta(buf[:0], uint64(i), true, changed)
			}
			b.ReportMetric(float64(len(buf)), "bytes/iter")
		})
	}
}
