package wire

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// xorChain returns n float64 values whose successive xor-float deltas (the
// first against zero) have significant-byte lengths lens[0], lens[1], ... in
// order: the inputs of the golden frames below, which between them exercise
// every xor-float length 0-8.
func xorChain(t *testing.T, lens []int) []float64 {
	t.Helper()
	out := make([]float64, len(lens))
	var prev uint64
	for i, n := range lens {
		var x uint64
		if n > 0 {
			// A top byte of 0x80|n and 0x5a below it: n significant bytes.
			x = uint64(0x80|n) << (8 * uint(n-1))
			for b := 0; b < n-1; b++ {
				x |= 0x5a << (8 * uint(b))
			}
		}
		if got := (bits.Len64(x) + 7) / 8; got != n {
			t.Fatalf("xorChain: mask %#x has %d significant bytes, want %d", x, got, n)
		}
		prev ^= x
		out[i] = math.Float64frombits(prev)
	}
	return out
}

// goldenLens orders the xor-float lengths of every golden frame: each of 0-8
// once, unsorted, with the 8-byte value last so it ends the payload (the
// decoder's word load then has exactly the nine bytes it needs).
var goldenLens = []int{3, 0, 7, 1, 5, 2, 6, 4, 8}

// The golden frames' exact bytes. They pin the delta codecs' output against
// any rewrite of the xor-float coder: a change here is a wire-format change.
const (
	goldenRateDeltaHex = "0f47000002090950035a5a8349001c075a5a5a5a5a5a87deffffffff3f0181fbffffffff3f055a5a5a5a85c201025a82bb01065a5a5a5a5a86c60f045a5a5a84c10f085a5a5a5a5a5a5a88"
	goldenDigestHex    = "10670000012a03090e00035a5a830b085a5a5a5a5a5a5a8800100181075a5a5a5a5a5a870b075a5a5a5a5a5a87018102025a82055a5a5a5a8510065a5a5a5a5a86025a8217035a5a83065a5a5a5a5a8616055a5a5a5a85045a5a5a8411045a5a5a84085a5a5a5a5a5a5a88"
	goldenSnapshotHex  = "113b000000070b0d0912035a5a8310001b075a5a5a5a5a5a870301810a055a5a5a5a8512025a8201065a5a5a5a5a8603045a5a5a8403085a5a5a5a5a5a5a88"
)

// TestDeltaGoldenBytes pins the lossless RateDelta, PriceDigestDelta and
// PriceSnapshotDelta encodings byte for byte on unsorted IDs and links with
// xor-float lengths 0-8, and decodes them back bit-exactly.
func TestDeltaGoldenBytes(t *testing.T) {
	rates := xorChain(t, goldenLens)
	flows := []int64{40, 3, 17, 1 << 40, 2, 99, 5, 1000, 7}
	entries := make([]RateEntry, len(flows))
	for i := range flows {
		entries[i] = RateEntry{Flow: flows[i], Rate: rates[i]}
	}
	rd := AppendRateDelta(nil, 9|StepReplyFlag, false, entries)
	checkGolden(t, "RateDelta", rd, goldenRateDeltaHex)
	var d RateDelta
	if err := DecodeRateDelta(rd[HeaderBytes:], &d); err != nil {
		t.Fatalf("RateDelta: %v", err)
	}
	for i, e := range entries {
		if d.Entries[i].Flow != e.Flow || math.Float64bits(d.Entries[i].Rate) != math.Float64bits(e.Rate) {
			t.Fatalf("RateDelta entry %d: got %+v, want %+v", i, d.Entries[i], e)
		}
	}

	// The digest interleaves two chains; the hdiag chain's 8-byte value is
	// the payload's last.
	links := []uint32{7, 1, 9, 3, 4, 12, 0, 11, 2}
	loads := xorChain(t, []int{0, 8, 1, 7, 2, 6, 3, 5, 4})
	hdiag := xorChain(t, goldenLens)
	dd := AppendPriceDigestDelta(nil, 42, 3, true, links, loads, hdiag)
	checkGolden(t, "PriceDigestDelta", dd, goldenDigestHex)
	var dg PriceDigestDelta
	if err := DecodePriceDigestDelta(dd[HeaderBytes:], &dg); err != nil {
		t.Fatalf("PriceDigestDelta: %v", err)
	}
	for i := range links {
		if dg.Links[i] != links[i] || math.Float64bits(dg.Loads[i]) != math.Float64bits(loads[i]) ||
			math.Float64bits(dg.Hdiag[i]) != math.Float64bits(hdiag[i]) {
			t.Fatalf("PriceDigestDelta entry %d: got (%d %x %x)", i, dg.Links[i], dg.Loads[i], dg.Hdiag[i])
		}
	}

	prices := xorChain(t, goldenLens)
	sd := AppendPriceSnapshotDelta(nil, 7, 11, 13, false, []uint32{9, 17, 3, 1, 6, 15, 14, 12, 10}, prices)
	checkGolden(t, "PriceSnapshotDelta", sd, goldenSnapshotHex)
	var sn PriceSnapshotDelta
	if err := DecodePriceSnapshotDelta(sd[HeaderBytes:], &sn); err != nil {
		t.Fatalf("PriceSnapshotDelta: %v", err)
	}
	for i := range prices {
		if math.Float64bits(sn.Prices[i]) != math.Float64bits(prices[i]) {
			t.Fatalf("PriceSnapshotDelta entry %d: got %x, want %x", i, sn.Prices[i], prices[i])
		}
	}
}

func checkGolden(t *testing.T, what string, got []byte, wantHex string) {
	t.Helper()
	want, err := hex.DecodeString(wantHex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s bytes moved:\n got %x\nwant %x", what, got, want)
	}
}

// TestXorFloatBoundaries drives the xor-float coder at the edges a
// word-at-a-time implementation must respect: values at the very end of a
// payload (fewer than eight bytes after the length byte), values followed by
// unrelated bytes that must not leak into the decoded word, and the
// rejections — length > 8, truncation, a zero top byte.
func TestXorFloatBoundaries(t *testing.T) {
	const prev = 0x0123456789abcdef
	tail := []byte{0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee, 0xee}
	for _, tc := range []struct {
		name string
		p    []byte
		x    uint64 // decoded xor against prev
		n    int    // bytes consumed
	}{
		{"zero-at-end", []byte{0}, 0, 1},
		{"zero-before-tail", append([]byte{0}, tail...), 0, 1},
		{"one-at-end", []byte{1, 0x7f}, 0x7f, 2},
		{"three-at-end", []byte{3, 0x01, 0x02, 0x03}, 0x030201, 4},
		{"seven-at-end", []byte{7, 1, 2, 3, 4, 5, 6, 7}, 0x07060504030201, 8},
		{"eight-at-end", []byte{8, 1, 2, 3, 4, 5, 6, 7, 8}, 0x0807060504030201, 9},
		{"two-before-tail", append([]byte{2, 0x01, 0x02}, tail...), 0x0201, 3},
		{"seven-before-tail", append([]byte{7, 1, 2, 3, 4, 5, 6, 7}, tail...), 0x07060504030201, 8},
		{"eight-before-tail", append([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8}, tail...), 0x0807060504030201, 9},
	} {
		got, n, err := xorFloat(tc.p, prev)
		if err != nil || got != prev^tc.x || n != tc.n {
			t.Errorf("%s: xorFloat = (%#x, %d, %v), want (%#x, %d, nil)", tc.name, got, n, err, prev^tc.x, tc.n)
			continue
		}
		// The encoder must emit exactly the consumed bytes, after whatever
		// the buffer already held.
		enc := appendXorFloat([]byte{0xaa}, prev^tc.x, prev)
		if !bytes.Equal(enc, append([]byte{0xaa}, tc.p[:n]...)) {
			t.Errorf("%s: appendXorFloat = %x, want aa%x", tc.name, enc, tc.p[:n])
		}
	}
	for _, tc := range []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"length-9", append([]byte{9}, tail...)},
		{"length-255", append([]byte{255}, tail...)},
		{"truncated-1", []byte{1}},
		{"truncated-3", []byte{3, 1, 2}},
		{"truncated-8", []byte{8, 1, 2, 3, 4, 5, 6, 7}},
		{"non-minimal-1", []byte{1, 0}},
		{"non-minimal-3-at-end", []byte{3, 1, 2, 0}},
		{"non-minimal-3-before-tail", append([]byte{3, 1, 2, 0}, tail...)},
		{"non-minimal-8-at-end", []byte{8, 1, 2, 3, 4, 5, 6, 7, 0}},
		{"non-minimal-8-before-tail", append([]byte{8, 1, 2, 3, 4, 5, 6, 7, 0}, tail...)},
	} {
		if got, n, err := xorFloat(tc.p, prev); err == nil {
			t.Errorf("%s: xorFloat(%x) = (%#x, %d), want an error", tc.name, tc.p, got, n)
		}
	}
	// Every length on random values: encode then decode at the payload's end
	// and mid-payload, against a shifting prev.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p, v := rng.Uint64(), rng.Uint64()>>(8*uint(rng.Intn(9)))
		enc := appendXorFloat(nil, p^v, p)
		for _, buf := range [][]byte{enc, append(enc, tail...)} {
			got, n, err := xorFloat(buf, p)
			if err != nil || got != p^v || n != len(enc) {
				t.Fatalf("xorFloat(%x) = (%#x, %d, %v), want (%#x, %d)", buf, got, n, err, p^v, len(enc))
			}
		}
	}
}

// BenchmarkWireDecode measures delta decoding of the BenchmarkWireEncode
// frames into a reused RateDelta (0 allocs/op once its entries have grown).
func BenchmarkWireDecode(b *testing.B) {
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
		changed := make([]RateEntry, 0, flows)
		for i := range next {
			if next[i].Rate != prev[i].Rate {
				changed = append(changed, next[i])
			}
		}
		for _, quantized := range []bool{false, true} {
			name := bench.name + "/v4-delta"
			if quantized {
				name += "-quantized"
			}
			payload := AppendRateDelta(nil, 1, quantized, changed)[HeaderBytes:]
			b.Run(name, func(b *testing.B) {
				var d RateDelta
				if err := DecodeRateDelta(payload, &d); err != nil { // grow d.Entries
					b.Fatal(err)
				}
				b.ResetTimer()
				b.ReportAllocs()
				b.SetBytes(int64(len(payload)))
				for i := 0; i < b.N; i++ {
					if err := DecodeRateDelta(payload, &d); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(d.Entries)), "entries/iter")
			})
		}
	}
}
