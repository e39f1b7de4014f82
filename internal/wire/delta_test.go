package wire

import (
	"math"
	"math/rand"
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
