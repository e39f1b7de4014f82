package wire

import (
	"bytes"
	"io"
	"math"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{Version: Version, ClientID: 0xdeadbeefcafe}
	typ, payload, rest, err := ParseFrame(AppendHello(nil, in))
	if err != nil || typ != TypeHello || len(rest) != 0 {
		t.Fatalf("ParseFrame = %v, rest %d bytes, err %v", typ, len(rest), err)
	}
	out, err := DecodeHello(payload)
	if err != nil || out != in {
		t.Fatalf("DecodeHello = %+v, %v; want %+v", out, err, in)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	in := Welcome{Version: Version, Epoch: 7, IntervalNanos: 10_000}
	_, payload, _, err := ParseFrame(AppendWelcome(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeWelcome(payload)
	if err != nil || out != in {
		t.Fatalf("DecodeWelcome = %+v, %v; want %+v", out, err, in)
	}
}

func TestFlowletFramesRoundTrip(t *testing.T) {
	add := FlowletAdd{Flow: -12345, Src: 3, Dst: 141, Weight: 2.5}
	end := FlowletEnd{Flow: 1 << 60}
	step := Step{Seq: 42}

	var buf []byte
	buf = AppendFlowletAdd(buf, add)
	buf = AppendFlowletEnd(buf, end)
	buf = AppendStep(buf, step)

	typ, p, rest, err := ParseFrame(buf)
	if err != nil || typ != TypeFlowletAdd {
		t.Fatalf("frame 1: %v, %v", typ, err)
	}
	if got, err := DecodeFlowletAdd(p); err != nil || got != add {
		t.Fatalf("DecodeFlowletAdd = %+v, %v", got, err)
	}
	typ, p, rest, err = ParseFrame(rest)
	if err != nil || typ != TypeFlowletEnd {
		t.Fatalf("frame 2: %v, %v", typ, err)
	}
	if got, err := DecodeFlowletEnd(p); err != nil || got != end {
		t.Fatalf("DecodeFlowletEnd = %+v, %v", got, err)
	}
	typ, p, rest, err = ParseFrame(rest)
	if err != nil || typ != TypeStep || len(rest) != 0 {
		t.Fatalf("frame 3: %v, %v, rest %d", typ, err, len(rest))
	}
	if got, err := DecodeStep(p); err != nil || got != step {
		t.Fatalf("DecodeStep = %+v, %v", got, err)
	}
}

func TestRateBatchRoundTrip(t *testing.T) {
	entries := []RateEntry{
		{Flow: 1, Rate: 5e9},
		{Flow: 99, Rate: 0},
		{Flow: -7, Rate: math.Inf(1)},
	}
	_, p, _, err := ParseFrame(AppendRateBatch(nil, 17, entries))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeRateBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seq != 17 || b.Len() != len(entries) {
		t.Fatalf("Seq %d Len %d; want 17, %d", b.Seq, b.Len(), len(entries))
	}
	for i, want := range entries {
		if got := b.Entry(i); got != want {
			t.Fatalf("Entry(%d) = %+v; want %+v", i, got, want)
		}
	}
}

func TestRateBatchIncrementalMatchesWhole(t *testing.T) {
	entries := []RateEntry{{Flow: 5, Rate: 1e9}, {Flow: 6, Rate: 2e9}}
	whole := AppendRateBatch(nil, 3, entries)
	inc := AppendRateBatchHeader(nil, 3, len(entries))
	for _, e := range entries {
		inc = AppendRateEntry(inc, e)
	}
	if !bytes.Equal(whole, inc) {
		t.Fatalf("incremental encoding differs:\n%x\n%x", whole, inc)
	}
}

func TestDecodeRejectsWrongLengths(t *testing.T) {
	if _, err := DecodeHello(make([]byte, 3)); err == nil {
		t.Error("DecodeHello accepted a short payload")
	}
	if _, err := DecodeFlowletAdd(make([]byte, 25)); err == nil {
		t.Error("DecodeFlowletAdd accepted a long payload")
	}
	if _, err := DecodeRateBatch(nil); err == nil {
		t.Error("DecodeRateBatch accepted an empty payload")
	}
	// Batch header declaring more entries than the payload holds.
	p := AppendRateBatch(nil, 1, []RateEntry{{Flow: 1, Rate: 1}})
	p[HeaderBytes+8] = 2 // count field
	if _, err := DecodeRateBatch(p[HeaderBytes:]); err == nil {
		t.Error("DecodeRateBatch accepted a count/length mismatch")
	}
}

func TestParseFrameErrors(t *testing.T) {
	if _, _, _, err := ParseFrame([]byte{byte(TypeHello), 10}); err != ErrShortFrame {
		t.Errorf("truncated header: err = %v; want ErrShortFrame", err)
	}
	if _, _, _, err := ParseFrame(appendHeader(nil, TypeHello, 10)); err != ErrShortFrame {
		t.Errorf("truncated payload: err = %v; want ErrShortFrame", err)
	}
	if _, _, _, err := ParseFrame([]byte{0xEE, 0, 0, 0}); err == nil {
		t.Error("unknown frame type accepted")
	}
}

func TestScanner(t *testing.T) {
	var buf []byte
	buf = AppendHello(buf, Hello{Version: 1, ClientID: 2})
	buf = AppendStep(buf, Step{Seq: 9})
	buf = AppendRateBatch(buf, 9, []RateEntry{{Flow: 4, Rate: 2.5e9}})

	sc := NewScanner(bytes.NewReader(buf))
	typ, _, err := sc.Next()
	if err != nil || typ != TypeHello {
		t.Fatalf("frame 1: %v, %v", typ, err)
	}
	typ, p, err := sc.Next()
	if err != nil || typ != TypeStep {
		t.Fatalf("frame 2: %v, %v", typ, err)
	}
	if s, _ := DecodeStep(p); s.Seq != 9 {
		t.Fatalf("step seq = %d", s.Seq)
	}
	typ, p, err = sc.Next()
	if err != nil || typ != TypeRateBatch {
		t.Fatalf("frame 3: %v, %v", typ, err)
	}
	if b, _ := DecodeRateBatch(p); b.Len() != 1 || b.Entry(0).Flow != 4 {
		t.Fatalf("batch = %+v", b)
	}
	if _, _, err := sc.Next(); err != io.EOF {
		t.Fatalf("EOF: %v", err)
	}
	// A stream ending mid-frame is an unexpected EOF.
	sc = NewScanner(bytes.NewReader(buf[:len(buf)-3]))
	var lastErr error
	for lastErr == nil {
		_, _, lastErr = sc.Next()
	}
	if lastErr != io.ErrUnexpectedEOF {
		t.Fatalf("mid-frame EOF: %v", lastErr)
	}
}

func TestAppendersDoNotAllocateSteadyState(t *testing.T) {
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		buf = AppendFlowletAdd(buf, FlowletAdd{Flow: 1, Src: 2, Dst: 3, Weight: 1})
		buf = AppendFlowletEnd(buf, FlowletEnd{Flow: 1})
		buf = AppendRateBatchHeader(buf, 1, 2)
		buf = AppendRateEntry(buf, RateEntry{Flow: 1, Rate: 1e9})
		buf = AppendRateEntry(buf, RateEntry{Flow: 2, Rate: 2e9})
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode allocates %v times per run", allocs)
	}
}
