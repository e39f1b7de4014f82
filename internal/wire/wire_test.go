package wire

import (
	"bytes"
	"io"
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

func TestDecodeRejectsWrongLengths(t *testing.T) {
	if _, err := DecodeHello(make([]byte, 3)); err == nil {
		t.Error("DecodeHello accepted a short payload")
	}
	if _, err := DecodeFlowletAdd(make([]byte, 25)); err == nil {
		t.Error("DecodeFlowletAdd accepted a long payload")
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
	// 6 and 9 were RateBatch and PriceDigest in generations 1-3: reserved,
	// and refused from the header alone, before any payload is awaited.
	for _, reserved := range []byte{6, 9} {
		if _, _, _, err := ParseFrame([]byte{reserved, 16, 0, 0}); err == nil || err == ErrShortFrame {
			t.Errorf("reserved frame type %d: err = %v; want an unknown-type error", reserved, err)
		}
	}
}

func TestScanner(t *testing.T) {
	var buf []byte
	buf = AppendHello(buf, Hello{Version: Version, ClientID: 2})
	buf = AppendStep(buf, Step{Seq: 9})
	buf = AppendRateDelta(buf, 9, false, []RateEntry{{Flow: 4, Rate: 2.5e9}})

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
	if err != nil || typ != TypeRateDelta {
		t.Fatalf("frame 3: %v, %v", typ, err)
	}
	var d RateDelta
	if err := DecodeRateDelta(p, &d); err != nil || len(d.Entries) != 1 || d.Entries[0].Flow != 4 {
		t.Fatalf("rate delta = %+v, %v", d, err)
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
	entries := []RateEntry{{Flow: 1, Rate: 1e9}, {Flow: 2, Rate: 2e9}}
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		buf = AppendFlowletAdd(buf, FlowletAdd{Flow: 1, Src: 2, Dst: 3, Weight: 1})
		buf = AppendFlowletEnd(buf, FlowletEnd{Flow: 1})
		buf = AppendRateDelta(buf, 1, false, entries)
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode allocates %v times per run", allocs)
	}
}
