package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// errTimeout stands in for a net.Conn read-deadline error: transient, the
// caller retries.
var errTimeout = errors.New("i/o timeout (transient)")

// fragReader serves data in chunks whose sizes cycle 1, 2, …, maxChunk, and
// fails every errEvery-th Read (0 = never) with errTimeout and no bytes — a
// slow connection polled with read deadlines. With maxChunk 1 and errEvery 2
// a timeout lands between every two bytes: mid-header and mid-payload of
// every frame.
type fragReader struct {
	data     []byte
	maxChunk int
	errEvery int
	chunk    int
	reads    int
}

func (r *fragReader) Read(p []byte) (int, error) {
	r.reads++
	if r.errEvery > 0 && r.reads%r.errEvery == 0 {
		return 0, errTimeout
	}
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	r.chunk = r.chunk%r.maxChunk + 1
	n := copy(p[:min(r.chunk, len(p))], r.data)
	r.data = r.data[n:]
	return n, nil
}

// checkScanMatchesParse requires a Scanner over r (which serves stream),
// retried through every transient error, to yield exactly the frames
// ParseFrame splits off stream, and to end the way ParseFrame does: io.EOF
// after a whole number of frames, io.ErrUnexpectedEOF where the stream stops
// mid-frame, some other error at a malformed header. Between frames the
// scanner's burst-boundary report must agree with ParseFrame too: Buffered
// exactly when the bytes read but not yet handed out start with a whole frame
// (or a malformed header), and a Next after Buffered issues no Read.
func checkScanMatchesParse(t *testing.T, stream []byte, r *fragReader) {
	t.Helper()
	sc := NewScanner(r)
	rest := stream
	for frame := 0; ; frame++ {
		wantType, wantPayload, after, perr := ParseFrame(rest)
		unread := rest[:len(rest)-len(r.data)]
		_, _, _, uerr := ParseFrame(unread)
		buffered, reads := sc.Buffered(), r.reads
		if buffered != (uerr != ErrShortFrame) {
			t.Fatalf("frame %d: Buffered() = %v with %d unread bytes that ParseFrame answers with %v", frame, buffered, len(unread), uerr)
		}
		gotType, gotPayload, serr := sc.Next()
		for serr == errTimeout {
			gotType, gotPayload, serr = sc.Next()
		}
		if buffered && r.reads != reads {
			t.Fatalf("frame %d: Next issued %d Reads after Buffered() reported a frame ready", frame, r.reads-reads)
		}
		switch {
		case perr == nil:
			if serr != nil {
				t.Fatalf("frame %d: scanner failed with %v where the parser produced %s", frame, serr, wantType)
			}
			if gotType != wantType || !bytes.Equal(gotPayload, wantPayload) {
				t.Fatalf("frame %d: scanner %s (%d bytes) != parser %s (%d bytes)", frame, gotType, len(gotPayload), wantType, len(wantPayload))
			}
		case perr != ErrShortFrame:
			if serr == nil || serr == io.EOF || serr == io.ErrUnexpectedEOF {
				t.Fatalf("frame %d: scanner returned %s, %v where the parser failed with %v", frame, gotType, serr, perr)
			}
			return
		case len(rest) == 0:
			if serr != io.EOF {
				t.Fatalf("end of stream after %d frames: scanner returned %s, %v; want io.EOF", frame, gotType, serr)
			}
			return
		default:
			if serr != io.ErrUnexpectedEOF {
				t.Fatalf("stream cut mid-frame %d: scanner returned %s, %v; want io.ErrUnexpectedEOF", frame, gotType, serr)
			}
			return
		}
		rest = after
	}
}

// stepBurst is what an endpoint writes per Step under heavy churn: n flowlet
// ends and n sized starts, then the Step — 2n+1 frames in one Write.
func stepBurst(n int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		buf = AppendFlowletEnd(buf, FlowletEnd{Flow: int64(i)})
		buf = AppendFlowletAdd(buf, FlowletAdd{Flow: int64(n + i), Src: int32(i % 1024), Dst: int32((i + 7) % 1024), Weight: 1, Size: 1 << 20})
	}
	return AppendStep(buf, Step{Seq: 1})
}

// fullRateDelta is a RateDelta frame with MaxRateDeltaEntries entries — the
// largest chunk the daemon emits, megabytes against the scanner's 64 KB.
func fullRateDelta() []byte {
	entries := make([]RateEntry, MaxRateDeltaEntries)
	for i := range entries {
		entries[i] = RateEntry{Flow: int64(3 * i), Rate: 1e9 + float64(i)}
	}
	return AppendRateDelta(nil, 7, false, entries)
}

// TestScannerMatchesParseFrame is the scanner's contract under fragmentation:
// whatever the read boundaries, and through timeouts injected mid-header and
// mid-payload, it yields ParseFrame's frame sequence; a stream cut mid-frame
// is an unexpected EOF and a malformed header fails where ParseFrame fails.
func TestScannerMatchesParseFrame(t *testing.T) {
	var mixed []byte
	mixed = AppendWelcome(mixed, Welcome{Version: Version, Epoch: 5, IntervalNanos: 123})
	mixed = AppendRateDelta(mixed, 9, false, []RateEntry{{Flow: 3, Rate: 1e9}, {Flow: 4, Rate: 2e9}})
	mixed = AppendRateDelta(mixed, 4, false, nil)
	mixed = AppendFlowletEnd(mixed, FlowletEnd{Flow: 3})
	burst := stepBurst(300)
	// Larger than the scanner's buffer: delivered whole, the buffer fills
	// mid-frame, mid-burst.
	twoBuffers := stepBurst(2000)
	if len(twoBuffers) <= scanBufBytes {
		t.Fatalf("two-buffer burst is only %d bytes", len(twoBuffers))
	}
	big := append(fullRateDelta(), AppendStep(nil, Step{Seq: 2})...)
	if len(big) <= 4*scanBufBytes {
		t.Fatalf("oversized-frame stream is only %d bytes", len(big))
	}

	streams := []struct {
		name   string
		stream []byte
		slow   bool // too long for byte-at-a-time delivery
	}{
		{name: "mixed", stream: mixed},
		{name: "burst", stream: burst},
		{name: "burst filling the buffer mid-frame", stream: twoBuffers, slow: true},
		{name: "oversized frame", stream: big, slow: true},
		{name: "cut mid-header", stream: mixed[:len(mixed)-endLen-2]},
		{name: "cut mid-payload", stream: mixed[:len(mixed)-3]},
		{name: "cut in an oversized frame", stream: big[:len(big)/2], slow: true},
		{name: "unknown type", stream: append(append([]byte(nil), burst...), 0xEE, 0, 0, 0)},
		{name: "reserved type", stream: append(append([]byte(nil), burst...), byte(reservedRateBatch), 12, 0, 0)},
		{name: "impossible fixed length", stream: append(appendHeader(append([]byte(nil), mixed...), TypeStep, stepLen+1), make([]byte, stepLen+1)...)},
	}
	deliveries := []struct {
		name               string
		maxChunk, errEvery int
		slow               bool
	}{
		{name: "byte by byte, timeout between bytes", maxChunk: 1, errEvery: 2, slow: true},
		{name: "1..7-byte chunks", maxChunk: 7, slow: true},
		{name: "1..7-byte chunks, every third read times out", maxChunk: 7, errEvery: 3, slow: true},
		{name: "1..9000-byte chunks, every fifth read times out", maxChunk: 9000, errEvery: 5},
		{name: "whole stream", maxChunk: 1 << 30},
	}
	for _, st := range streams {
		for _, d := range deliveries {
			if st.slow && d.slow {
				continue
			}
			t.Run(st.name+"/"+d.name, func(t *testing.T) {
				checkScanMatchesParse(t, st.stream, &fragReader{data: st.stream, maxChunk: d.maxChunk, errEvery: d.errEvery})
			})
		}
	}
}

// countingReader counts Read calls on a stream that, like a socket holding a
// burst, returns as much as the caller has room for.
type countingReader struct {
	r     bytes.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestScannerReadsPerBurst pins the point of the buffer: a 4 001-frame burst
// that arrived in one piece costs about one Read per buffer-full, not two per
// frame.
func TestScannerReadsPerBurst(t *testing.T) {
	burst := stepBurst(2000)
	var cr countingReader
	cr.r.Reset(burst)
	sc := NewScanner(&cr)
	for frame := 0; frame < 4001; frame++ {
		if _, _, err := sc.Next(); err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
	}
	if limit := (len(burst)+scanBufBytes-1)/scanBufBytes + 1; cr.reads > limit {
		t.Fatalf("%d-byte burst of 4001 frames took %d Reads; want at most %d", len(burst), cr.reads, limit)
	}
}

// TestScannerBoundsHostileHeader checks what a header alone can make the
// scanner reserve: nothing beyond the standing buffer. A fixed-size type with
// an impossible length is refused before a payload byte is awaited, and a
// variable-size frame's declared length only grows the buffer as its bytes
// actually arrive.
func TestScannerBoundsHostileHeader(t *testing.T) {
	bad := appendHeader(nil, TypeFlowletEnd, MaxPayload)
	if _, _, _, err := ParseFrame(bad); err == nil || err == ErrShortFrame {
		t.Fatalf("ParseFrame on a 16 MB flowlet-end header: %v; want a malformed-frame error", err)
	}
	sc := NewScanner(&fragReader{data: bad, maxChunk: len(bad)})
	if _, _, err := sc.Next(); err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		t.Fatalf("scanner on a 16 MB flowlet-end header: %v; want a malformed-frame error", err)
	}

	// A 16 MB rate-delta header, then 100 KB of payload, then silence.
	const sent = 100 << 10
	stream := append(appendHeader(nil, TypeRateDelta, MaxPayload), make([]byte, sent)...)
	r := &fragReader{data: stream, maxChunk: len(stream)}
	sc = NewScanner(r)
	if _, _, err := sc.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("scanner on a truncated 16 MB frame: %v; want io.ErrUnexpectedEOF", err)
	}
	if got, limit := cap(sc.buf), 2*(HeaderBytes+sent); got > limit {
		t.Fatalf("scanner holds a %d-byte buffer after %d bytes arrived; want at most %d", got, HeaderBytes+sent, limit)
	}
}

// BenchmarkScannerBurst measures taking in one churn-step burst (2 000 ends,
// 2 000 sized starts, one Step) that is already waiting on the stream.
func BenchmarkScannerBurst(b *testing.B) {
	burst := stepBurst(2000)
	var cr countingReader
	sc := NewScanner(&cr)
	scan := func() {
		cr.r.Reset(burst)
		for frame := 0; frame < 4001; frame++ {
			if _, _, err := sc.Next(); err != nil {
				b.Fatal(err)
			}
		}
	}
	scan() // allocates the buffer
	cr.reads = 0
	b.SetBytes(int64(len(burst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/4001, "ns/frame")
	b.ReportMetric(float64(cr.reads)/float64(b.N), "reads/burst")
}
