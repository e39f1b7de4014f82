package wire

import "testing"

func TestEpochNotifyRoundTrip(t *testing.T) {
	in := EpochNotify{Epoch: 1 << 40}
	typ, p, rest, err := ParseFrame(AppendEpochNotify(nil, in))
	if err != nil || typ != TypeEpochNotify || len(rest) != 0 {
		t.Fatalf("ParseFrame = %v, rest %d, err %v", typ, len(rest), err)
	}
	out, err := DecodeEpochNotify(p)
	if err != nil || out != in {
		t.Fatalf("DecodeEpochNotify = %+v, %v; want %+v", out, err, in)
	}
	if _, err := DecodeEpochNotify(p[:4]); err == nil {
		t.Fatal("short epoch-notify payload must be rejected")
	}
}

func TestPeerHelloRoundTrip(t *testing.T) {
	in := PeerHello{Version: Version, Shard: 3, NumShards: 8, Epoch: 11}
	typ, p, _, err := ParseFrame(AppendPeerHello(nil, in))
	if err != nil || typ != TypePeerHello {
		t.Fatalf("ParseFrame = %v, err %v", typ, err)
	}
	out, err := DecodePeerHello(p)
	if err != nil || out != in {
		t.Fatalf("DecodePeerHello = %+v, %v; want %+v", out, err, in)
	}
	if _, err := DecodePeerHello(p[:peerHelloLen-1]); err == nil {
		t.Fatal("short peer-hello payload must be rejected")
	}
}

func TestPriceSnapshotRoundTrip(t *testing.T) {
	entries := []SnapshotEntry{
		{Link: 7, Price: 1},
		{Link: 8, Price: 0},
		{Link: 9, Price: 123.456},
	}
	buf := AppendPriceSnapshotHeader(nil, 5, 17, 1, len(entries))
	for _, e := range entries {
		buf = AppendSnapshotEntry(buf, e)
	}
	typ, p, _, err := ParseFrame(buf)
	if err != nil || typ != TypePriceSnapshot {
		t.Fatalf("ParseFrame = %v, err %v", typ, err)
	}
	s, err := DecodePriceSnapshot(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch != 5 || s.Seq != 17 || s.Shard != 1 || s.Len() != len(entries) {
		t.Fatalf("snapshot header = epoch %d seq %d shard %d len %d", s.Epoch, s.Seq, s.Shard, s.Len())
	}
	for i, want := range entries {
		if got := s.Entry(i); got != want {
			t.Fatalf("entry %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := DecodePriceSnapshot(p[:len(p)-1]); err == nil {
		t.Fatal("truncated snapshot must be rejected")
	}
}

func TestExchangeAckRoundTrip(t *testing.T) {
	typ, p, _, err := ParseFrame(AppendExchangeAck(nil, 77))
	if err != nil || typ != TypeExchangeAck {
		t.Fatalf("ParseFrame = %v, err %v", typ, err)
	}
	seq, err := DecodeExchangeAck(p)
	if err != nil || seq != 77 {
		t.Fatalf("DecodeExchangeAck = %d, %v", seq, err)
	}
	if _, err := DecodeExchangeAck(p[:3]); err == nil {
		t.Fatal("short ack must be rejected")
	}
}
