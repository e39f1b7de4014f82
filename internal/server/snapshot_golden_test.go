package server

import (
	"encoding/hex"
	"testing"

	"repro/internal/core"
)

// goldenSnapshot is Snapshot() of the daemon goldenDaemon builds, generated at
// the last commit that still spoke wire v1-v3 (b20f031). The drain snapshot is
// the one artifact that outlives a daemon process, so it is the one encoding
// that must stay readable across generations: the live protocol refuses every
// other version at the handshake, the file format gets this guard instead. A
// change that moves these bytes strands every snapshot on disk.
const goldenSnapshot = "" +
	"0c6000000100000000000000020000000000000000000000030000000100000000000000000000000300000000000000" +
	"0000f03f0200000000000000010000000200000000000000000000400300000000000000020000000000000000000000" +
	"0000f03f" +
	"0aa8000001000000000000000200000000000000000000000c000000000000000f3cf2369ace733a010000000f3cf236" +
	"9ace733a020000000f3cf2369ace633a03000000000000000000d03f040000000f3cf2369ace733a050000000f3cf236" +
	"9ace633a06000000000000000000d03f070000000f3cf2369ace733a080000001550989ecd686a3a0900000000000000" +
	"000000000a00000000000000000000000b0000001550989ecd686a3a"

// goldenDaemon builds the fixed state behind goldenSnapshot: three flowlets on
// the 2x2 failover fabric, two iterations.
func goldenDaemon(t *testing.T) *Server {
	t.Helper()
	srv, cli := startDaemon(t, failoverTopo(t))
	for _, f := range []struct {
		id       core.FlowID
		src, dst int
		w        float64
	}{{1, 0, 3, 1}, {2, 1, 2, 2}, {3, 2, 0, 1}} {
		if err := cli.FlowletStart(f.id, f.src, f.dst, f.w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := cli.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// TestSnapshotGoldenBytes pins the on-disk snapshot format byte for byte and
// checks that a daemon restored from the literal continues exactly where the
// live one does.
func TestSnapshotGoldenBytes(t *testing.T) {
	live := goldenDaemon(t)
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(snap); got != goldenSnapshot {
		t.Fatalf("snapshot bytes moved:\n got %s\nwant %s", got, goldenSnapshot)
	}

	golden, err := hex.DecodeString(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{Topology: failoverTopo(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.Restore(golden); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Iterations(), live.Iterations(); got != want {
		t.Fatalf("restored daemon resumes at iteration %d, want %d", got, want)
	}
	for i := 0; i < 3; i++ {
		if err := live.iterate(nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := restored.iterate(nil, 0); err != nil {
			t.Fatal(err)
		}
		want, got := live.Rates(), restored.Rates()
		if len(got) != len(want) {
			t.Fatalf("iteration %d: restored daemon has %d rates, want %d", i, len(got), len(want))
		}
		for id, r := range want {
			if got[id] != r {
				t.Fatalf("iteration %d flow %d: restored rate %v != live %v", i, id, got[id], r)
			}
		}
	}
}
