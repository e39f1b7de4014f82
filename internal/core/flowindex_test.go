package core

import (
	"math"
	"math/rand"
	"testing"
)

// checkFlowIndex compares x against the oracle and checks the table's own
// invariants: every entry is reachable from its home without crossing an
// empty slot (what backward-shift deletion must preserve), the live count is
// the number of occupied slots, and the load stays at most 3/4.
func checkFlowIndex(t testing.TB, x *FlowIndex, model map[FlowID]int32) {
	t.Helper()
	if x.Len() != len(model) {
		t.Fatalf("Len = %d, oracle has %d", x.Len(), len(model))
	}
	occupied := 0
	mask := len(x.tab) - 1
	for i, e := range x.tab {
		if e.v == 0 {
			continue
		}
		occupied++
		for j := x.home(e.id); j != i; j = (j + 1) & mask {
			if x.tab[j].v == 0 {
				t.Fatalf("flow %d at position %d is cut off from its home %d by the empty slot %d", e.id, i, x.home(e.id), j)
			}
		}
		if want, ok := model[e.id]; !ok || want != e.v-1 {
			t.Fatalf("table holds flow %d = %d; oracle has %d, %v", e.id, e.v-1, want, ok)
		}
	}
	if occupied != x.n {
		t.Fatalf("%d occupied slots, n = %d", occupied, x.n)
	}
	if 4*x.n > 3*len(x.tab) {
		t.Fatalf("%d entries in %d slots: past 3/4 load", x.n, len(x.tab))
	}
	for id, want := range model {
		if got, ok := x.Get(id); !ok || got != want {
			t.Fatalf("Get(%d) = %d, %v; oracle has %d", id, got, ok, want)
		}
	}
}

// flowIndexShapes are the ID pools the model test draws keys from: dense
// sequential IDs, negative IDs, the int64 extremes, multiples of 2³² (whose
// low words are all equal) and multiples of table lengths (whose masked low
// bits are all equal before hashing).
func flowIndexShapes() map[string][]FlowID {
	seq := func(n int, f func(k int) FlowID) []FlowID {
		out := make([]FlowID, n)
		for k := range out {
			out[k] = f(k)
		}
		return out
	}
	return map[string][]FlowID{
		"dense":    seq(600, func(k int) FlowID { return FlowID(k) }),
		"negative": seq(600, func(k int) FlowID { return FlowID(-1 - k) }),
		"extremes": {math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 0, -1, 1},
		"shl32":    seq(600, func(k int) FlowID { return FlowID(k-300) << 32 }),
		"cap1024":  seq(600, func(k int) FlowID { return FlowID(k) * 1024 }),
		"cap16":    seq(600, func(k int) FlowID { return FlowID(k) * minFlowIndexCap }),
	}
}

// TestFlowIndexModel runs seeded Put/Get/Delete/Clear streams over every ID
// shape against a map oracle, checking the whole table after every mutation,
// then a FIFO stream: the allocator's and the endpoint's churn pattern.
func TestFlowIndexModel(t *testing.T) {
	var zero FlowIndex
	if _, ok := zero.Get(7); ok || zero.Len() != 0 {
		t.Fatal("zero FlowIndex is not empty")
	}
	zero.Delete(7)
	zero.Clear()

	for name, pool := range flowIndexShapes() {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var x FlowIndex
			model := map[FlowID]int32{}
			for op := 0; op < 4000; op++ {
				id := pool[rng.Intn(len(pool))]
				switch r := rng.Intn(100); {
				case r < 45:
					v := rng.Int31()
					if r == 0 {
						v = math.MaxInt32
					}
					x.Put(id, v)
					model[id] = v
				case r < 70:
					got, ok := x.Get(id)
					want, wok := model[id]
					if ok != wok || got != want {
						t.Fatalf("%s seed %d op %d: Get(%d) = %d, %v; oracle has %d, %v", name, seed, op, id, got, ok, want, wok)
					}
					continue
				case r < 99:
					x.Delete(id)
					delete(model, id)
				default:
					x.Clear()
					clear(model)
				}
				checkFlowIndex(t, &x, model)
			}
		}
	}

	var x FlowIndex
	model := map[FlowID]int32{}
	const window = 500
	for next := FlowID(0); next < 5000; next++ {
		x.Put(next, int32(next))
		model[next] = int32(next)
		if next >= window {
			x.Delete(next - window)
			delete(model, next-window)
		}
		if next%97 == 0 {
			checkFlowIndex(t, &x, model)
		}
	}
	checkFlowIndex(t, &x, model)
}

// TestFlowIndexPutNegativePanics: values are stored biased by one, so a
// negative value has no representation and is refused.
func TestFlowIndexPutNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put(id, -1) did not panic")
		}
	}()
	var x FlowIndex
	x.Put(1, -1)
}

// flowIndexOps decodes a fuzz input into an op stream, three bytes per op:
// the op, and two bytes the key and value derive from. Keys are a signed byte
// shifted left by 0–63 bits and optionally complemented, so small, negative,
// 2³²-strided and extreme IDs all collide in the same few home slots.
func flowIndexOps(data []byte, fn func(op byte, id FlowID, v int32)) {
	for ; len(data) >= 3; data = data[3:] {
		op, k, s := data[0], data[1], data[2]
		id := FlowID(int64(int8(k)) << (s & 63))
		if s&64 != 0 {
			id = ^id
		}
		v := int32(k)<<8 | int32(s)
		if op&0x80 != 0 {
			v = math.MaxInt32 - v
		}
		fn(op&7, id, v)
	}
}

// FuzzFlowIndex runs a byte-coded Put/Get/Delete/Clear stream against a map
// oracle (ops 0–2 put, 3–4 get, 5–6 delete, 7 clear) and checks the table's
// invariants at the end.
func FuzzFlowIndex(f *testing.F) {
	var seq []byte
	for k := byte(0); k < 40; k++ {
		seq = append(seq, 0, k, 0)
	}
	for k := byte(0); k < 40; k += 3 {
		seq = append(seq, 5, k, 0)
	}
	f.Add(seq)
	var shifted []byte
	for k := byte(0); k < 30; k++ {
		shifted = append(shifted, 1, k, 32)
		shifted = append(shifted, 3, k, 32)
	}
	for k := byte(0); k < 30; k += 2 {
		shifted = append(shifted, 6, k, 32)
	}
	f.Add(shifted)
	f.Add([]byte{0x80, 0xff, 63, 2, 0xff, 63 | 64, 5, 0xff, 63}) // MinInt64, MaxInt64
	f.Add([]byte{0, 1, 0, 7, 0, 0, 4, 1, 0})                     // put, clear, get
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var x FlowIndex
		model := map[FlowID]int32{}
		flowIndexOps(data, func(op byte, id FlowID, v int32) {
			switch {
			case op <= 2:
				x.Put(id, v)
				model[id] = v
			case op <= 4:
				got, ok := x.Get(id)
				if want, wok := model[id]; ok != wok || got != want {
					t.Fatalf("Get(%d) = %d, %v; oracle has %d, %v", id, got, ok, want, wok)
				}
			case op <= 6:
				x.Delete(id)
				delete(model, id)
			default:
				x.Clear()
				clear(model)
			}
		})
		checkFlowIndex(t, &x, model)
	})
}

// fifoRound ends the oldest n of the live window [*oldest, *next) and starts
// n new IDs: one round of the benchmark's FIFO churn.
func fifoRound(x *FlowIndex, oldest, next *FlowID, n int) {
	for k := 0; k < n; k++ {
		x.Delete(*oldest)
		*oldest++
	}
	for k := 0; k < n; k++ {
		x.Put(*next, int32(*next))
		*next++
	}
}

// TestFlowIndexChurnStable pins the property the index exists for: at a
// constant live count, FIFO churn neither grows the table nor allocates. (A Go
// map under the same churn keeps splitting tables.)
func TestFlowIndexChurnStable(t *testing.T) {
	const live, churn = 20000, 2000
	var x FlowIndex
	var oldest, next FlowID
	for ; next < live; next++ {
		x.Put(next, int32(next))
	}
	capacity := len(x.tab)
	for r := 0; r < 200; r++ {
		fifoRound(&x, &oldest, &next, churn)
	}
	if len(x.tab) != capacity {
		t.Fatalf("table grew from %d to %d slots under constant-size churn", capacity, len(x.tab))
	}
	if allocs := testing.AllocsPerRun(10, func() { fifoRound(&x, &oldest, &next, churn) }); allocs != 0 {
		t.Fatalf("a churn round allocates %.1f times, want 0", allocs)
	}
	model := make(map[FlowID]int32, live)
	for id := oldest; id < next; id++ {
		model[id] = int32(id)
	}
	checkFlowIndex(t, &x, model)
}

// TestFlowIndexAdversarialKeys: keys that differ only above bit 32 (or only
// above a table length's bits) agree in every bit a plain mask would keep; the
// folded 128-bit product must still spread them, keeping the mean probe
// length a few slots.
func TestFlowIndexAdversarialKeys(t *testing.T) {
	const n = 20000
	for _, shift := range []uint{32, 16} {
		for trial := 0; trial < 3; trial++ {
			var x FlowIndex
			for k := 0; k < n; k++ {
				x.Put(FlowID(k)<<shift, int32(k))
			}
			mask := len(x.tab) - 1
			probes := 0
			for i, e := range x.tab {
				if e.v != 0 {
					probes += (i-x.home(e.id))&mask + 1
				}
			}
			if mean := float64(probes) / n; mean > 4 {
				t.Fatalf("keys k<<%d: mean probe length %.2f, want <= 4", shift, mean)
			}
		}
	}
}

// BenchmarkFlowIndex measures a hit and a miss at 20 000 live entries and one
// FIFO churn round (2 000 deletes + 2 000 puts), the daemon's per-step index
// work on churn-20k; every row must be 0 allocs/op.
func BenchmarkFlowIndex(b *testing.B) {
	const live, churn = 20000, 2000
	var x FlowIndex
	var oldest, next FlowID
	for ; next < live; next++ {
		x.Put(next, int32(next))
	}
	b.Run("get-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := x.Get(oldest + FlowID(i%live)); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("get-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := x.Get(next + FlowID(i)); ok {
				b.Fatal("hit")
			}
		}
	})
	b.Run("churn-round", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fifoRound(&x, &oldest, &next, churn)
		}
	})
}
