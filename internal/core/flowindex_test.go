package core

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// checkFlowIndex compares x against the oracle and checks the table's own
// invariants: every entry carries its ID's hash and is reachable from its home
// without crossing an empty slot (what backward-shift deletion must preserve),
// the live count is the number of occupied slots, and the load stays at most
// 3/4.
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
		if e.h != x.hash(e.id) {
			t.Fatalf("flow %d at position %d carries hash %#x, want %#x", e.id, i, e.h, x.hash(e.id))
		}
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

// modelGetOrPut applies GetOrPut(id, v) to the map oracle and returns what
// the index must answer.
func modelGetOrPut(model map[FlowID]int32, id FlowID, v int32) (int32, bool) {
	if old, ok := model[id]; ok {
		return old, true
	}
	model[id] = v
	return v, false
}

// modelTake applies Take(id) to the map oracle and returns what the index
// must answer.
func modelTake(model map[FlowID]int32, id FlowID) (int32, bool) {
	v, ok := model[id]
	delete(model, id)
	return v, ok
}

// TestFlowIndexModel runs seeded Put/GetOrPut/Get/Delete/Take/Clear streams
// over every ID shape against a map oracle, checking the whole table after
// every mutation, then a FIFO stream: the allocator's and the endpoint's
// churn pattern.
func TestFlowIndexModel(t *testing.T) {
	var zero FlowIndex
	if _, ok := zero.Get(7); ok || zero.Len() != 0 {
		t.Fatal("zero FlowIndex is not empty")
	}
	if _, ok := zero.Take(7); ok {
		t.Fatal("zero FlowIndex took an entry")
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
				v := rng.Int31()
				switch r := rng.Intn(100); {
				case r < 30:
					if r == 0 {
						v = math.MaxInt32
					}
					x.Put(id, v)
					model[id] = v
				case r < 45:
					if r == 30 {
						v = math.MaxInt32
					}
					got, ok := x.GetOrPut(id, v)
					if want, wok := modelGetOrPut(model, id, v); ok != wok || got != want {
						t.Fatalf("%s seed %d op %d: GetOrPut(%d, %d) = %d, %v; oracle has %d, %v", name, seed, op, id, v, got, ok, want, wok)
					}
				case r < 70:
					got, ok := x.Get(id)
					want, wok := model[id]
					if ok != wok || got != want {
						t.Fatalf("%s seed %d op %d: Get(%d) = %d, %v; oracle has %d, %v", name, seed, op, id, got, ok, want, wok)
					}
					continue
				case r < 85:
					x.Delete(id)
					delete(model, id)
				case r < 99:
					got, ok := x.Take(id)
					if want, wok := modelTake(model, id); ok != wok || got != want {
						t.Fatalf("%s seed %d op %d: Take(%d) = %d, %v; oracle has %d, %v", name, seed, op, id, got, ok, want, wok)
					}
				default:
					x.Clear()
					clear(model)
				}
				checkFlowIndex(t, &x, model)
			}
		}
	}

	for _, churn := range flowIndexChurns {
		var x FlowIndex
		var oldest, next FlowID
		model := map[FlowID]int32{}
		const window = 500
		for ; next < window; next++ {
			x.Put(next, int32(next))
			model[next] = int32(next)
		}
		for next < 5000 {
			churn.round(t, &x, &oldest, &next, 1)
			delete(model, oldest-1)
			model[next-1] = int32(next - 1)
			if next%97 == 0 {
				checkFlowIndex(t, &x, model)
			}
		}
		checkFlowIndex(t, &x, model)
	}
}

// TestFlowIndexGetOrPutNegativePanics: like Put, GetOrPut has no
// representation for a negative value, even for an ID it would not store.
func TestFlowIndexGetOrPutNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GetOrPut(id, -1) did not panic")
		}
	}()
	var x FlowIndex
	x.Put(1, 0)
	x.GetOrPut(1, -1)
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
// 2³²-strided and extreme IDs all collide in the same few home slots. The op
// is the low four bits of its byte; ops 8–15 were added after the seeds
// below, which use only 0–7 and so decode as they always did.
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
		fn(op&15, id, v)
	}
}

// FuzzFlowIndex runs a byte-coded Put/Get/Delete/Clear/GetOrPut/Take stream
// against a map oracle (ops 0–2 put, 3–4 get, 5–6 delete, 7 clear, 8–11
// get-or-put, 12–15 take) and checks the table's invariants at the end.
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
	var fused []byte // get-or-put new and existing keys, take hits and misses
	for k := byte(0); k < 30; k++ {
		fused = append(fused, 8, k, 32, 9|0x80, k, 32)
	}
	for k := byte(0); k < 40; k += 2 {
		fused = append(fused, 12, k, 32, 3, k, 32)
	}
	f.Add(fused)

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
			case op == 7:
				x.Clear()
				clear(model)
			case op <= 11:
				got, ok := x.GetOrPut(id, v)
				if want, wok := modelGetOrPut(model, id, v); ok != wok || got != want {
					t.Fatalf("GetOrPut(%d, %d) = %d, %v; oracle has %d, %v", id, v, got, ok, want, wok)
				}
			default:
				got, ok := x.Take(id)
				if want, wok := modelTake(model, id); ok != wok || got != want {
					t.Fatalf("Take(%d) = %d, %v; oracle has %d, %v", id, got, ok, want, wok)
				}
			}
		})
		checkFlowIndex(t, &x, model)
	})
}

// flowIndexChurns are the two ways to run one round of FIFO churn over the
// live window [*oldest, *next): end the oldest n IDs, then start n new ones,
// each mapped to itself. put-delete is Delete then Put; take-get-or-put is
// Take then GetOrPut, one probe per event, as the allocator and the endpoint
// churn.
var flowIndexChurns = []struct {
	name  string
	round func(tb testing.TB, x *FlowIndex, oldest, next *FlowID, n int)
}{
	{"put-delete", func(_ testing.TB, x *FlowIndex, oldest, next *FlowID, n int) {
		for k := 0; k < n; k++ {
			x.Delete(*oldest)
			*oldest++
		}
		for k := 0; k < n; k++ {
			x.Put(*next, int32(*next))
			*next++
		}
	}},
	{"take-get-or-put", func(tb testing.TB, x *FlowIndex, oldest, next *FlowID, n int) {
		for k := 0; k < n; k++ {
			if v, ok := x.Take(*oldest); !ok || v != int32(*oldest) {
				tb.Fatalf("Take(%d) = %d, %v", *oldest, v, ok)
			}
			*oldest++
		}
		for k := 0; k < n; k++ {
			if v, ok := x.GetOrPut(*next, int32(*next)); ok || v != int32(*next) {
				tb.Fatalf("GetOrPut(%d) = %d, %v on a new key", *next, v, ok)
			}
			*next++
		}
	}},
}

// TestFlowIndexChurnStable pins the property the index exists for: at a
// constant live count, FIFO churn neither grows the table nor allocates,
// through either pair of operations. (A Go map under the same churn keeps
// splitting tables.)
func TestFlowIndexChurnStable(t *testing.T) {
	const live, churn = 20000, 2000
	if size := unsafe.Sizeof(flowIndexEntry{}); size != 16 {
		t.Fatalf("an entry is %d bytes, want 16: the stored hash must fit the padding", size)
	}
	for _, c := range flowIndexChurns {
		var x FlowIndex
		var oldest, next FlowID
		for ; next < live; next++ {
			x.Put(next, int32(next))
		}
		capacity := len(x.tab)
		for r := 0; r < 200; r++ {
			c.round(t, &x, &oldest, &next, churn)
		}
		if len(x.tab) != capacity {
			t.Fatalf("%s: table grew from %d to %d slots under constant-size churn", c.name, capacity, len(x.tab))
		}
		if allocs := testing.AllocsPerRun(10, func() { c.round(t, &x, &oldest, &next, churn) }); allocs != 0 {
			t.Fatalf("%s: a churn round allocates %.1f times, want 0", c.name, allocs)
		}
		model := make(map[FlowID]int32, live)
		for id := oldest; id < next; id++ {
			model[id] = int32(id)
		}
		checkFlowIndex(t, &x, model)
	}
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

// BenchmarkFlowIndex measures single operations at 20 000 live entries — a
// hit and a miss, a take of the oldest entry, a get-or-put of a new and of a
// live ID — and one FIFO churn round (2 000 ends + 2 000 starts) through
// either pair of operations, the daemon's per-step index work on churn-20k.
// take and insert-new keep the live count by running the opposite half of the
// churn untimed every 2 000 operations. Every row must be 0 allocs/op.
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
	b.Run("take", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%churn == 0 && i > 0 {
				b.StopTimer()
				for k := 0; k < churn; k++ {
					x.Put(next, int32(next))
					next++
				}
				b.StartTimer()
			}
			if _, ok := x.Take(oldest); !ok {
				b.Fatal("miss")
			}
			oldest++
		}
		for ; next-oldest < live; next++ {
			x.Put(next, int32(next))
		}
	})
	b.Run("insert-new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%churn == 0 && i > 0 {
				b.StopTimer()
				for k := 0; k < churn; k++ {
					x.Delete(oldest)
					oldest++
				}
				b.StartTimer()
			}
			if _, ok := x.GetOrPut(next, int32(next)); ok {
				b.Fatal("hit")
			}
			next++
		}
		for ; next-oldest > live; oldest++ {
			x.Delete(oldest)
		}
	})
	b.Run("insert-existing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := x.GetOrPut(oldest+FlowID(i%live), 0); !ok {
				b.Fatal("miss")
			}
		}
	})
	for _, c := range flowIndexChurns {
		b.Run("churn-round/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.round(b, &x, &oldest, &next, churn)
			}
		})
	}
}
