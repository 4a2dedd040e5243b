package compreuse

import (
	"testing"

	"compreuse/internal/obs"
)

// The memoization runtime's profitability condition (paper formula 3,
// R·C − O > 0) is judged against the lookup overhead O; these tests pin
// the warm hit paths — generic Memoized, byte-keyed MemoTable, and the
// TieredMemo L1 tier, including KeyBuf key encoding — at exactly zero
// allocations per operation.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, avg)
	}
}

func TestMemoizedHitZeroAlloc(t *testing.T) {
	m := NewMemoized(func(x int) int { return x * x })
	for i := 0; i < 64; i++ {
		m.Call(i)
	}
	i := 0
	assertZeroAllocs(t, "memoized/hit", func() {
		if got := m.Call(i & 63); got != (i&63)*(i&63) {
			t.Fatalf("Call(%d) = %d", i&63, got)
		}
		i++
	})
}

func TestMemoTableHitZeroAlloc(t *testing.T) {
	for _, cfg := range []MemoTableConfig{
		{Name: "alloc-unbounded"},
		{Name: "alloc-sharded", Shards: 8},
		{Name: "alloc-lru", Entries: 256, LRU: true},
	} {
		m := NewMemoTable(cfg)
		var kb KeyBuf
		for i := 0; i < 64; i++ {
			m.Store(kb.Reset().Int(int64(i)).Int(int64(i*31)).Bytes(), uint64(i))
		}
		// Probe each key once before measuring: a first-ever probe inserts
		// the key into the distinct-key census (the paper's N_ds), which is
		// the one legitimate allocation on the probe path.
		for i := 0; i < 64; i++ {
			m.Lookup(kb.Reset().Int(int64(i)).Int(int64(i * 31)).Bytes())
		}
		i := 0
		assertZeroAllocs(t, cfg.Name+"/lookup-hit", func() {
			k := kb.Reset().Int(int64(i & 63)).Int(int64((i & 63) * 31)).Bytes()
			v, ok := m.Lookup(k)
			if !ok || v != uint64(i&63) {
				t.Fatalf("Lookup: ok=%v v=%d want %d", ok, v, i&63)
			}
			i++
		})
		assertZeroAllocs(t, cfg.Name+"/store-resident", func() {
			m.Store(kb.Reset().Int(int64(i&63)).Int(int64((i&63)*31)).Bytes(), uint64(i))
			i++
		})
	}
}

// TestTieredMemoL1HitZeroAlloc pins the tiered fast path: an L1 hit
// returns before the remote tier is consulted and must allocate nothing,
// key encoding included.
func TestTieredMemoL1HitZeroAlloc(t *testing.T) {
	tm := &TieredMemo{l1: NewMemoTable(MemoTableConfig{Name: "alloc-tiered/l1", Shards: 4})}
	var kb KeyBuf
	compute := func() uint64 { t.Fatal("L1 hit must not compute"); return 0 }
	for i := 0; i < 64; i++ {
		tm.l1.Store(kb.Reset().Int(int64(i)).Float(float64(i)).Bytes(), uint64(i))
	}
	// First probes insert into the distinct-key census; warm them out of
	// the measured loop.
	for i := 0; i < 64; i++ {
		tm.Do(kb.Reset().Int(int64(i)).Float(float64(i)).Bytes(), compute)
	}
	i := 0
	assertZeroAllocs(t, "tiered/l1-hit", func() {
		k := kb.Reset().Int(int64(i & 63)).Float(float64(i & 63)).Bytes()
		if got := tm.Do(k, compute); got != uint64(i&63) {
			t.Fatalf("Do = %d, want %d", got, i&63)
		}
		i++
	})
}

// TestMissPathAllocs pins the miss paths over fresh keys: leader
// bookkeeping, compute, and the record into the table. Of each count,
// one is the flight's call record; the leader's closure must stay on
// the stack.
func TestMissPathAllocs(t *testing.T) {
	assertAllocsAtMost := func(name string, max float64, f func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(1000, f); avg > max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", name, avg, max)
		}
	}

	m := NewMemoized(func(x int) int { return x * x })
	i := 0
	assertAllocsAtMost("memoized/miss", 1, func() {
		m.Call(i)
		i++
	})

	tm, err := NewTieredMemo(&fakeRemote{}, TieredMemoConfig{Name: "alloc-tiered-miss"})
	if err != nil {
		t.Fatal(err)
	}
	var kb KeyBuf
	compute := func() uint64 { return 1 }
	j := int64(0)
	assertAllocsAtMost("tiered/miss", 9, func() {
		tm.Do(kb.Reset().Int(j).Bytes(), compute)
		j++
	})

	if obs.RaceEnabled {
		// The race detector makes sync.Pool drop items at random, so a
		// miss sometimes allocates a fresh Dep view.
		return
	}
	dm := NewDepMemo(DepConfig{Name: "alloc-dep-miss"})
	var in DepInputs
	f := func(d *Dep) uint64 { return uint64(d.Get(0)) }
	k := int64(0)
	assertAllocsAtMost("depmemo/miss", 3, func() {
		dm.Do(in.Reset().Int(k), f)
		k++
	})
}

// BenchmarkMemoizedHit measures the generic memo hit path (tracked in
// BENCH_6.json; the acceptance gate is 0 allocs/op).
func BenchmarkMemoizedHit(b *testing.B) {
	m := NewMemoized(func(x int) int { return x * x })
	for i := 0; i < 256; i++ {
		m.Call(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Call(i & 255)
	}
}

// BenchmarkMemoTableHit measures the byte-keyed table hit path with
// KeyBuf encoding inside the measured loop.
func BenchmarkMemoTableHit(b *testing.B) {
	m := NewMemoTable(MemoTableConfig{Name: "bench-memotable", Shards: 8})
	var kb KeyBuf
	for i := 0; i < 256; i++ {
		k := kb.Reset().Int(int64(i)).Int(int64(i * 31)).Bytes()
		m.Store(k, uint64(i))
		m.Lookup(k) // first probe census-inserts; keep it out of the loop
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(kb.Reset().Int(int64(i & 255)).Int(int64((i & 255) * 31)).Bytes())
	}
}
