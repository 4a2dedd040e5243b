package compreuse

import (
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compreuse/internal/flight"
	"compreuse/internal/obs"
	"compreuse/internal/reusetab"
)

// Memoization metrics, live when observability is enabled (EnableMetrics /
// obs.Enable). The disabled path of a memoized call pays one atomic load.
// MemoTable traffic additionally feeds the reuse-table probe metrics
// (crc_probe_latency_ns, crc_key_bytes, ...) through its underlying
// sharded table.
var (
	mMemoCalls = obs.NewCounter("crc_memo_calls_total",
		"calls into Memo/Memo2-wrapped functions")
	mMemoHits = obs.NewCounter("crc_memo_hits_total",
		"memoized calls served without running the wrapped function")
	mMemoLatency = obs.NewHistogram("crc_memo_latency_ns",
		"memoized call latency in nanoseconds (hits and misses alike)", obs.LatencyBuckets)
)

// This file is the standalone Go-facing reuse runtime: the same table
// design the transformed MiniC programs use (paper §3.1), packaged as a
// generic memoization helper so downstream Go code can apply the paper's
// technique directly. The cost–benefit intuition carries over: memoize
// functions whose computation dwarfs a hash probe and whose inputs repeat.
//
// Unlike the VM-facing reusetab.Table (single-threaded, bit-for-bit
// faithful to the paper), this runtime is built for parallel callers: the
// memo map is striped across independently locked shards selected by a
// hash of the key, statistics are atomic, and concurrent calls with the
// same key are deduplicated (singleflight) so f runs once per distinct
// in-flight key instead of once per caller. The paper's profitability
// condition R·C − O > 0 (formula 3) is why this matters: a contended
// global lock inflates the lookup overhead O until no segment is worth
// memoizing, so the runtime keeps O flat as GOMAXPROCS grows.

// MemoStats reports a memoized function's reuse behavior. The fields are
// updated atomically by the wrapper; while the wrapper may still be
// running in other goroutines, read them through Snapshot rather than
// directly.
type MemoStats struct {
	// Calls is the number of invocations.
	Calls int64
	// Hits is the number served without running f: found in the table, or
	// joined onto another caller's in-flight computation of the same key.
	Hits int64
	// Distinct is the number of distinct inputs computed.
	Distinct int64
	// Evictions is the number of resident entries displaced by bounded
	// replacement (LRU or direct-addressed overwrite). Always 0 for the
	// unbounded Memo/Memo2 wrappers; meaningful for bounded MemoTables,
	// where LRU churn was previously invisible.
	Evictions int64
}

// Snapshot returns a copy of the counters, safe to read while the
// memoized function is being called concurrently. Each field is loaded
// atomically; Hits and Distinct are loaded before Calls so that — since
// every Hits/Distinct increment is preceded by its call's Calls increment
// and the counters only grow — the snapshot always satisfies
// Hits <= Calls and Distinct <= Calls, keeping HitRatio and ReuseRate in
// [0, 1].
func (s *MemoStats) Snapshot() MemoStats {
	hits := atomic.LoadInt64(&s.Hits)
	distinct := atomic.LoadInt64(&s.Distinct)
	evictions := atomic.LoadInt64(&s.Evictions)
	calls := atomic.LoadInt64(&s.Calls)
	return MemoStats{Calls: calls, Hits: hits, Distinct: distinct, Evictions: evictions}
}

// HitRatio is Hits/Calls (0 when never called).
func (s MemoStats) HitRatio() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Calls)
}

// ReuseRate is the paper's R = 1 − N_ds/N.
func (s MemoStats) ReuseRate() float64 {
	if s.Calls == 0 {
		return 0
	}
	return 1 - float64(s.Distinct)/float64(s.Calls)
}

// memoShardCount picks a power-of-two stripe count scaled to the
// machine: at least 8 so light contention still spreads, capped so tiny
// memo tables do not carry hundreds of empty maps.
func memoShardCount() int {
	n := runtime.GOMAXPROCS(0)
	s := 1
	for s < n {
		s <<= 1
	}
	if s < 8 {
		s = 8
	}
	if s > 128 {
		s = 128
	}
	return s
}

// memoShard is one lock stripe of a memoized function's table, with its
// own flight group so misses on different stripes never share a lock,
// padded to a cache line so neighboring stripes do not false-share.
type memoShard[K comparable, V any] struct {
	mu     sync.RWMutex
	vals   map[K]V
	flight flight.Group[K, V]
	_      [16]byte
}

func (sh *memoShard[K, V]) load(k K) (V, bool) {
	sh.mu.RLock()
	v, ok := sh.vals[k]
	sh.mu.RUnlock()
	return v, ok
}

// Memoized is the handle behind Memo: the sharded singleflight reuse
// table plus its statistics, with the lifecycle operations — Reset in
// particular — that the bare closure returned by Memo cannot carry.
// Long-lived callers (servers whose key universe drifts, the remote
// tier's governor re-measuring a readmitted segment) construct one with
// NewMemoized and call Reset when the cached state should be dropped.
type Memoized[K comparable, V any] struct {
	f      func(K) V
	shards []memoShard[K, V]
	seed   maphash.Seed
	mask   uint64
	stats  MemoStats
}

// NewMemoized wraps a pure function of one comparable argument with an
// unbounded reuse table ("optimal" sizing in the paper's terms: the
// table holds every distinct input). The wrapper is safe for concurrent
// use: probes are striped over sharded locks, and concurrent callers
// with the same key share one computation of f (singleflight) — the
// duplicates count as hits, since they are served from another caller's
// work.
func NewMemoized[K comparable, V any](f func(K) V) *Memoized[K, V] {
	m := &Memoized[K, V]{
		f:      f,
		shards: make([]memoShard[K, V], memoShardCount()),
		seed:   maphash.MakeSeed(),
	}
	m.mask = uint64(len(m.shards) - 1)
	for i := range m.shards {
		m.shards[i].vals = map[K]V{}
	}
	return m
}

// call performs one memoized invocation; hit reports whether the value
// was served without running f in this goroutine.
func (m *Memoized[K, V]) call(k K) (v V, hit bool) {
	atomic.AddInt64(&m.stats.Calls, 1)
	sh := &m.shards[maphash.Comparable(m.seed, k)&m.mask]

	if v, ok := sh.load(k); ok {
		atomic.AddInt64(&m.stats.Hits, 1)
		return v, true
	}
	computed := false
	v, _ = sh.flight.Do(k, func() V {
		// A leader that finished between the probe above and Do has
		// already stored k: re-probe, so f runs once per key.
		if v, ok := sh.load(k); ok {
			return v
		}
		computed = true
		v := m.f(k)
		sh.mu.Lock()
		sh.vals[k] = v
		sh.mu.Unlock()
		return v
	})
	if !computed {
		atomic.AddInt64(&m.stats.Hits, 1)
		return v, true
	}
	atomic.AddInt64(&m.stats.Distinct, 1)
	return v, false
}

// Call invokes the memoized function.
func (m *Memoized[K, V]) Call(k K) V {
	if !obs.On() {
		v, _ := m.call(k)
		return v
	}
	start := time.Now()
	v, hit := m.call(k)
	mMemoLatency.Observe(time.Since(start).Nanoseconds())
	mMemoCalls.Inc()
	if hit {
		mMemoHits.Inc()
	}
	return v
}

// Stats returns a consistent snapshot of the counters (see
// MemoStats.Snapshot).
func (m *Memoized[K, V]) Stats() MemoStats { return m.stats.Snapshot() }

// Reset drops every cached value and zeroes the statistics without
// reallocating the shard maps. It is safe to call concurrently with
// Call: each shard is cleared under its write lock, and computations in
// flight during the reset simply store into the freshly cleared shard
// when they finish. Counter zeroing is not atomic with the map clears,
// so snapshots taken while callers race a Reset may be momentarily
// inconsistent; they converge once the reset returns.
func (m *Memoized[K, V]) Reset() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		clear(sh.vals)
		sh.mu.Unlock()
	}
	atomic.StoreInt64(&m.stats.Calls, 0)
	atomic.StoreInt64(&m.stats.Hits, 0)
	atomic.StoreInt64(&m.stats.Distinct, 0)
	atomic.StoreInt64(&m.stats.Evictions, 0)
}

// Memo wraps f as NewMemoized does and returns the call closure plus a
// pointer to the live stats — the original convenience signature. Use
// NewMemoized directly when the caller also needs Reset.
func Memo[K comparable, V any](f func(K) V) (func(K) V, *MemoStats) {
	m := NewMemoized(f)
	return m.Call, &m.stats
}

// Memoized2 is the two-argument Memoized handle, built by NewMemoized2.
type Memoized2[A, B comparable, V any] struct {
	m *Memoized[pairKey[A, B], V]
}

type pairKey[A, B comparable] struct {
	a A
	b B
}

// NewMemoized2 memoizes a pure function of two comparable arguments,
// returning a handle with Call, Stats and Reset.
func NewMemoized2[A, B comparable, V any](f func(A, B) V) *Memoized2[A, B, V] {
	return &Memoized2[A, B, V]{m: NewMemoized(func(k pairKey[A, B]) V { return f(k.a, k.b) })}
}

// Call invokes the memoized function.
func (m *Memoized2[A, B, V]) Call(a A, b B) V { return m.m.Call(pairKey[A, B]{a, b}) }

// Stats returns a consistent snapshot of the counters.
func (m *Memoized2[A, B, V]) Stats() MemoStats { return m.m.Stats() }

// Reset drops every cached value and zeroes the statistics (see
// Memoized.Reset).
func (m *Memoized2[A, B, V]) Reset() { m.m.Reset() }

// Memo2 memoizes a pure function of two comparable arguments, returning
// the call closure plus a pointer to the live stats. Use NewMemoized2
// directly when the caller also needs Reset.
func Memo2[A, B comparable, V any](f func(A, B) V) (func(A, B) V, *MemoStats) {
	m := NewMemoized2(f)
	return m.Call, &m.m.stats
}

// MemoTable is a bounded reuse table with the paper's replacement
// behaviors: direct addressing with replace-on-collision (§3.1), or a
// fully associative LRU buffer emulating the hardware proposals the paper
// compares against (Table 5). Keys and values are byte strings encoded by
// the caller (see reusetab's Append helpers via EncodeInt/EncodeFloat).
// The table is safe for concurrent use; configure Shards > 1 to stripe
// the storage for parallel callers.
type MemoTable struct {
	tab *reusetab.Sharded
}

// MemoTableConfig sizes a MemoTable.
type MemoTableConfig struct {
	// Name labels the table.
	Name string
	// Entries is the table size; 0 means unbounded.
	Entries int
	// LRU selects associative LRU replacement instead of direct
	// addressing (only meaningful with Entries > 0).
	LRU bool
	// Shards stripes the table across independently locked shards
	// (rounded up to a power of two) so parallel callers rarely contend.
	// 0 or 1 keeps a single shard, which preserves the exact single-table
	// collision and eviction behavior of §3.1; higher counts split
	// Entries evenly across shards, keeping total capacity but
	// redistributing collisions.
	Shards int
}

// NewMemoTable builds a reuse table from cfg.
func NewMemoTable(cfg MemoTableConfig) *MemoTable {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	return &MemoTable{
		tab: reusetab.NewSharded(reusetab.Config{
			Name:     cfg.Name,
			Segs:     1,
			KeyBytes: 8,
			OutWords: []int{1},
			OutBytes: []int{8},
			Entries:  cfg.Entries,
			LRU:      cfg.LRU,
		}, shards),
	}
}

// Lookup probes the table; ok reports a hit. Safe for concurrent use.
// A hit allocates nothing: the stored word is read by value under the
// shard lock (reusetab.Sharded.ProbeWord).
func (m *MemoTable) Lookup(key []byte) (value uint64, ok bool) {
	return m.tab.ProbeWord(0, key)
}

// Store records a computed value for key. Safe for concurrent use. A
// re-store of a resident key allocates nothing — the table copies the
// word into its existing entry in place.
func (m *MemoTable) Store(key []byte, value uint64) {
	vals := [1]uint64{value}
	m.tab.Record(0, key, vals[:])
}

// Stats returns the table's probe statistics. The counters are atomic
// snapshots, so Stats never blocks probes and is race-free against
// concurrent Lookup/Store callers.
func (m *MemoTable) Stats() MemoStats {
	// Distinct is read before the probe counters: distinct-key increments
	// trail their probe's Probes increment, so this order keeps
	// Distinct <= Calls (and ReuseRate in [0, 1]) even mid-flight.
	distinct := int64(m.tab.Distinct())
	st := m.tab.Stats(0)
	return MemoStats{Calls: st.Probes, Hits: st.Hits, Distinct: distinct, Evictions: st.Evictions}
}

// Reset empties the table and zeroes its statistics without
// reallocating (see reusetab.Sharded.Reset for the concurrency
// contract).
func (m *MemoTable) Reset() { m.tab.Reset() }

// Resident reports the number of entries currently stored in the table.
func (m *MemoTable) Resident() int { return m.tab.Resident() }

// Shards reports the table's lock-stripe count.
func (m *MemoTable) Shards() int { return m.tab.Shards() }

// EncodeInt appends a 32-bit key component, as the transformed programs do.
func EncodeInt(key []byte, v int64) []byte { return reusetab.AppendInt(key, v) }

// EncodeFloat appends a 64-bit float key component.
func EncodeFloat(key []byte, v float64) []byte { return reusetab.AppendFloat(key, v) }

// KeyBuf is a reusable scratch buffer for composing byte-string keys for
// MemoTable and TieredMemo. Building the key with EncodeInt/EncodeFloat
// on a fresh slice allocates on every call; a KeyBuf amortizes that to
// zero once its buffer has grown to the widest key it has seen, so a
// warm lookup — encode key, probe, hit — allocates nothing. A KeyBuf is
// not safe for concurrent use; give each goroutine its own (they are
// cheap: one slice header).
type KeyBuf struct {
	buf []byte
}

// Reset empties the buffer, keeping its capacity, and returns the KeyBuf
// for chaining: kb.Reset().Int(a).Int(b).Bytes().
func (k *KeyBuf) Reset() *KeyBuf {
	k.buf = k.buf[:0]
	return k
}

// Int appends a 32-bit key component.
func (k *KeyBuf) Int(v int64) *KeyBuf {
	k.buf = reusetab.AppendInt(k.buf, v)
	return k
}

// Float appends a 64-bit float key component.
func (k *KeyBuf) Float(v float64) *KeyBuf {
	k.buf = reusetab.AppendFloat(k.buf, v)
	return k
}

// Bytes returns the composed key. The slice aliases the scratch buffer:
// it is valid until the next Reset, and the tables it is passed to copy
// it rather than retain it.
func (k *KeyBuf) Bytes() []byte { return k.buf }
