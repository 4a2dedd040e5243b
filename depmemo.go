package compreuse

import (
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"compreuse/internal/depmemo"
	"compreuse/internal/flight"
)

// DepMemo is a dependence-tracked selective memoizer (Acar–Blelloch–
// Harper via the reuse scheme's cost model; see internal/depmemo): the
// compute function runs against a tracked view of its inputs, the memo
// records which inputs the run actually touched, and later calls probe
// keyed only on that footprint. A computation with ten declared inputs
// that reads two of them on the common path is keyed — and deduplicated
// — on those two; calls differing only in untouched inputs share one
// result. Differing read-sets coexist in one footprint trie.
//
// Compared to Memo/MemoTable, which key on the full argument list:
//
//   - keys narrow dynamically, so wide, mostly-irrelevant inputs (big
//     slices, config blobs) stop poisoning the hit rate and the probe
//     cost;
//   - per-input custom equality applies: slice inputs key on content
//     (hashed in place, never copied) and float inputs can use
//     tolerance-based equality;
//   - an explicit space budget bounds resident results with LRU
//     eviction.
//
// The compute function must be deterministic over the inputs it reads
// through the Dep view — that is the soundness condition for footprint
// keying: the values read so far determine the next read, so a probe
// that matches every recorded read would have recomputed the recorded
// result. Reads that bypass the view (globals, captured variables) are
// invisible and break the contract, exactly as they would break Memo.
//
// DepMemo is safe for concurrent use. Concurrent misses of identical
// input sets are deduplicated singleflight-style: one caller computes,
// the rest wait and re-probe.
type DepMemo struct {
	cfg    DepConfig
	seed   maphash.Seed
	flight flight.Group[uint64, uint64] // keyed by flightKey

	mu    sync.Mutex
	tab   *depmemo.Table
	fetch depFetch
	calls int64
	hits  int64

	depPool sync.Pool
}

// DepConfig configures a DepMemo.
type DepConfig struct {
	// Name labels the memo in stats and, for TieredDepMemo, names the
	// shared remote segment.
	Name string
	// Budget bounds resident results (0 = unbounded); the least
	// recently used result is evicted when full.
	Budget int
	// FloatTolerance, when positive, keys Float reads on their value
	// quantized to this grid instead of exact bits: two floats in the
	// same grid cell are equal. Grid equality is a true equivalence
	// (unlike an epsilon ball, which is not transitive), but values
	// within the tolerance can still straddle a cell boundary.
	FloatTolerance float64
}

// DepStats reports a DepMemo's reuse behavior (PR 4 stats convention:
// cumulative counters, Snapshot-consistent, survive across calls until
// Reset).
type DepStats struct {
	// Calls is the number of Do invocations.
	Calls int64
	// Hits is the subset served from the footprint trie without running
	// compute — including callers that joined an in-flight compute and
	// found its freshly recorded result on re-probe.
	Hits int64
	// Distinct counts distinct dependence footprints ever recorded.
	Distinct int64
	// Evictions counts results displaced by the space budget.
	Evictions int64
	// Resident is the number of currently stored results.
	Resident int
	// MeanFootprint and MaxFootprint describe the recorded dynamic key
	// widths, in tracked reads per call.
	MeanFootprint float64
	MaxFootprint  int
}

// HitRatio is Hits/Calls (0 when never called).
func (s DepStats) HitRatio() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Calls)
}

// NewDepMemo builds a DepMemo.
func NewDepMemo(cfg DepConfig) *DepMemo { return newDepMemo(cfg, false) }

// newDepMemo builds a DepMemo whose table, with ghosts set, keeps the
// keys of evicted results for TieredDepMemo's remote refill.
func newDepMemo(cfg DepConfig, ghosts bool) *DepMemo {
	m := &DepMemo{
		cfg:  cfg,
		seed: maphash.MakeSeed(),
		tab:  depmemo.New(depmemo.Config{Name: cfg.Name, Entries: cfg.Budget, Ghosts: ghosts}),
	}
	m.fetch.m = m
	m.depPool.New = func() any { return &Dep{m: m, seen: map[depmemo.Loc]struct{}{}} }
	return m
}

// ---------------------------------------------------------------------------
// Inputs

type depKind uint8

const (
	depInt depKind = iota
	depFloat
	depBytes
	depWords
)

type depInput struct {
	kind depKind
	word uint64
	f    float64
	b    []byte
	w    []uint64
}

// DepInputs is a reusable positional input list for DepMemo.Do, in the
// KeyBuf style: build with Reset().Int(a).Float(x).Bytes(buf), reuse
// across calls to keep the hit path allocation-free. Slice inputs are
// referenced, never copied; they must not be mutated until Do returns.
// A DepInputs is not safe for concurrent use; give each goroutine its
// own.
type DepInputs struct {
	vals []depInput
}

// Reset empties the list, keeping capacity, and returns the receiver
// for chaining.
func (in *DepInputs) Reset() *DepInputs {
	in.vals = in.vals[:0]
	return in
}

// Int appends an integer input.
func (in *DepInputs) Int(v int64) *DepInputs {
	in.vals = append(in.vals, depInput{kind: depInt, word: uint64(v)})
	return in
}

// Float appends a float input (subject to the memo's FloatTolerance).
func (in *DepInputs) Float(v float64) *DepInputs {
	in.vals = append(in.vals, depInput{kind: depFloat, f: v})
	return in
}

// Bytes appends a byte-slice input keyed by content. The slice is not
// copied: whole-content reads hash it in place with maphash.
func (in *DepInputs) Bytes(b []byte) *DepInputs {
	in.vals = append(in.vals, depInput{kind: depBytes, b: b})
	return in
}

// Words appends a word-slice input keyed by content; elements are
// addressable individually through Dep.Word. The slice is not copied.
func (in *DepInputs) Words(w []uint64) *DepInputs {
	in.vals = append(in.vals, depInput{kind: depWords, w: w})
	return in
}

// Len returns the number of inputs appended since the last Reset.
func (in *DepInputs) Len() int { return len(in.vals) }

// ---------------------------------------------------------------------------
// Labels: the per-key custom equality. A label is the 64-bit equality
// class of one tracked read; two reads are equal iff their labels are.
// Int and Word reads use the value itself. Float reads quantize to the
// tolerance grid. Whole-slice reads use a content hash (maphash for
// bytes, seeded mix64 folding for words) — 64-bit, so a hash collision
// can alias two contents; the probability (~2⁻⁶⁴ per comparison) is the
// same one every content-addressed cache accepts.

func (m *DepMemo) label(in *DepInputs, l depmemo.Loc) uint64 {
	if int(l.Input) >= len(in.vals) {
		return oobLabel(uint64(l.Input))
	}
	v := &in.vals[l.Input]
	switch l.Off {
	case depmemo.OffWhole:
		switch v.kind {
		case depInt:
			return v.word
		case depFloat:
			return m.quantize(v.f)
		case depBytes:
			return maphash.Bytes(m.seed, v.b)
		default:
			return m.hashWords(v.w)
		}
	case depmemo.OffLen:
		if v.kind == depBytes {
			return uint64(len(v.b))
		}
		return uint64(len(v.w))
	default:
		switch v.kind {
		case depWords:
			if int(l.Off) < len(v.w) {
				return v.w[l.Off]
			}
		case depBytes:
			if int(l.Off) < len(v.b) {
				return uint64(v.b[l.Off])
			}
		}
		return oobLabel(uint64(l.Off))
	}
}

// oobLabel marks an element read that the probing input set cannot
// serve (shorter slice, fewer inputs): a constant-mixed sentinel that a
// recorded in-range label matches with probability ~2⁻⁶⁴, forcing the
// probe to diverge from the resident path.
func oobLabel(x uint64) uint64 { return mix64(x ^ 0x6f6f625f6465705f) }

// quantize maps a float to its equality class under the tolerance grid.
func (m *DepMemo) quantize(v float64) uint64 {
	if m.cfg.FloatTolerance > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
		return uint64(int64(math.Round(v / m.cfg.FloatTolerance)))
	}
	return math.Float64bits(v)
}

// hashWords folds a word slice through the seeded murmur3 finalizer —
// content hashing without copying the slice into bytes.
func (m *DepMemo) hashWords(w []uint64) uint64 {
	h := maphash.Bytes(m.seed, nil) // seed-derived initial state
	for _, x := range w {
		h = mix64(h ^ x)
	}
	return mix64(h ^ uint64(len(w)))
}

// depFetch adapts label lookup to the trie's Fetcher without a per-call
// closure allocation; it is reused under the memo's lock.
type depFetch struct {
	m  *DepMemo
	in *DepInputs
}

func (f *depFetch) Fetch(l depmemo.Loc) uint64 { return f.m.label(f.in, l) }

// flightKey hashes the full input list — the singleflight identity for
// concurrent misses. (The footprint is unknown until the leader runs,
// so in-flight dedup is necessarily full-key; followers re-probe on the
// narrowed key afterwards.)
func (m *DepMemo) flightKey(in *DepInputs) uint64 {
	h := maphash.Bytes(m.seed, nil)
	for i := range in.vals {
		h = mix64(h ^ m.label(in, depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole}))
	}
	return mix64(h ^ uint64(len(in.vals)))
}

// ---------------------------------------------------------------------------
// The tracked view

// Dep is the tracked input view a compute function runs against. Every
// accessor records the dependence (input, granularity) → value so the
// memo can key this run on exactly what it read. Reading the same
// location twice records it once. A Dep is only valid inside its
// compute invocation.
type Dep struct {
	m    *DepMemo
	in   *DepInputs
	path []depmemo.Step
	seen map[depmemo.Loc]struct{}
	out  [1]uint64
}

func (d *Dep) note(l depmemo.Loc) {
	if _, ok := d.seen[l]; ok {
		return
	}
	d.seen[l] = struct{}{}
	d.path = append(d.path, depmemo.Step{Loc: l, Label: d.m.label(d.in, l)})
}

// Get reads integer input i, recording the dependence.
func (d *Dep) Get(i int) int64 {
	d.note(depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole})
	return int64(d.in.vals[i].word)
}

// Float reads float input i, recording the dependence under the memo's
// tolerance equality. The exact value is returned; only the key is
// quantized.
func (d *Dep) Float(i int) float64 {
	d.note(depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole})
	return d.in.vals[i].f
}

// Slice reads word-slice input i whole, recording a single content-hash
// dependence; the returned slice aliases the input (no copy). Use Word
// for element-granular dependence instead when the computation touches
// only part of the slice.
func (d *Dep) Slice(i int) []uint64 {
	d.note(depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole})
	return d.in.vals[i].w
}

// Bytes reads byte-slice input i whole, recording a single content-hash
// dependence computed in place with maphash (the slice is never
// copied).
func (d *Dep) Bytes(i int) []byte {
	d.note(depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole})
	return d.in.vals[i].b
}

// Word reads element j of word-slice input i, recording an element-
// granular dependence: later calls differing only in elements this run
// never read still hit.
func (d *Dep) Word(i, j int) uint64 {
	d.note(depmemo.Loc{Input: int32(i), Off: int32(j)})
	return d.in.vals[i].w[j]
}

// Len reads the length of slice input i, recording a length-only
// dependence.
func (d *Dep) Len(i int) int {
	d.note(depmemo.Loc{Input: int32(i), Off: depmemo.OffLen})
	v := &d.in.vals[i]
	if v.kind == depBytes {
		return len(v.b)
	}
	return len(v.w)
}

func (m *DepMemo) getDep(in *DepInputs) *Dep {
	d := m.depPool.Get().(*Dep)
	d.in = in
	d.path = d.path[:0]
	clear(d.seen)
	return d
}

func (m *DepMemo) putDep(d *Dep) {
	d.in = nil
	m.depPool.Put(d)
}

// ---------------------------------------------------------------------------
// Do

// Do returns the memoized result for the footprint compute reads out of
// in, running compute on a miss. compute must be deterministic over its
// tracked reads; see the type comment.
func (m *DepMemo) Do(in *DepInputs, compute func(*Dep) uint64) uint64 {
	if v, ok := m.probe(in, true); ok {
		return v
	}
	v, shared := m.flight.Do(m.flightKey(in), func() uint64 {
		// A leader that finished between the probe above and Do has
		// already recorded this footprint.
		if v, ok := m.probe(in, false); ok {
			return v
		}
		return m.run(in, compute)
	})
	if !shared {
		return v
	}
	// A follower re-probes rather than adopt the leader's value: flight
	// keys are hashes, so the leader may have computed other inputs.
	// Still missing, it computes directly, since a duplicate compute is
	// cheaper than a wrong adoption or a livelock.
	if v, ok := m.probe(in, false); ok {
		return v
	}
	return m.run(in, compute)
}

// probe looks the inputs up in the footprint trie, counting a hit; a
// call's first probe also counts the call.
func (m *DepMemo) probe(in *DepInputs, first bool) (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if first {
		m.calls++
	}
	m.fetch.in = in
	r := m.tab.Probe(&m.fetch)
	m.fetch.in = nil
	if !r.Hit {
		return 0, false
	}
	m.hits++
	return r.Outs[0], true
}

// run runs compute with tracking and records its footprint.
func (m *DepMemo) run(in *DepInputs, compute func(*Dep) uint64) uint64 {
	d := m.getDep(in)
	defer m.putDep(d)
	v := compute(d)
	d.out[0] = v
	m.mu.Lock()
	m.tab.Record(d.path, d.out[:])
	m.mu.Unlock()
	return v
}

// Stats returns a consistent snapshot of the memo's counters.
func (m *DepMemo) Stats() DepStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tab.Stats()
	return DepStats{
		Calls:         m.calls,
		Hits:          m.hits,
		Distinct:      ts.Distinct,
		Evictions:     ts.Evictions,
		Resident:      m.tab.Resident(),
		MeanFootprint: ts.MeanFootprint(),
		MaxFootprint:  ts.MaxFootprint,
	}
}

// Reset drops every memoized result and counter, returning the memo to
// its freshly constructed state (PR 4 convention). Computations already
// in flight record into the fresh table when they finish.
func (m *DepMemo) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tab.Reset()
	m.calls = 0
	m.hits = 0
}

// ---------------------------------------------------------------------------
// Tiered: dep-narrowed keys on the remote L2 wire path

// TieredDepMemoConfig sizes a TieredDepMemo.
type TieredDepMemoConfig struct {
	// Name is the shared segment name on the server.
	Name string
	// Budget bounds the process-local footprint trie (0 picks 4096 —
	// the tier exists to recover from eviction, so the budget must
	// bind).
	Budget int
	// FloatTolerance is the local grid equality (see DepConfig).
	FloatTolerance float64
	// Remote configures the server-side table (OutWords forced to 1).
	Remote SegmentConfig
}

// TieredDepStats counts where a TieredDepMemo's calls were served from.
type TieredDepStats struct {
	Calls int64
	// L1Hits were served from the local footprint trie.
	L1Hits int64
	// GhostHits matched an evicted result's retained key and refilled
	// it from the remote tier — the probe proved which result was
	// needed without recomputing it.
	GhostHits int64
	// Computes ran the computation (fresh footprint, remote miss, or
	// remote error).
	Computes int64
	// Errors is the subset of Computes taken because the remote tier
	// failed.
	Errors int64
}

// TieredDepMemo layers a budgeted local DepMemo over a remote crcserve
// segment, with the dep-narrowed key on the wire: when the space budget
// evicts a result, its footprint path stays resident as a ghost — the
// encoded dependence key without the value — so a later matching probe
// can fetch the result from the shared remote table by key instead of
// recomputing. Freshly computed results are published under the same
// canonical key encoding.
//
// Unlike the full-key TieredMemo, a cold process cannot ask the fleet
// for a result it never computed: a dependence key is only discoverable
// by reading the footprint, which is what the compute does. The remote
// tier is therefore an eviction-recovery tier — it converts budget
// evictions from recomputations into round trips — not a cold-start
// accelerator. It degrades gracefully: on remote errors Do computes
// locally and never fails.
type TieredDepMemo struct {
	dm    *DepMemo
	seg   remoteCache
	stats [5]atomic.Int64 // mirrors TieredDepStats field order
}

const (
	tdsCalls = iota
	tdsL1Hits
	tdsGhostHits
	tdsComputes
	tdsErrors
)

// NewTieredDepMemo registers the segment on r, a single server or a
// fleet, and builds the tiered memo.
func NewTieredDepMemo(r Remote, cfg TieredDepMemoConfig) (*TieredDepMemo, error) {
	rc := cfg.Remote
	rc.OutWords = 1
	seg, err := r.remoteSegment(cfg.Name, rc)
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = 4096
	}
	dm := newDepMemo(DepConfig{Name: cfg.Name, Budget: budget, FloatTolerance: cfg.FloatTolerance}, true)
	return &TieredDepMemo{dm: dm, seg: seg}, nil
}

// Do returns the memoized result for the footprint compute reads out of
// in: local trie first, then — when the probe matches an evicted
// result's ghost — the remote tier by dependence key, then compute.
func (t *TieredDepMemo) Do(in *DepInputs, compute func(*Dep) uint64) uint64 {
	t.stats[tdsCalls].Add(1)
	m := t.dm
	m.mu.Lock()
	m.fetch.in = in
	r := m.tab.Probe(&m.fetch)
	m.fetch.in = nil
	if r.Hit {
		v := r.Outs[0]
		m.mu.Unlock()
		t.stats[tdsL1Hits].Add(1)
		return v
	}
	if r.Ghost {
		// The key aliases trie storage; copy it out before dropping the
		// lock for the round trip. The copy must be per-call — a shared
		// scratch would be clobbered by a concurrent ghost probe while
		// the remote Get is still reading it — and the path is already
		// paying a round trip, so the allocation is immaterial.
		key := append([]byte(nil), r.Key...)
		m.mu.Unlock()
		vals, status, err := t.seg.Get(key)
		if err == nil && status == Hit && len(vals) == 1 {
			m.mu.Lock()
			m.tab.Refill(r, key, vals)
			m.mu.Unlock()
			t.stats[tdsGhostHits].Add(1)
			return vals[0]
		}
		return t.compute(in, compute, err != nil)
	}
	m.mu.Unlock()
	return t.compute(in, compute, false)
}

// compute runs the computation with tracking, records it locally, and
// publishes it to the remote tier under the canonical dependence key.
func (t *TieredDepMemo) compute(in *DepInputs, compute func(*Dep) uint64, remoteErr bool) uint64 {
	m := t.dm
	d := m.getDep(in)
	start := time.Now()
	v := compute(d)
	cost := time.Since(start)
	d.out[0] = v
	key := depmemo.EncodeSteps(nil, d.path)
	m.mu.Lock()
	m.tab.Record(d.path, d.out[:])
	m.mu.Unlock()
	m.putDep(d)
	if err := t.seg.Put(key, []uint64{v}, cost); err != nil {
		remoteErr = true
	}
	t.stats[tdsComputes].Add(1)
	if remoteErr {
		t.stats[tdsErrors].Add(1)
	}
	return v
}

// Stats returns a snapshot of the tier counters.
func (t *TieredDepMemo) Stats() TieredDepStats {
	return TieredDepStats{
		Calls:     t.stats[tdsCalls].Load(),
		L1Hits:    t.stats[tdsL1Hits].Load(),
		GhostHits: t.stats[tdsGhostHits].Load(),
		Computes:  t.stats[tdsComputes].Load(),
		Errors:    t.stats[tdsErrors].Load(),
	}
}

// Local returns the local DepMemo's stats (footprints, evictions,
// residency).
func (t *TieredDepMemo) Local() DepStats { return t.dm.Stats() }

// Reset drops the local tier (PR 4 convention); the shared remote table
// is left to its owner (use the segment's Flush for that).
func (t *TieredDepMemo) Reset() {
	t.dm.Reset()
	for i := range t.stats {
		t.stats[i].Store(0)
	}
}
