package main

import (
	"encoding/binary"
	"time"

	"compreuse"
)

// memo-local: two callers rotate over the root package's three memo
// primitives with no network in the way.
const (
	memoUniverse = 1 << 16 // Zipf key ranks
	memoZipf     = 1.1
	memoStream   = 1 << 17 // keys per caller before its stream repeats
	memoEntries  = 1 << 13 // MemoTable LRU entries and DepMemo budget
	memoShards   = 8
	memoWork     = 256 // busy-work steps per compute
	// A timed batch is 96 calls, 32 per primitive: per-call times are a
	// few hundred nanoseconds, so one clock read must be amortized over
	// many calls to stay under a tenth of what it times.
	memoBatch  = 96
	memoPasses = 512 // batches per caller per pass
)

type memoState struct {
	memo  *compreuse.Memoized[uint64, uint64]
	table *compreuse.MemoTable
	dep   *compreuse.DepMemo
	cs    []*caller
	keys  []uint64
}

func runMemoLocal(cfg config, rep *report) error {
	epoch := time.Now()
	st, err := timedSetup(rep, func() (*memoState, error) {
		keys, streams := keyStreams(cfg.seed, memoUniverse, memoStream, memoZipf)
		st := &memoState{
			memo: compreuse.NewMemoized(func(k uint64) uint64 { return compute(k, memoWork) }),
			table: compreuse.NewMemoTable(compreuse.MemoTableConfig{
				Name: "memo-local", Entries: memoEntries, LRU: true, Shards: memoShards}),
			dep:  compreuse.NewDepMemo(compreuse.DepConfig{Name: "memo-local", Budget: memoEntries}),
			cs:   newCallers(streams, epoch),
			keys: keys,
		}
		for _, k := range keys {
			st.memo.Call(k)
		}
		return st, nil
	}, func(*memoState) {})
	if err != nil {
		return err
	}

	l := &loop{batch: memoBatch, batchesPerPass: memoPasses}
	workers := make(map[*caller]*memoWorker, len(st.cs))
	for _, c := range st.cs {
		workers[c] = newMemoWorker(st, c)
	}
	l.untraced = func(c *caller, keys []uint64) { workers[c].untraced(keys) }
	l.traced = func(c *caller, keys []uint64) { workers[c].traced(keys) }
	l.warm(st.cs)

	before := memoCounters(st)
	run := l.measure(cfg, rep, st.cs)
	if !cfg.trace {
		reportLoad(rep, l, run)
		return nil
	}
	after := memoCounters(st)
	reportLoad(rep, l, run)

	layers, err := reportTrace(cfg, rep, run, st.cs)
	if err != nil {
		return err
	}
	perPrim := run.tracedCalls / 3
	nPasses := float64(len(run.passes) + len(run.tracedPasses))
	rep.add("memoized.call_ns", ratio(layers["memoized.call"].SelfNS, perPrim), "ns", int(perPrim))
	rep.add("memoized.hit_ratio", ratio(after.memo.Hits-before.memo.Hits, after.memo.Calls-before.memo.Calls),
		"ratio", int(after.memo.Calls-before.memo.Calls))
	rep.add("memotable.lookup_ns", ratio(layers["memotable.lookup"].SelfNS, perPrim), "ns", int(perPrim))
	var stores int64
	for _, w := range workers {
		stores += w.stores
	}
	rep.add("memotable.store_ns", ratio(layers["memotable.store"].SelfNS, stores), "ns", int(stores))
	rep.add("memotable.hit_ratio", ratio(after.table.Hits-before.table.Hits, after.table.Calls-before.table.Calls),
		"ratio", int(after.table.Calls-before.table.Calls))
	rep.add("memotable.evictions", float64(after.table.Evictions-before.table.Evictions)/nPasses, "count", int(nPasses))
	hit, miss := layers["depmemo.hit"], layers["depmemo.miss"]
	rep.add("depmemo.hit_ns", ratio(hit.SelfNS, hit.Count), "ns", int(hit.Count))
	rep.add("depmemo.miss_ns", ratio(miss.SelfNS, miss.Count), "ns", int(miss.Count))
	rep.add("depmemo.hit_ratio", ratio(after.dep.Hits-before.dep.Hits, after.dep.Calls-before.dep.Calls),
		"ratio", int(after.dep.Calls-before.dep.Calls))
	rep.add("depmemo.evictions", float64(after.dep.Evictions-before.dep.Evictions)/nPasses, "count", int(nPasses))
	reportCompute(rep, st.keys, memoWork, 64)
	return nil
}

type memoCounts struct {
	memo, table compreuse.MemoStats
	dep         compreuse.DepStats
}

func memoCounters(st *memoState) memoCounts {
	return memoCounts{st.memo.Stats(), st.table.Stats(), st.dep.Stats()}
}

// memoWorker is one caller's view of the three primitives, with the
// scratch its calls reuse.
type memoWorker struct {
	st         *memoState
	c          *caller
	kb         [8]byte
	in         compreuse.DepInputs
	depCompute func(*compreuse.Dep) uint64
	tracedDep  func(*compreuse.Dep) uint64
	misses     []uint64
	vals       []uint64
	stores     int64
}

func newMemoWorker(st *memoState, c *caller) *memoWorker {
	w := &memoWorker{st: st, c: c}
	w.depCompute = func(d *compreuse.Dep) uint64 {
		c.computes++
		return compute(uint64(d.Get(0)), memoWork)
	}
	w.tracedDep = func(d *compreuse.Dep) uint64 {
		id := c.tr.begin("compute")
		v := w.depCompute(d)
		c.tr.end(id)
		return v
	}
	return w
}

func (w *memoWorker) key(k uint64) []byte {
	binary.LittleEndian.PutUint64(w.kb[:], k)
	return w.kb[:]
}

// untraced makes the batch's calls in order, rotating over the three
// primitives call by call.
func (w *memoWorker) untraced(keys []uint64) {
	c, st := w.c, w.st
	for i, k := range keys {
		switch i % 3 {
		case 0:
			c.check("Memoized", k, st.memo.Call(k))
		case 1:
			v, ok := st.table.Lookup(w.key(k))
			if !ok {
				c.computes++
				v = compute(k, memoWork)
				st.table.Store(w.key(k), v)
			}
			c.check("MemoTable", k, v)
		case 2:
			c.check("DepMemo", k, st.dep.Do(w.in.Reset().Int(int64(k)), w.depCompute))
		}
	}
}

// traced makes the same calls grouped by primitive, so each group can
// carry one span: Memoized calls, MemoTable lookups, the computes and
// stores of the lookups that missed, then one span per DepMemo call,
// named for its outcome, with the compute as its child.
func (w *memoWorker) traced(keys []uint64) {
	c, st, tr := w.c, w.st, w.c.tr
	root := tr.begin("batch")
	id := tr.begin("memoized.call")
	for i := 0; i < len(keys); i += 3 {
		c.check("Memoized", keys[i], st.memo.Call(keys[i]))
	}
	tr.end(id)
	w.misses = w.misses[:0]
	id = tr.begin("memotable.lookup")
	for i := 1; i < len(keys); i += 3 {
		if v, ok := st.table.Lookup(w.key(keys[i])); ok {
			c.check("MemoTable", keys[i], v)
		} else {
			w.misses = append(w.misses, keys[i])
		}
	}
	tr.end(id)
	if len(w.misses) > 0 {
		w.vals = w.vals[:0]
		id = tr.begin("compute")
		for _, k := range w.misses {
			w.vals = append(w.vals, compute(k, memoWork))
		}
		tr.end(id)
		c.computes += int64(len(w.misses))
		id = tr.begin("memotable.store")
		for i, k := range w.misses {
			st.table.Store(w.key(k), w.vals[i])
		}
		tr.end(id)
		w.stores += int64(len(w.misses))
		for i, k := range w.misses {
			c.check("MemoTable", k, w.vals[i])
		}
	}
	for i := 2; i < len(keys); i += 3 {
		before := c.computes
		id := tr.begin("depmemo")
		v := st.dep.Do(w.in.Reset().Int(int64(keys[i])), w.tracedDep)
		outcome := "depmemo.hit"
		if c.computes != before {
			outcome = "depmemo.miss"
		}
		tr.endAs(id, outcome)
		c.check("DepMemo", keys[i], v)
	}
	tr.end(root)
}

// reportCompute times the workload's compute called directly: the
// control that must not move when only the memo layers change.
func reportCompute(rep *report, keys []uint64, work, per int) {
	const batches = 64
	var sink uint64
	ns := timeBatches(batches, per, func(b int) {
		for i := 0; i < per; i++ {
			sink ^= compute(keys[(b*per+i)%len(keys)], work)
		}
	})
	_ = sink
	rep.add("compute.ns", ns, "ns", batches*per)
}
