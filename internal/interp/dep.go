package interp

import (
	"compreuse/internal/depmemo"
	"compreuse/internal/minic"
)

// Dependence-tracked reuse regions (ReuseRegion.Dep). Where a flat-key
// region forms its key from every declared input up front, a dep region
// watches the body's actual reads of the declared input locations and
// keys on that footprint via a depmemo.Table. The probe walks the
// footprint trie against current memory — reading only the locations a
// recorded run read — so the charged overhead is cost.Model.DepOverhead
// over the walked footprint, with no per-byte pass over wide inputs.
//
// Soundness is the determinism argument (see internal/depmemo): the
// body is deterministic over the watched locations, reads of a watched
// location after the body itself wrote it are derived values rather
// than inputs, and every read of watched memory funnels through the
// VM's load paths (machine.load and machine.readSlot), so the recorded
// footprint is exact — there is no untracked channel into the body.

// depRange is one watched input: words [base, base+words) of seg,
// addressed in the trie as Loc{Input: input, Off: cell-base} (scalars
// as Loc{input, OffWhole}).
type depRange struct {
	seg    *Seg
	base   int
	words  int
	scalar bool
}

// depWatcher tracks one active dep-region instance. Watchers nest
// dynamically (a dep region inside another's body, across calls): every
// load/store notifies the whole chain through parent.
type depWatcher struct {
	parent  *depWatcher
	ranges  []depRange
	path    []depmemo.Step
	seen    map[depmemo.Loc]struct{}
	written map[depmemo.Loc]struct{}
}

// locate maps a memory cell to its trie location under this watcher,
// if the cell is watched.
func (w *depWatcher) locate(seg *Seg, off int) (depmemo.Loc, bool) {
	for i := range w.ranges {
		r := &w.ranges[i]
		if r.seg == seg && off >= r.base && off < r.base+r.words {
			if r.scalar {
				return depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole}, true
			}
			return depmemo.Loc{Input: int32(i), Off: int32(off - r.base)}, true
		}
	}
	return depmemo.Loc{}, false
}

// onRead records a first read of a watched, not-yet-written location.
func (w *depWatcher) onRead(seg *Seg, off int, v Value) {
	for ; w != nil; w = w.parent {
		l, ok := w.locate(seg, off)
		if !ok {
			continue
		}
		if _, wr := w.written[l]; wr {
			continue // derived value, not an input
		}
		if _, dup := w.seen[l]; dup {
			continue
		}
		w.seen[l] = struct{}{}
		w.path = append(w.path, depmemo.Step{Loc: l, Label: depEncode(v)})
	}
}

// onWrite marks a watched location as body-produced: later reads of it
// are no longer input dependences.
func (w *depWatcher) onWrite(seg *Seg, off int) {
	for ; w != nil; w = w.parent {
		if l, ok := w.locate(seg, off); ok {
			w.written[l] = struct{}{}
		}
	}
}

// Fetch serves a trie probe from current memory, making the watcher the
// depmemo.Fetcher for its own region. Locations a recorded run read
// out-of-range for this instance's inputs yield a sentinel that forces
// the probe off the resident path.
func (w *depWatcher) Fetch(l depmemo.Loc) uint64 {
	if int(l.Input) >= len(w.ranges) {
		return depOOB(uint64(l.Input))
	}
	r := &w.ranges[l.Input]
	off := 0
	if l.Off != depmemo.OffWhole {
		off = int(l.Off)
	}
	if off < 0 || off >= r.words {
		return depOOB(uint64(uint32(l.Off)))
	}
	return depEncode(r.seg.data[r.base+off])
}

// depEncode maps a cell value to its 64-bit equality label.
func depEncode(v Value) uint64 {
	if v.K == KPtr {
		// Pointer-valued cells key on the offset only; segment identity
		// is not stable across runs, but within one run two watched
		// pointers into the same frame differ exactly by offset.
		return depOOB(uint64(v.I) ^ 0x70747265)
	}
	// Ints and the IEEE bits of floats.
	return uint64(v.I)
}

// depOOB mixes a sentinel label (murmur3 finalizer, matching depmemo's
// out-of-band convention).
func depOOB(x uint64) uint64 {
	x ^= 0x6465705f6f6f625f
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// getDepWatcher pops a cleared watcher off the machine's free list.
func (mc *machine) getDepWatcher() *depWatcher {
	if n := len(mc.depFree); n > 0 {
		w := mc.depFree[n-1]
		mc.depFree = mc.depFree[:n-1]
		return w
	}
	return &depWatcher{
		seen:    map[depmemo.Loc]struct{}{},
		written: map[depmemo.Loc]struct{}{},
	}
}

func (mc *machine) putDepWatcher(w *depWatcher) {
	w.parent = nil
	w.ranges = w.ranges[:0]
	w.path = w.path[:0]
	clear(w.seen)
	clear(w.written)
	mc.depFree = append(mc.depFree, w)
}

// depRegion lowers a dependence-tracked ReuseRegion.
//
// In reuse mode the footprint trie is probed against current memory; a
// hit copies the stored outputs, a miss runs the body under a watcher
// and records the observed read path. DepOverhead is charged over the
// footprint actually walked (the trie touches one location per level,
// so hits and misses pay for the same per-level work, mirroring the
// flat-key accounting). In profile mode the body always runs and the
// table takes the footprint census unpriced.
func (l *lowerer) depRegion(s *minic.ReuseRegion) stmtFn {
	mc := l.mc
	m := l.m
	pos := s.Pos()
	tab := mc.depTabs[s.TableID]
	if tab == nil {
		return func(*Seg) ctrl {
			mc.step(pos)
			panic(rtErr(pos, "dep reuse region %q references unknown dep table %d", s.SegName, s.TableID))
		}
	}
	type input struct {
		addr   ptrFn
		words  int
		scalar bool
	}
	ins := make([]input, len(s.Inputs))
	for i, in := range s.Inputs {
		t := in.Type()
		if minic.IsAggregate(t) {
			ins[i] = input{addr: l.addr(in), words: t.Words()}
		} else {
			ins[i] = input{addr: l.addr(in), words: 1, scalar: true}
		}
	}
	readOuts, writeOuts := l.outputs(s)
	body := l.stmt(s.Body)
	profile := tab.Config().Profile
	charge := func(st *SegRunStats, oh int64) {
		mc.cycles += oh
		mc.ops.HashOps += oh
		st.OverheadCycles += oh
	}
	id := s.ID()
	var st *SegRunStats
	return func(fr *Seg) ctrl {
		mc.step(pos)
		if st == nil {
			st = mc.segStats(id)
		}
		st.Instances++

		w := mc.getDepWatcher()
		for _, in := range ins {
			p := in.addr(fr)
			w.ranges = append(w.ranges, depRange{seg: p.seg, base: p.off, words: in.words, scalar: in.scalar})
		}
		if !profile {
			if r := tab.Probe(w); r.Hit {
				charge(st, m.DepOverhead(r.Steps, len(r.Outs)*4))
				st.Hits++
				writeOuts(fr, r.Outs)
				mc.putDepWatcher(w)
				return cNone
			}
		}

		w.parent = mc.depWatch
		mc.depWatch = w
		before := mc.cycles
		c := body(fr)
		mc.depWatch = w.parent
		st.BodyCycles += mc.cycles - before
		st.BodyRuns++
		if c == cNone {
			omark := len(mc.outBuf)
			readOuts(fr)
			outs := mc.outBuf[omark:]
			tab.Record(w.path, outs)
			if !profile {
				charge(st, m.DepOverhead(len(w.path), len(outs)*4))
			}
			mc.outBuf = mc.outBuf[:omark]
		}
		mc.putDepWatcher(w)
		return c
	}
}
