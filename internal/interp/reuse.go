package interp

import (
	"math"

	"compreuse/internal/minic"
	"compreuse/internal/reusetab"
)

// region lowers a flat-key ReuseRegion (paper Fig. 2b):
//
//	key := concat(inputs)
//	if probe(key) misses { run body; record(key, outputs) }
//	else { copy stored outputs }
//
// In ModeReuse the modeled hashing overhead is charged on every instance
// (the paper notes hits and misses perform the same extra work). In
// ModeProfile no overhead is charged — profiling is an offline activity —
// and the body always runs while the table takes the input census; the
// region additionally measures the body's granularity.
//
// The key and the recorded output words live on the machine's scratch
// stacks for the duration of one instance; the table copies what it keeps.
func (l *lowerer) region(s *minic.ReuseRegion) stmtFn {
	mc := l.mc
	pos := s.Pos()
	tab := mc.tables[s.TableID]
	if tab == nil {
		return func(*Seg) ctrl {
			mc.step(pos)
			panic(rtErr(pos, "reuse region %q references unknown table %d", s.SegName, s.TableID))
		}
	}
	key := l.key(s.Inputs)
	readOuts, writeOuts := l.outputs(s)
	body := l.stmt(s.Body)
	seg := s.SegBit
	cfg := tab.Config()
	profile := cfg.Mode == reusetab.ModeProfile
	var oh int64
	if !profile {
		oh = l.m.HashOverhead(cfg.KeyBytes, cfg.OutBytes[seg])
	}
	id := s.ID()
	var st *SegRunStats
	return func(fr *Seg) ctrl {
		mc.step(pos)
		if st == nil {
			st = mc.segStats(id)
		}
		st.Instances++
		mark := len(mc.keyBuf)
		key(fr)
		k := mc.keyBuf[mark:]
		mc.cycles += oh
		mc.ops.HashOps += oh
		st.OverheadCycles += oh

		if outs, hit := tab.Probe(seg, k); hit {
			st.Hits++
			writeOuts(fr, outs)
			mc.keyBuf = mc.keyBuf[:mark]
			return cNone
		}

		before := mc.cycles
		c := body(fr)
		st.BodyCycles += mc.cycles - before
		st.BodyRuns++
		if c == cNone {
			// A body that escapes abnormally does not reach the region
			// exit; its outputs are not well-defined there, so nothing is
			// recorded. (The transform pass only wraps single-entry
			// single-exit bodies, so this is defensive.)
			omark := len(mc.outBuf)
			readOuts(fr)
			tab.Record(seg, k, mc.outBuf[omark:])
			mc.outBuf = mc.outBuf[:omark]
		}
		mc.keyBuf = mc.keyBuf[:mark]
		return c
	}
}

// segStats returns the run stats of the region with node id, creating
// them on the region's first execution: only executed regions appear in
// Result.Segs.
func (mc *machine) segStats(id int) *SegRunStats {
	st := mc.segs[id]
	if st == nil {
		st = &SegRunStats{}
		mc.segs[id] = st
	}
	return st
}

// leaf is one scalar word of a flattened value: its offset from the
// value's first word and whether it is a float.
type leaf struct {
	off   int
	float bool
}

// leaves flattens type t into its scalar words, element by element and
// field by field.
func leaves(t minic.Type, off int, out []leaf) []leaf {
	switch t := t.(type) {
	case *minic.Array:
		ew := t.Elem.Words()
		for i := 0; i < t.Len; i++ {
			out = leaves(t.Elem, off+i*ew, out)
		}
	case *minic.Struct:
		for _, f := range t.Fields {
			out = leaves(f.Type, off+f.WordOff, out)
		}
	default:
		out = append(out, leaf{off: off, float: minic.IsFloat(t)})
	}
	return out
}

// key lowers the key formation of a region: the bit patterns of the input
// values concatenated onto the machine's key stack (paper §2.1). Scalar
// ints contribute 4 bytes, floats 8; aggregate inputs contribute every
// element, each a checked load.
func (l *lowerer) key(inputs []minic.Expr) func(*Seg) {
	mc := l.mc
	ld := l.m.Load
	parts := make([]func(*Seg), len(inputs))
	for i, in := range inputs {
		t := in.Type()
		switch {
		case minic.IsAggregate(t):
			base := l.addr(in)
			words := leaves(t, 0, nil)
			pos := in.Pos()
			parts[i] = func(fr *Seg) {
				b := base(fr)
				for _, w := range words {
					v := mc.load(Ptr{seg: b.seg, off: b.off + w.off}, pos)
					mc.chMem(ld)
					if w.float {
						mc.keyBuf = reusetab.AppendFloat(mc.keyBuf, v.floatPart())
					} else {
						mc.keyBuf = reusetab.AppendInt(mc.keyBuf, v.intPart())
					}
				}
			}
		case minic.IsFloat(t):
			x := l.expr(in).asFloat()
			parts[i] = func(fr *Seg) {
				v := x(fr)
				mc.keyBuf = reusetab.AppendFloat(mc.keyBuf, v)
			}
		default:
			x := l.expr(in).asInt()
			parts[i] = func(fr *Seg) {
				v := x(fr)
				mc.keyBuf = reusetab.AppendInt(mc.keyBuf, v)
			}
		}
	}
	return func(fr *Seg) {
		for _, p := range parts {
			p(fr)
		}
	}
}

// outputs lowers a region's outputs: read pushes their current values onto
// the machine's output stack as table words; write stores table words back
// into them on a hit.
func (l *lowerer) outputs(s *minic.ReuseRegion) (read func(*Seg), write func(*Seg, []uint64)) {
	mc := l.mc
	ld, st := l.m.Load, l.m.Store
	reads := make([]func(*Seg), len(s.Outputs))
	addrs := make([]ptrFn, len(s.Outputs))
	words := make([][]leaf, len(s.Outputs))
	pos := make([]minic.Pos, len(s.Outputs))
	for i, o := range s.Outputs {
		t := o.Type()
		addrs[i] = l.addr(o)
		words[i] = leaves(t, 0, nil)
		pos[i] = o.Pos()
		switch {
		case minic.IsAggregate(t):
			base, ws, p := addrs[i], words[i], pos[i]
			reads[i] = func(fr *Seg) {
				b := base(fr)
				for _, w := range ws {
					v := mc.load(Ptr{seg: b.seg, off: b.off + w.off}, p)
					mc.chMem(ld)
					mc.outBuf = append(mc.outBuf, encodeScalar(v, w.float))
				}
			}
		case minic.IsFloat(t):
			x := l.expr(o).asFloat()
			reads[i] = func(fr *Seg) {
				v := x(fr)
				mc.outBuf = append(mc.outBuf, math.Float64bits(v))
			}
		default:
			x := l.expr(o).asInt()
			reads[i] = func(fr *Seg) {
				v := x(fr)
				mc.outBuf = append(mc.outBuf, uint64(v))
			}
		}
	}
	read = func(fr *Seg) {
		for _, r := range reads {
			r(fr)
		}
	}
	rpos := s.Pos()
	write = func(fr *Seg, outs []uint64) {
		i := 0
		for j, addr := range addrs {
			b := addr(fr)
			for _, w := range words[j] {
				mc.store(Ptr{seg: b.seg, off: b.off + w.off}, decodeScalar(outs[i], w.float), pos[j])
				mc.chMem(st)
				i++
			}
		}
		if i != len(outs) {
			panic(rtErr(rpos, "reuse region %q: output width mismatch (%d of %d words)", s.SegName, i, len(outs)))
		}
	}
	return read, write
}
