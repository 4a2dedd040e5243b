package interp

import (
	"strings"

	"compreuse/internal/cost"
	"compreuse/internal/depmemo"
	"compreuse/internal/minic"
	"compreuse/internal/reusetab"
)

// OpCounts tallies executed operations by class, feeding the energy model.
type OpCounts struct {
	IntOps   int64
	MulOps   int64
	DivOps   int64
	FloatOps int64
	MemOps   int64
	Branches int64
	Calls    int64
	HashOps  int64 // hashing-overhead cycles converted to op count equivalents
}

// SegRunStats accumulates per-ReuseRegion dynamic statistics (keyed by the
// region's AST node id).
type SegRunStats struct {
	// Instances is the number of times the region was entered.
	Instances int64
	// BodyCycles is the total cycles spent executing the region body
	// (misses only in ModeReuse; every instance in ModeProfile). Dividing
	// by body executions yields the measured granularity C.
	BodyCycles int64
	// BodyRuns is the number of body executions.
	BodyRuns int64
	// OverheadCycles is the total hashing overhead charged.
	OverheadCycles int64
	// Hits is the number of table hits.
	Hits int64
}

// MeasuredC returns the measured per-instance granularity in cycles.
func (s *SegRunStats) MeasuredC() float64 {
	if s.BodyRuns == 0 {
		return 0
	}
	return float64(s.BodyCycles) / float64(s.BodyRuns)
}

// Options configures a VM run.
type Options struct {
	// Model is the cycle cost model; defaults to cost.O0().
	Model *cost.Model
	// Tables maps ReuseRegion.TableID to its table. Regions referencing a
	// missing table fault at first use.
	Tables map[int]*reusetab.Table
	// DepTables maps dependence-tracked regions (ReuseRegion.Dep) to
	// their footprint tries; the ID space is shared with Tables, so dep
	// regions must use table IDs no flat-key region uses.
	DepTables map[int]*depmemo.Table
	// MaxSteps bounds executed statements (0 = 4e9).
	MaxSteps int64
	// CollectFreq enables per-node execution-frequency profiling.
	CollectFreq bool
	// MaxDepth bounds the call stack (0 = 10000).
	MaxDepth int
	// Args are the integer arguments passed to main (if it takes any).
	Args []int64
}

// Result is the outcome of a VM run.
type Result struct {
	// Ret is main's return value.
	Ret int64
	// Cycles is the total modeled cycle count.
	Cycles int64
	// Steps is the number of statements executed.
	Steps int64
	// Output is everything printed by the program.
	Output string
	// Ops are the executed operation counts by class.
	Ops OpCounts
	// Freq maps node id to execution count when Options.CollectFreq is set.
	Freq []int64
	// Segs holds per-ReuseRegion stats keyed by region node id.
	Segs map[int]*SegRunStats
	// Tables echoes the tables used by the run.
	Tables map[int]*reusetab.Table
	// DepTables echoes the footprint tries used by the run.
	DepTables map[int]*depmemo.Table
}

// Seconds returns the modeled wall-clock time of the run.
func (r *Result) Seconds() float64 { return cost.Seconds(r.Cycles) }

// machine is the state of one run. Lowered closures capture it, so a
// machine and its lowered code are single-use.
type machine struct {
	prog    *minic.Program
	m       *cost.Model
	globals *Seg
	out     strings.Builder
	cycles  int64
	ops     OpCounts
	steps   int64
	maxStep int64
	depth   int
	maxDep  int
	tables  map[int]*reusetab.Table
	depTabs map[int]*depmemo.Table
	segs    map[int]*SegRunStats
	freq    []int64
	// noFreq absorbs frequency counts when CollectFreq is off, so counting
	// closures increment unconditionally.
	noFreq int64
	retVal Value
	// depWatch heads the chain of active dep-region watchers (nil when
	// no dependence-tracked body is executing — the common case, paid
	// as one nil check per load/store).
	depWatch *depWatcher
	depFree  []*depWatcher
	funcs    map[*minic.FuncDecl]*lfunc
	// keyBuf and outBuf are scratch stacks for reuse-region keys and
	// output words: a region pushes at the top and pops on exit, so nested
	// and recursive regions each see their own slice.
	keyBuf []byte
	outBuf []uint64
}

// lfunc is one function of the run, lowered on its first call.
type lfunc struct {
	decl *minic.FuncDecl
	body func(*Seg) ctrl
	// callCost and retCost are the cycles charged on entry (call plus one
	// store per parameter) and on return.
	callCost, retCost int64
	// count is the function's execution-frequency counter.
	count *int64
	// escapes is set while lowering when a pointer into the frame can
	// outlive the call; frames of functions that never escape are
	// recycled through free.
	escapes bool
	free    []*Seg
}

// Run executes the program from main and returns the result. Runtime
// faults are returned as *RuntimeError.
func Run(prog *minic.Program, opts Options) (res *Result, err error) {
	m := opts.Model
	if m == nil {
		m = cost.O0()
	}
	mc := &machine{
		prog:    prog,
		m:       m,
		globals: &Seg{data: make([]Value, prog.GlobalWords), name: "globals"},
		maxStep: opts.MaxSteps,
		maxDep:  opts.MaxDepth,
		tables:  opts.Tables,
		depTabs: opts.DepTables,
		segs:    map[int]*SegRunStats{},
		funcs:   map[*minic.FuncDecl]*lfunc{},
	}
	if mc.maxStep == 0 {
		mc.maxStep = 4e9
	}
	if mc.maxDep == 0 {
		mc.maxDep = 10000
	}
	if opts.CollectFreq {
		mc.freq = make([]int64, prog.NumNodes)
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	mc.initGlobals()
	mainFn := prog.Func("main")
	if mainFn == nil {
		return nil, rtErr(minic.Pos{}, "program has no main function")
	}
	if len(opts.Args) != len(mainFn.Params) {
		return nil, rtErr(mainFn.Pos(), "main takes %d arguments, got %d", len(mainFn.Params), len(opts.Args))
	}
	lf := mc.fn(mainFn)
	fr := mc.frame(lf)
	for i, p := range mainFn.Params {
		fr.data[p.Sym.Slot] = convert(intV(opts.Args[i]), p.Type)
	}
	ret := mc.enter(lf, fr, mainFn.Pos())
	return &Result{
		Ret:       ret.intPart(),
		Cycles:    mc.cycles,
		Steps:     mc.steps,
		Output:    mc.out.String(),
		Ops:       mc.ops,
		Freq:      mc.freq,
		Segs:      mc.segs,
		Tables:    mc.tables,
		DepTables: mc.depTabs,
	}, nil
}

// fn returns the run's record for decl, creating it (unlowered) on first
// reference.
func (mc *machine) fn(decl *minic.FuncDecl) *lfunc {
	if lf := mc.funcs[decl]; lf != nil {
		return lf
	}
	lf := &lfunc{
		decl:     decl,
		callCost: mc.m.Call + int64(len(decl.Params))*mc.m.Store,
		retCost:  mc.m.Ret,
		count:    mc.counter(decl.ID()),
	}
	mc.funcs[decl] = lf
	return lf
}

// frame returns a zeroed frame for one call of lf.
func (mc *machine) frame(lf *lfunc) *Seg {
	if n := len(lf.free); n > 0 {
		fr := lf.free[n-1]
		lf.free = lf.free[:n-1]
		clear(fr.data)
		return fr
	}
	return &Seg{data: make([]Value, lf.decl.FrameWords), name: lf.decl.Name}
}

// enter runs lf on fr, whose parameter slots the caller has filled, and
// returns the function's result converted to its return type (the zero
// Value when the body falls off its end).
func (mc *machine) enter(lf *lfunc, fr *Seg, pos minic.Pos) Value {
	d := lf.decl
	if d.Body == nil {
		panic(rtErr(pos, "call of undefined function %s", d.Name))
	}
	mc.depth++
	if mc.depth > mc.maxDep {
		panic(rtErr(pos, "call stack overflow in %s (depth %d)", d.Name, mc.maxDep))
	}
	mc.cycles += lf.callCost
	mc.ops.Calls++
	mc.ops.MemOps += int64(len(d.Params))
	*lf.count++
	if lf.body == nil {
		mc.lowerFunc(lf)
	}
	var ret Value
	if lf.body(fr) == cRet {
		ret = mc.retVal
	}
	mc.depth--
	mc.cycles += lf.retCost
	if !lf.escapes {
		lf.free = append(lf.free, fr)
	}
	return ret
}

// counter returns the frequency counter of node id.
func (mc *machine) counter(id int) *int64 {
	if id < len(mc.freq) {
		return &mc.freq[id]
	}
	return &mc.noFreq
}

// Charges. Lowered closures pass the model's cost as a constant.
func (mc *machine) chInt(c int64)    { mc.cycles += c; mc.ops.IntOps++ }
func (mc *machine) chMul(c int64)    { mc.cycles += c; mc.ops.MulOps++ }
func (mc *machine) chDiv(c int64)    { mc.cycles += c; mc.ops.DivOps++ }
func (mc *machine) chFloat(c int64)  { mc.cycles += c; mc.ops.FloatOps++ }
func (mc *machine) chMem(c int64)    { mc.cycles += c; mc.ops.MemOps++ }
func (mc *machine) chBranch(c int64) { mc.cycles += c; mc.ops.Branches++ }

// step counts one executed statement against the step limit.
func (mc *machine) step(pos minic.Pos) {
	mc.steps++
	if mc.steps > mc.maxStep {
		mc.stepFault(pos)
	}
}

func (mc *machine) stepFault(pos minic.Pos) {
	panic(rtErr(pos, "step limit exceeded (%d statements)", mc.maxStep))
}

// load reads the cell at p, faulting on null and out-of-bounds pointers,
// and reports the read to any active dep watcher. The caller charges.
func (mc *machine) load(p Ptr, pos minic.Pos) Value {
	if p.seg == nil {
		panic(rtErr(pos, "null pointer dereference"))
	}
	if p.off < 0 || p.off >= len(p.seg.data) {
		panic(rtErr(pos, "out-of-bounds access: %s[%d] (size %d)", p.seg.name, p.off, len(p.seg.data)))
	}
	v := p.seg.data[p.off]
	if mc.depWatch != nil {
		mc.depWatch.onRead(p.seg, p.off, v)
	}
	return v
}

// store writes v at p with load's checks. The caller charges.
func (mc *machine) store(p Ptr, v Value, pos minic.Pos) {
	if p.seg == nil {
		panic(rtErr(pos, "store through null pointer"))
	}
	if p.off < 0 || p.off >= len(p.seg.data) {
		panic(rtErr(pos, "out-of-bounds store: %s[%d] (size %d)", p.seg.name, p.off, len(p.seg.data)))
	}
	if mc.depWatch != nil {
		mc.depWatch.onWrite(p.seg, p.off)
	}
	p.seg.data[p.off] = v
}

// readSlot and writeSlot access a variable's slot in a frame or the
// global area, which lowering has placed in bounds.
func (mc *machine) readSlot(fr *Seg, slot int) Value {
	v := fr.data[slot]
	if mc.depWatch != nil {
		mc.depWatch.onRead(fr, slot, v)
	}
	return v
}

func (mc *machine) writeSlot(fr *Seg, slot int, v Value) {
	if mc.depWatch != nil {
		mc.depWatch.onWrite(fr, slot)
	}
	fr.data[slot] = v
}
