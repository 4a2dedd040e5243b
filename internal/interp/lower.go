package interp

import (
	"math"

	"compreuse/internal/cost"
	"compreuse/internal/minic"
)

// rep is how a lowered expression's value is represented at run time.
// MiniC is statically typed, so it is fixed per expression.
type rep uint8

const (
	rInt   rep = iota
	rFloat     // float64
	rPtr       // data pointers and aggregates, which decay to a pointer
	rFunc      // function designators and function pointers
	rVoid      // calls of void functions and builtins
)

func repOf(t minic.Type) rep {
	switch t := t.(type) {
	case *minic.Basic:
		switch t.Kind {
		case minic.IntKind:
			return rInt
		case minic.FloatKind:
			return rFloat
		}
		return rVoid
	case *minic.Pointer:
		if _, ok := t.Elem.(*minic.FuncType); ok {
			return rFunc
		}
		return rPtr
	case *minic.FuncType:
		return rFunc
	}
	return rPtr
}

type (
	intFn   = func(*Seg) int64
	floatFn = func(*Seg) float64
	ptrFn   = func(*Seg) Ptr
	funcFn  = func(*Seg) *minic.FuncDecl
	voidFn  = func(*Seg)
	valFn   = func(*Seg) Value
)

// code is a lowered expression: the closure matching r is set.
type code struct {
	r  rep
	i  intFn
	f  floatFn
	p  ptrFn
	fn funcFn
	v  voidFn
}

// The as* conversions follow convert's assignment semantics and charge
// nothing: an implicit conversion costs no cycles.

func (c code) asInt() intFn {
	switch c.r {
	case rInt:
		return c.i
	case rFloat:
		f := c.f
		return func(fr *Seg) int64 { return int64(f(fr)) }
	case rPtr:
		p := c.p
		return func(fr *Seg) int64 { return int64(p(fr).off) }
	}
	e := c.effect()
	return func(fr *Seg) int64 { e(fr); return 0 }
}

func (c code) asFloat() floatFn {
	switch c.r {
	case rFloat:
		return c.f
	case rInt:
		i := c.i
		return func(fr *Seg) float64 { return float64(i(fr)) }
	}
	e := c.effect()
	return func(fr *Seg) float64 { e(fr); return 0 }
}

func (c code) asPtr() ptrFn {
	if c.r == rPtr {
		return c.p
	}
	e := c.effect()
	return func(fr *Seg) Ptr { e(fr); return Ptr{} }
}

func (c code) asFunc() funcFn {
	if c.r == rFunc {
		return c.fn
	}
	e := c.effect()
	return func(fr *Seg) *minic.FuncDecl { e(fr); return nil }
}

// asValue boxes the value in its own representation.
func (c code) asValue() valFn {
	switch c.r {
	case rInt:
		i := c.i
		return func(fr *Seg) Value { return intV(i(fr)) }
	case rFloat:
		f := c.f
		return func(fr *Seg) Value { return floatV(f(fr)) }
	case rPtr:
		p := c.p
		return func(fr *Seg) Value { return ptrV(p(fr)) }
	case rFunc:
		fn := c.fn
		return func(fr *Seg) Value { return funcV(fn(fr)) }
	}
	v := c.v
	return func(fr *Seg) Value { v(fr); return Value{} }
}

// effect evaluates for side effects only.
func (c code) effect() voidFn {
	switch c.r {
	case rInt:
		i := c.i
		return func(fr *Seg) { i(fr) }
	case rFloat:
		f := c.f
		return func(fr *Seg) { f(fr) }
	case rPtr:
		p := c.p
		return func(fr *Seg) { p(fr) }
	case rFunc:
		fn := c.fn
		return func(fr *Seg) { fn(fr) }
	}
	return c.v
}

// truth is C truth: nonzero, non-null.
func (c code) truth() func(*Seg) bool {
	switch c.r {
	case rInt:
		i := c.i
		return func(fr *Seg) bool { return i(fr) != 0 }
	case rFloat:
		f := c.f
		return func(fr *Seg) bool { return f(fr) != 0 }
	case rPtr:
		p := c.p
		return func(fr *Seg) bool { return p(fr).seg != nil }
	case rFunc:
		fn := c.fn
		return func(fr *Seg) bool { return fn(fr) != nil }
	}
	v := c.v
	return func(fr *Seg) bool { v(fr); return false }
}

// as converts c to representation r.
func (c code) as(r rep) code {
	switch r {
	case rInt:
		return code{r: r, i: c.asInt()}
	case rFloat:
		return code{r: r, f: c.asFloat()}
	case rPtr:
		return code{r: r, p: c.asPtr()}
	case rFunc:
		return code{r: r, fn: c.asFunc()}
	}
	return code{r: rVoid, v: c.effect()}
}

// valueAs boxes c converted to type t, as assignment to a cell of type t
// does; aggregate-typed targets take the raw value.
func valueAs(c code, t minic.Type) valFn {
	if minic.IsAggregate(t) {
		return c.asValue()
	}
	return c.as(repOf(t)).asValue()
}

// lowerer turns one function body (or the global initializers) into
// closures over its machine.
type lowerer struct {
	mc *machine
	m  *cost.Model
	lf *lfunc // nil for global initializers
}

// escape records that a pointer into the current frame becomes a value.
func (l *lowerer) escape() {
	if l.lf != nil {
		l.lf.escapes = true
	}
}

// frameRooted reports whether lvalue e designates storage in the frame.
func frameRooted(e minic.Expr) bool {
	switch e := e.(type) {
	case *minic.Ident:
		return e.Sym.Kind == minic.SymLocal || e.Sym.Kind == minic.SymParam
	case *minic.Index:
		return minic.IsAggregate(e.X.Type()) && frameRooted(e.X)
	case *minic.FieldExpr:
		return !e.Arrow && frameRooted(e.X)
	}
	return false
}

// expr lowers an rvalue.
func (l *lowerer) expr(e minic.Expr) code {
	if isAggRef(e) {
		if frameRooted(e) {
			l.escape()
		}
		return code{r: rPtr, p: l.aggregate(e)}
	}
	mc := l.mc
	alu := l.m.IntALU
	switch e := e.(type) {
	case *minic.IntLit:
		v := e.Val
		return code{r: rInt, i: func(*Seg) int64 { mc.chInt(alu); return v }}
	case *minic.FloatLit:
		v := e.Val
		return code{r: rFloat, f: func(*Seg) float64 { mc.chInt(alu); return v }}
	case *minic.StrLit:
		return code{r: rInt, i: func(*Seg) int64 { mc.chInt(alu); return 0 }}
	case *minic.SizeofExpr:
		v := int64(e.T.Bytes())
		return code{r: rInt, i: func(*Seg) int64 { mc.chInt(alu); return v }}
	case *minic.Ident:
		return l.ident(e)
	case *minic.Unary:
		return l.unary(e)
	case *minic.IncDec:
		return l.incDec(e)
	case *minic.Binary:
		return l.binary(e)
	case *minic.AssignExpr:
		if e.Op == minic.Assign {
			return l.assign(e)
		}
		return l.compound(e)
	case *minic.Cond:
		return l.cond(e)
	case *minic.Call:
		return l.call(e)
	case *minic.Index:
		if id := arrayVar(e.X); id != nil {
			return l.element(e, id)
		}
		return l.loadAt(l.addr(e), e.Type(), e.Pos())
	case *minic.FieldExpr:
		return l.loadAt(l.addr(e), e.Type(), e.Pos())
	case *minic.Cast:
		return l.cast(e)
	}
	pos := e.Pos()
	return code{r: rVoid, v: func(*Seg) { panic(rtErr(pos, "unhandled expression %T", e)) }}
}

// isAggRef reports whether e names aggregate storage: a variable, element,
// field or dereference of array or struct type.
func isAggRef(e minic.Expr) bool {
	switch e.(type) {
	case *minic.Ident, *minic.Index, *minic.FieldExpr, *minic.Unary:
		return minic.IsAggregate(e.Type())
	}
	return false
}

// aggregate lowers an aggregate reference (isAggRef) to its address: it decays to a pointer, charging one ALU
// operation.
func (l *lowerer) aggregate(e minic.Expr) ptrFn {
	mc := l.mc
	alu := l.m.IntALU
	if id, ok := e.(*minic.Ident); ok {
		slot := id.Sym.Slot
		if id.Sym.Kind == minic.SymGlobal {
			p := Ptr{seg: mc.globals, off: slot}
			return func(*Seg) Ptr { mc.chInt(alu); return p }
		}
		return func(fr *Seg) Ptr { mc.chInt(alu); return Ptr{seg: fr, off: slot} }
	}
	return l.loadAt(l.addr(e), e.Type(), e.Pos()).p
}

// base lowers the pointer operand of *, [] or ->. An aggregate operand
// decays in place: its address is consumed, not kept.
func (l *lowerer) base(e minic.Expr) code {
	if isAggRef(e) {
		return code{r: rPtr, p: l.aggregate(e)}
	}
	return l.expr(e)
}

// loadAt reads a value of type t at addr: an aggregate yields its
// address after a null check; a scalar is loaded with the full checks.
func (l *lowerer) loadAt(addr ptrFn, t minic.Type, pos minic.Pos) code {
	mc := l.mc
	if minic.IsAggregate(t) {
		alu := l.m.IntALU
		return code{r: rPtr, p: func(fr *Seg) Ptr {
			p := addr(fr)
			if p.seg == nil {
				panic(rtErr(pos, "null pointer dereference"))
			}
			mc.chInt(alu)
			return p
		}}
	}
	ld := l.m.Load
	switch repOf(t) {
	case rInt:
		return code{r: rInt, i: func(fr *Seg) int64 {
			v := mc.load(addr(fr), pos)
			mc.chMem(ld)
			return v.I
		}}
	case rFloat:
		return code{r: rFloat, f: func(fr *Seg) float64 {
			v := mc.load(addr(fr), pos)
			mc.chMem(ld)
			return v.float()
		}}
	}
	return cellCode(repOf(t), func(fr *Seg) Value {
		v := mc.load(addr(fr), pos)
		mc.chMem(ld)
		return v
	})
}

// ident lowers a scalar variable or function designator read. Globals
// cost a load; locals and parameters cost the model's LocalAccess.
func (l *lowerer) ident(e *minic.Ident) code {
	mc := l.mc
	sym := e.Sym
	if sym.Kind == minic.SymFunc {
		alu := l.m.IntALU
		fd := sym.FuncDecl
		return code{r: rFunc, fn: func(*Seg) *minic.FuncDecl { mc.chInt(alu); return fd }}
	}
	slot := sym.Slot
	var get valFn
	if sym.Kind == minic.SymGlobal {
		g := mc.globals
		ld := l.m.Load
		if repOf(sym.Type) == rInt {
			return code{r: rInt, i: func(*Seg) int64 { mc.chMem(ld); return mc.readSlot(g, slot).I }}
		}
		get = func(*Seg) Value { mc.chMem(ld); return mc.readSlot(g, slot) }
	} else if la := l.m.LocalAccess; la != 0 {
		switch repOf(sym.Type) {
		case rInt:
			return code{r: rInt, i: func(fr *Seg) int64 { mc.chMem(la); return mc.readSlot(fr, slot).I }}
		case rFloat:
			return code{r: rFloat, f: func(fr *Seg) float64 { mc.chMem(la); return mc.readSlot(fr, slot).float() }}
		}
		get = func(fr *Seg) Value { mc.chMem(la); return mc.readSlot(fr, slot) }
	} else {
		switch repOf(sym.Type) {
		case rInt:
			return code{r: rInt, i: func(fr *Seg) int64 { return mc.readSlot(fr, slot).I }}
		case rFloat:
			return code{r: rFloat, f: func(fr *Seg) float64 { return mc.readSlot(fr, slot).float() }}
		}
		get = func(fr *Seg) Value { return mc.readSlot(fr, slot) }
	}
	return cellCode(repOf(sym.Type), get)
}

// cellCode reads a cell fetched by get in representation r.
func cellCode(r rep, get valFn) code {
	switch r {
	case rInt:
		return code{r: r, i: func(fr *Seg) int64 { return get(fr).I }}
	case rFloat:
		return code{r: r, f: func(fr *Seg) float64 { return get(fr).float() }}
	case rFunc:
		return code{r: r, fn: func(fr *Seg) *minic.FuncDecl { return get(fr).Fn }}
	}
	return code{r: rPtr, p: func(fr *Seg) Ptr { return get(fr).ptr() }}
}

// addr lowers an lvalue to the address of its cell.
func (l *lowerer) addr(e minic.Expr) ptrFn {
	pos := e.Pos()
	switch e := e.(type) {
	case *minic.Ident:
		slot := e.Sym.Slot
		if e.Sym.Kind == minic.SymGlobal {
			p := Ptr{seg: l.mc.globals, off: slot}
			return func(*Seg) Ptr { return p }
		}
		return func(fr *Seg) Ptr { return Ptr{seg: fr, off: slot} }
	case *minic.Index:
		return l.index(e)
	case *minic.FieldExpr:
		return l.field(e)
	case *minic.Unary:
		if e.Op == minic.Star {
			return l.pointer(e.X, "dereference of non-pointer value", pos)
		}
	}
	return func(*Seg) Ptr { panic(rtErr(pos, "not an lvalue: %T", e)) }
}

// pointer lowers the pointer operand e; a non-pointer operand faults
// with msg once evaluated.
func (l *lowerer) pointer(e minic.Expr, msg string, pos minic.Pos) ptrFn {
	b := l.base(e)
	if b.r == rPtr {
		return b.p
	}
	eff := b.effect()
	return func(fr *Seg) Ptr {
		eff(fr)
		panic(rtErr(pos, "%s", msg))
	}
}

// arrayVar returns e when it names an aggregate variable, nil otherwise.
func arrayVar(e minic.Expr) *minic.Ident {
	if id, ok := e.(*minic.Ident); ok && minic.IsAggregate(id.Sym.Type) {
		return id
	}
	return nil
}

// element lowers the read of a scalar element of an array variable: the
// decay, the address arithmetic and the checked load fold into one
// closure, the commonest memory access of the suite's kernels.
func (l *lowerer) element(e *minic.Index, id *minic.Ident) code {
	mc := l.mc
	pos := e.Pos()
	slot := id.Sym.Slot
	ew := minic.ElemOf(e.X.Type()).Words()
	idx := l.expr(e.Idx).asInt()
	c := 2*l.m.IntALU + l.m.Load
	var g *Seg
	if id.Sym.Kind == minic.SymGlobal {
		g = mc.globals
	}
	at := func(fr *Seg, i int64) Ptr {
		mc.cycles += c
		mc.ops.IntOps += 2
		mc.ops.MemOps++
		if g != nil {
			fr = g
		}
		return Ptr{seg: fr, off: slot + int(i)*ew}
	}
	switch r := repOf(e.Type()); r {
	case rInt:
		return code{r: r, i: func(fr *Seg) int64 { return mc.load(at(fr, idx(fr)), pos).I }}
	case rFloat:
		return code{r: r, f: func(fr *Seg) float64 { return mc.load(at(fr, idx(fr)), pos).float() }}
	default:
		return cellCode(r, func(fr *Seg) Value { return mc.load(at(fr, idx(fr)), pos) })
	}
}

// index lowers the address of x[i]: the base plus i element words.
func (l *lowerer) index(e *minic.Index) ptrFn {
	mc := l.mc
	alu := l.m.IntALU
	ew := minic.ElemOf(e.X.Type()).Words()
	idx := l.expr(e.Idx).asInt()
	if id := arrayVar(e.X); id != nil {
		// An array variable: its decay and the address arithmetic fold
		// into one closure.
		slot := id.Sym.Slot
		alu2 := 2 * alu
		if id.Sym.Kind == minic.SymGlobal {
			g := mc.globals
			return func(fr *Seg) Ptr {
				i := idx(fr)
				mc.cycles += alu2
				mc.ops.IntOps += 2
				return Ptr{seg: g, off: slot + int(i)*ew}
			}
		}
		return func(fr *Seg) Ptr {
			i := idx(fr)
			mc.cycles += alu2
			mc.ops.IntOps += 2
			return Ptr{seg: fr, off: slot + int(i)*ew}
		}
	}
	b := l.pointer(e.X, "indexing a non-pointer value", e.Pos())
	return func(fr *Seg) Ptr {
		p := b(fr)
		i := idx(fr)
		mc.chInt(alu)
		return Ptr{seg: p.seg, off: p.off + int(i)*ew}
	}
}

// field lowers the address of x.f or x->f.
func (l *lowerer) field(e *minic.FieldExpr) ptrFn {
	mc := l.mc
	alu := l.m.IntALU
	pos := e.Pos()
	var b ptrFn
	if e.Arrow {
		b = l.pointer(e.X, "-> on non-pointer value", pos)
	} else {
		b = l.addr(e.X)
	}
	off := e.Info.WordOff
	return func(fr *Seg) Ptr {
		p := b(fr)
		if p.seg == nil {
			panic(rtErr(pos, "field access through null pointer"))
		}
		mc.chInt(alu)
		return Ptr{seg: p.seg, off: p.off + off}
	}
}

func (l *lowerer) unary(e *minic.Unary) code {
	mc := l.mc
	alu := l.m.IntALU
	switch e.Op {
	case minic.Amp:
		if frameRooted(e.X) {
			l.escape()
		}
		return code{r: rPtr, p: l.addr(e.X)}
	case minic.Star:
		return l.loadAt(l.pointer(e.X, "dereference of non-pointer value", e.Pos()), minic.ElemOf(e.X.Type()), e.Pos())
	case minic.Not:
		t := l.expr(e.X).truth()
		return code{r: rInt, i: func(fr *Seg) int64 {
			b := t(fr)
			mc.chInt(alu)
			return b2i(!b)
		}}
	case minic.Tilde:
		x := l.expr(e.X).asInt()
		return code{r: rInt, i: func(fr *Seg) int64 { v := x(fr); mc.chInt(alu); return ^v }}
	case minic.Minus:
		x := l.expr(e.X)
		if x.r == rFloat {
			fa := l.m.FloatAdd
			f := x.f
			return code{r: rFloat, f: func(fr *Seg) float64 { v := f(fr); mc.chFloat(fa); return -v }}
		}
		i := x.asInt()
		return code{r: rInt, i: func(fr *Seg) int64 { v := i(fr); mc.chInt(alu); return -v }}
	case minic.Plus:
		return l.expr(e.X)
	}
	pos, op := e.Pos(), e.Op
	return code{r: rVoid, v: func(*Seg) { panic(rtErr(pos, "unhandled unary %v", op)) }}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// incDec lowers ++ and --: a checked load and store of the operand's cell
// plus one add.
func (l *lowerer) incDec(e *minic.IncDec) code {
	mc := l.mc
	pos := e.Pos()
	t := e.X.Type()
	ld, st := l.m.Load, l.m.Store
	post := e.Post
	step := int64(1)
	if e.Op == minic.Dec {
		step = -1
	}
	if id, ok := e.X.(*minic.Ident); ok && id.Sym.Kind != minic.SymGlobal && repOf(t) == rInt {
		// The loop counter case: a local int, whose slot is always in
		// bounds.
		slot := id.Sym.Slot
		alu := l.m.IntALU
		c := ld + alu + st
		return code{r: rInt, i: func(fr *Seg) int64 {
			old := mc.readSlot(fr, slot).I
			nv := old + step
			mc.cycles += c
			mc.ops.MemOps += 2
			mc.ops.IntOps++
			mc.writeSlot(fr, slot, intV(nv))
			if post {
				return old
			}
			return nv
		}}
	}
	addr := l.addr(e.X)
	var next func(Value) Value
	switch repOf(t) {
	case rPtr:
		d := int(step) * minic.ElemOf(t).Words()
		alu := l.m.IntALU
		next = func(v Value) Value {
			mc.chInt(alu)
			p := v.ptr()
			return ptrV(Ptr{seg: p.seg, off: p.off + d})
		}
	case rFloat:
		fa := l.m.FloatAdd
		d := float64(step)
		next = func(v Value) Value { mc.chFloat(fa); return floatV(v.float() + d) }
	default:
		alu := l.m.IntALU
		next = func(v Value) Value { mc.chInt(alu); return intV(v.I + step) }
	}
	return cellCode(repOf(t), func(fr *Seg) Value {
		p := addr(fr)
		old := mc.load(p, pos)
		mc.chMem(ld)
		nv := next(old)
		mc.store(p, nv, pos)
		mc.chMem(st)
		if post {
			return old
		}
		return nv
	})
}

// binary lowers a binary operator. Operands are evaluated left to right.
func (l *lowerer) binary(e *minic.Binary) code {
	mc := l.mc
	pos := e.Pos()
	switch e.Op {
	case minic.AndAnd, minic.OrOr:
		x, y := l.expr(e.X).truth(), l.expr(e.Y).truth()
		br := l.m.Branch
		if e.Op == minic.AndAnd {
			return code{r: rInt, i: func(fr *Seg) int64 {
				mc.chBranch(br)
				return b2i(x(fr) && y(fr))
			}}
		}
		return code{r: rInt, i: func(fr *Seg) int64 {
			mc.chBranch(br)
			return b2i(x(fr) || y(fr))
		}}
	}
	x, y := l.expr(e.X), l.expr(e.Y)
	isP := func(c code) bool { return c.r == rPtr || c.r == rFunc }
	switch {
	case isP(x) || isP(y):
		return l.ptrBinary(e.Op, x, y, e.X.Type(), e.Y.Type(), pos)
	case x.r == rFloat || y.r == rFloat:
		return l.floatBinary(e.Op, x.asFloat(), y.asFloat(), pos)
	}
	return l.intBinary(e.Op, x.asInt(), y.asInt(), pos)
}

func (l *lowerer) intBinary(op minic.TokKind, x, y intFn, pos minic.Pos) code {
	mc := l.mc
	alu, mul := l.m.IntALU, l.m.IntMul
	var f intFn
	switch op {
	case minic.Plus:
		f = func(fr *Seg) int64 { a := x(fr); b := y(fr); mc.chInt(alu); return a + b }
	case minic.Minus:
		f = func(fr *Seg) int64 { a := x(fr); b := y(fr); mc.chInt(alu); return a - b }
	case minic.Star:
		f = func(fr *Seg) int64 { a := x(fr); b := y(fr); mc.chMul(mul); return a * b }
	case minic.Shl:
		f = func(fr *Seg) int64 { a := x(fr); b := y(fr); mc.chInt(alu); return a << uint(b&63) }
	case minic.Shr:
		f = func(fr *Seg) int64 { a := x(fr); b := y(fr); mc.chInt(alu); return a >> uint(b&63) }
	case minic.Amp:
		f = func(fr *Seg) int64 { a := x(fr); b := y(fr); mc.chInt(alu); return a & b }
	case minic.Lt:
		f = func(fr *Seg) int64 { a := x(fr); b := y(fr); mc.chInt(alu); return b2i(a < b) }
	case minic.EqEq:
		f = func(fr *Seg) int64 { a := x(fr); b := y(fr); mc.chInt(alu); return b2i(a == b) }
	default:
		g := l.intOp(op, pos)
		f = func(fr *Seg) int64 { a := x(fr); return g(a, y(fr)) }
	}
	return code{r: rInt, i: f}
}

// intOp is the int operator op on evaluated operands, with its charge.
func (l *lowerer) intOp(op minic.TokKind, pos minic.Pos) func(a, b int64) int64 {
	mc := l.mc
	alu, mul, div := l.m.IntALU, l.m.IntMul, l.m.IntDiv
	switch op {
	case minic.Plus:
		return func(a, b int64) int64 { mc.chInt(alu); return a + b }
	case minic.Minus:
		return func(a, b int64) int64 { mc.chInt(alu); return a - b }
	case minic.Star:
		return func(a, b int64) int64 { mc.chMul(mul); return a * b }
	case minic.Slash:
		return func(a, b int64) int64 {
			mc.chDiv(div)
			if b == 0 {
				panic(rtErr(pos, "integer division by zero"))
			}
			return a / b
		}
	case minic.Percent:
		return func(a, b int64) int64 {
			mc.chDiv(div)
			if b == 0 {
				panic(rtErr(pos, "integer modulo by zero"))
			}
			return a % b
		}
	case minic.Shl:
		return func(a, b int64) int64 { mc.chInt(alu); return a << uint(b&63) }
	case minic.Shr:
		return func(a, b int64) int64 { mc.chInt(alu); return a >> uint(b&63) }
	case minic.Amp:
		return func(a, b int64) int64 { mc.chInt(alu); return a & b }
	case minic.Pipe:
		return func(a, b int64) int64 { mc.chInt(alu); return a | b }
	case minic.Caret:
		return func(a, b int64) int64 { mc.chInt(alu); return a ^ b }
	case minic.Lt:
		return func(a, b int64) int64 { mc.chInt(alu); return b2i(a < b) }
	case minic.Gt:
		return func(a, b int64) int64 { mc.chInt(alu); return b2i(a > b) }
	case minic.Le:
		return func(a, b int64) int64 { mc.chInt(alu); return b2i(a <= b) }
	case minic.Ge:
		return func(a, b int64) int64 { mc.chInt(alu); return b2i(a >= b) }
	case minic.EqEq:
		return func(a, b int64) int64 { mc.chInt(alu); return b2i(a == b) }
	case minic.NotEq:
		return func(a, b int64) int64 { mc.chInt(alu); return b2i(a != b) }
	}
	return func(a, b int64) int64 { panic(rtErr(pos, "unhandled binary operator %v", op)) }
}

func (l *lowerer) floatBinary(op minic.TokKind, x, y floatFn, pos minic.Pos) code {
	mc := l.mc
	switch op {
	case minic.Lt, minic.Gt, minic.Le, minic.Ge, minic.EqEq, minic.NotEq:
		g := l.floatCmp(op)
		return code{r: rInt, i: func(fr *Seg) int64 { a := x(fr); return g(a, y(fr)) }}
	case minic.Plus:
		fa := l.m.FloatAdd
		return code{r: rFloat, f: func(fr *Seg) float64 { a := x(fr); b := y(fr); mc.chFloat(fa); return a + b }}
	case minic.Star:
		fm := l.m.FloatMul
		return code{r: rFloat, f: func(fr *Seg) float64 { a := x(fr); b := y(fr); mc.chFloat(fm); return a * b }}
	}
	g := l.floatOp(op, pos)
	return code{r: rFloat, f: func(fr *Seg) float64 { a := x(fr); return g(a, y(fr)) }}
}

// floatOp is the float arithmetic operator op, with its charge.
func (l *lowerer) floatOp(op minic.TokKind, pos minic.Pos) func(a, b float64) float64 {
	mc := l.mc
	m := l.m
	switch op {
	case minic.Plus:
		c := m.FloatAdd
		return func(a, b float64) float64 { mc.chFloat(c); return a + b }
	case minic.Minus:
		c := m.FloatAdd
		return func(a, b float64) float64 { mc.chFloat(c); return a - b }
	case minic.Star:
		c := m.FloatMul
		return func(a, b float64) float64 { mc.chFloat(c); return a * b }
	case minic.Slash:
		c := m.FloatDiv
		return func(a, b float64) float64 {
			mc.chFloat(c)
			if b == 0 {
				return math.Inf(1) * sign(a)
			}
			return a / b
		}
	}
	return func(a, b float64) float64 { panic(rtErr(pos, "invalid float operation %v", op)) }
}

// floatCmp is the float comparison op, with its charge.
func (l *lowerer) floatCmp(op minic.TokKind) func(a, b float64) int64 {
	mc := l.mc
	c := l.m.FloatCmp
	switch op {
	case minic.Lt:
		return func(a, b float64) int64 { mc.chFloat(c); return b2i(a < b) }
	case minic.Gt:
		return func(a, b float64) int64 { mc.chFloat(c); return b2i(a > b) }
	case minic.Le:
		return func(a, b float64) int64 { mc.chFloat(c); return b2i(a <= b) }
	case minic.Ge:
		return func(a, b float64) int64 { mc.chFloat(c); return b2i(a >= b) }
	case minic.EqEq:
		return func(a, b float64) int64 { mc.chFloat(c); return b2i(a == b) }
	}
	return func(a, b float64) int64 { mc.chFloat(c); return b2i(a != b) }
}

func sign(a float64) float64 {
	if a < 0 {
		return -1
	}
	return 1
}

// ptrBinary lowers pointer arithmetic and comparison. Function values
// take part as null pointers, int operands as themselves.
func (l *lowerer) ptrBinary(op minic.TokKind, x, y code, xt, yt minic.Type, pos minic.Pos) code {
	box := func(c code) valFn {
		if c.r == rPtr || c.r == rFunc {
			return code{r: rPtr, p: c.asPtr()}.asValue()
		}
		return code{r: rInt, i: c.asInt()}.asValue()
	}
	xv, yv := box(x), box(y)
	g := l.ptrOp(op, xt, yt, pos)
	get := func(fr *Seg) Value { a := xv(fr); return g(a, yv(fr)) }
	if (op == minic.Plus || op == minic.Minus) && (x.r == rPtr || x.r == rFunc) != (y.r == rPtr || y.r == rFunc) {
		return cellCode(rPtr, get)
	}
	return cellCode(rInt, get)
}

// ptrOp is the pointer operator op on boxed operands, at least one of
// them a pointer; xt and yt scale pointer arithmetic.
func (l *lowerer) ptrOp(op minic.TokKind, xt, yt minic.Type, pos minic.Pos) func(x, y Value) Value {
	mc := l.mc
	alu := l.m.IntALU
	xw, yw := ptrElemWords(xt), ptrElemWords(yt)
	return func(x, y Value) Value {
		mc.chInt(alu)
		switch op {
		case minic.Plus, minic.Minus:
			if x.K == KPtr && y.K == KInt {
				d := int(y.I) * xw
				if op == minic.Minus {
					d = -d
				}
				return ptrV(Ptr{seg: x.S, off: int(x.I) + d})
			}
			if y.K == KPtr && x.K == KInt && op == minic.Plus {
				return ptrV(Ptr{seg: y.S, off: int(y.I) + int(x.I)*yw})
			}
			if x.K == KPtr && y.K == KPtr && op == minic.Minus {
				if x.S != y.S {
					panic(rtErr(pos, "subtraction of pointers into different objects"))
				}
				return intV((x.I - y.I) / int64(xw))
			}
		case minic.EqEq:
			return intV(b2i(samePtr(x, y)))
		case minic.NotEq:
			return intV(b2i(!samePtr(x, y)))
		case minic.Lt, minic.Gt, minic.Le, minic.Ge:
			if x.K == KPtr && y.K == KPtr && x.S == y.S {
				return intV(b2i(cmpInt(op, x.I, y.I)))
			}
			panic(rtErr(pos, "relational comparison of unrelated pointers"))
		}
		panic(rtErr(pos, "invalid pointer operation %v", op))
	}
}

// samePtr compares a pointer with another pointer or the null constant 0.
func samePtr(x, y Value) bool {
	px, py := x.ptr(), y.ptr()
	if x.K == KInt {
		px = Ptr{}
	}
	if y.K == KInt {
		py = Ptr{}
	}
	return px.seg == py.seg && (px.seg == nil || px.off == py.off)
}

func ptrElemWords(t minic.Type) int {
	elem := minic.ElemOf(t)
	if elem == nil {
		return 1
	}
	if w := elem.Words(); w != 0 {
		return w
	}
	return 1
}

func cmpInt(op minic.TokKind, a, b int64) bool {
	switch op {
	case minic.Lt:
		return a < b
	case minic.Gt:
		return a > b
	case minic.Le:
		return a <= b
	default:
		return a >= b
	}
}

// assign lowers lhs = rhs: the target address first, then the value,
// converted to the target's type; a struct assignment copies word by word.
func (l *lowerer) assign(e *minic.AssignExpr) code {
	mc := l.mc
	pos := e.Pos()
	lt := e.LHS.Type()
	st := l.m.Store
	if s, ok := lt.(*minic.Struct); ok {
		dst := l.addr(e.LHS)
		src := l.expr(e.RHS).asPtr()
		n := s.Words()
		ld := l.m.Load
		return code{r: rPtr, p: func(fr *Seg) Ptr {
			d := dst(fr)
			s := src(fr)
			for i := 0; i < n; i++ {
				v := mc.load(Ptr{seg: s.seg, off: s.off + i}, pos)
				mc.chMem(ld)
				mc.store(Ptr{seg: d.seg, off: d.off + i}, v, pos)
				mc.chMem(st)
			}
			return s
		}}
	}
	r := repOf(lt)
	rhs := l.expr(e.RHS).as(r)
	if id, ok := e.LHS.(*minic.Ident); ok && id.Sym.Kind != minic.SymFunc {
		slot := id.Sym.Slot
		glob := id.Sym.Kind == minic.SymGlobal
		g := mc.globals
		switch r {
		case rInt:
			x := rhs.i
			if glob {
				return code{r: r, i: func(fr *Seg) int64 { v := x(fr); mc.writeSlot(g, slot, intV(v)); mc.chMem(st); return v }}
			}
			return code{r: r, i: func(fr *Seg) int64 { v := x(fr); mc.writeSlot(fr, slot, intV(v)); mc.chMem(st); return v }}
		case rFloat:
			x := rhs.f
			if glob {
				return code{r: r, f: func(fr *Seg) float64 { v := x(fr); mc.writeSlot(g, slot, floatV(v)); mc.chMem(st); return v }}
			}
			return code{r: r, f: func(fr *Seg) float64 { v := x(fr); mc.writeSlot(fr, slot, floatV(v)); mc.chMem(st); return v }}
		}
	}
	dst := l.addr(e.LHS)
	switch r {
	case rInt:
		x := rhs.i
		return code{r: r, i: func(fr *Seg) int64 {
			p := dst(fr)
			v := x(fr)
			mc.store(p, intV(v), pos)
			mc.chMem(st)
			return v
		}}
	case rFloat:
		x := rhs.f
		return code{r: r, f: func(fr *Seg) float64 {
			p := dst(fr)
			v := x(fr)
			mc.store(p, floatV(v), pos)
			mc.chMem(st)
			return v
		}}
	}
	x := rhs.asValue()
	return cellCode(r, func(fr *Seg) Value {
		p := dst(fr)
		v := x(fr)
		mc.store(p, v, pos)
		mc.chMem(st)
		return v
	})
}

// compound lowers lhs op= rhs as lhs = lhs op rhs with the target address
// computed once. Its operator faults carry no position.
func (l *lowerer) compound(e *minic.AssignExpr) code {
	mc := l.mc
	pos := e.Pos()
	lt := e.LHS.Type()
	op := compoundOp(e.Op)
	rhs := l.expr(e.RHS)
	xr := repOf(lt)
	var g func(a, b Value) Value
	switch {
	case xr == rPtr || xr == rFunc:
		// A pointer target joins the arithmetic as a pointer even when
		// its cell was never written.
		f := l.ptrOp(op, lt, e.RHS.Type(), minic.Pos{})
		g = func(a, b Value) Value { return f(ptrV(a.ptr()), b) }
	case rhs.r == rPtr || rhs.r == rFunc:
		g = l.ptrOp(op, lt, e.RHS.Type(), minic.Pos{})
	case xr == rFloat || rhs.r == rFloat:
		fx, fy := floatOf(xr), floatOf(rhs.r)
		switch op {
		case minic.Lt, minic.Gt, minic.Le, minic.Ge, minic.EqEq, minic.NotEq:
			c := l.floatCmp(op)
			g = func(a, b Value) Value { return intV(c(fx(a), fy(b))) }
		default:
			f := l.floatOp(op, minic.Pos{})
			g = func(a, b Value) Value { return floatV(f(fx(a), fy(b))) }
		}
	default:
		f := l.intOp(op, minic.Pos{})
		g = func(a, b Value) Value { return intV(f(a.I, b.I)) }
	}
	var y valFn
	if rhs.r == rPtr || rhs.r == rFunc {
		y = code{r: rPtr, p: rhs.asPtr()}.asValue()
	} else {
		y = rhs.asValue()
	}
	dst := l.addr(e.LHS)
	ld, st := l.m.Load, l.m.Store
	return cellCode(xr, func(fr *Seg) Value {
		p := dst(fr)
		old := mc.load(p, pos)
		mc.chMem(ld)
		nv := convert(g(old, y(fr)), lt)
		mc.store(p, nv, pos)
		mc.chMem(st)
		return nv
	})
}

// floatOf reads a boxed int or float operand as a float.
func floatOf(r rep) func(Value) float64 {
	if r == rFloat {
		return Value.float
	}
	return func(v Value) float64 { return float64(v.I) }
}

func compoundOp(op minic.TokKind) minic.TokKind {
	switch op {
	case minic.PlusEq:
		return minic.Plus
	case minic.MinusEq:
		return minic.Minus
	case minic.StarEq:
		return minic.Star
	case minic.SlashEq:
		return minic.Slash
	case minic.PercentEq:
		return minic.Percent
	case minic.ShlEq:
		return minic.Shl
	case minic.ShrEq:
		return minic.Shr
	case minic.AndEq:
		return minic.Amp
	case minic.OrEq:
		return minic.Pipe
	default:
		return minic.Caret
	}
}

// cond lowers c ? a : b; the branches convert to the expression's type.
func (l *lowerer) cond(e *minic.Cond) code {
	mc := l.mc
	br := l.m.Branch
	c := l.expr(e.Cond).truth()
	r := repOf(e.Type())
	a, b := l.expr(e.Then).as(r), l.expr(e.Else).as(r)
	switch r {
	case rInt:
		x, y := a.i, b.i
		return code{r: r, i: func(fr *Seg) int64 {
			mc.chBranch(br)
			if c(fr) {
				return x(fr)
			}
			return y(fr)
		}}
	case rFloat:
		x, y := a.f, b.f
		return code{r: r, f: func(fr *Seg) float64 {
			mc.chBranch(br)
			if c(fr) {
				return x(fr)
			}
			return y(fr)
		}}
	}
	x, y := a.asValue(), b.asValue()
	return cellCode(r, func(fr *Seg) Value {
		mc.chBranch(br)
		if c(fr) {
			return x(fr)
		}
		return y(fr)
	})
}

// cast lowers an explicit conversion; int/float conversions cost Conv.
func (l *lowerer) cast(e *minic.Cast) code {
	x := l.expr(e.X)
	from := e.X.Type()
	if !minic.IsArith(e.To) || !minic.IsArith(from) || minic.Identical(e.To, from) {
		return x.as(repOf(e.To))
	}
	mc := l.mc
	conv := l.m.Conv
	if minic.IsInt(e.To) {
		f := x.asFloat()
		return code{r: rInt, i: func(fr *Seg) int64 { v := f(fr); mc.chInt(conv); return int64(v) }}
	}
	i := x.asInt()
	return code{r: rFloat, f: func(fr *Seg) float64 { v := i(fr); mc.chInt(conv); return float64(v) }}
}
