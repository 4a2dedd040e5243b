package interp

import (
	"strconv"

	"compreuse/internal/minic"
)

// ctrl is the statement-level control-flow outcome.
type ctrl int

const (
	cNone ctrl = iota
	cBreak
	cCont
	cRet
)

type stmtFn = func(*Seg) ctrl

// lowerFunc lowers lf's body on its first call.
func (mc *machine) lowerFunc(lf *lfunc) {
	l := &lowerer{mc: mc, m: mc.m, lf: lf}
	lf.body = l.stmt(lf.decl.Body)
}

// initGlobals zero-fills global storage and evaluates initializers in
// declaration order (later globals may read earlier ones).
func (mc *machine) initGlobals() {
	l := &lowerer{mc: mc, m: mc.m}
	fr := &Seg{name: "init"}
	data := mc.globals.data
	for _, g := range mc.prog.Globals {
		base := g.Sym.Slot
		if g.Init != nil {
			data[base] = valueAs(l.expr(g.Init), g.Type)(fr)
		}
		if g.InitList != nil {
			at := g.Type.(*minic.Array)
			et := scalarElem(at)
			for i, e := range g.InitList {
				data[base+i] = valueAs(l.expr(e), et)(fr)
			}
			// Remaining cells stay zero, with the element's kind.
			zero := zeroOf(et)
			for i := len(g.InitList); i < at.Words(); i++ {
				data[base+i] = zero
			}
		}
	}
}

// scalarElem returns the ultimate scalar element type of a (possibly
// nested) array type.
func scalarElem(t minic.Type) minic.Type {
	for {
		at, ok := t.(*minic.Array)
		if !ok {
			return t
		}
		t = at.Elem
	}
}

// zeroOf is the zero of type t as an assignment stores it.
func zeroOf(t minic.Type) Value { return convert(Value{}, t) }

// stmt lowers a statement. Every statement counts one step against the
// step limit before it does anything else.
func (l *lowerer) stmt(s minic.Stmt) stmtFn {
	mc := l.mc
	pos := s.Pos()
	switch s := s.(type) {
	case *minic.Block:
		list := make([]stmtFn, len(s.Stmts))
		for i, st := range s.Stmts {
			list[i] = l.stmt(st)
		}
		return func(fr *Seg) ctrl {
			mc.step(pos)
			for _, st := range list {
				if c := st(fr); c != cNone {
					return c
				}
			}
			return cNone
		}

	case *minic.DeclStmt:
		inits := make([]func(*Seg), len(s.Decls))
		for i, d := range s.Decls {
			inits[i] = l.decl(d)
		}
		if len(inits) == 1 {
			init := inits[0]
			return func(fr *Seg) ctrl { mc.step(pos); init(fr); return cNone }
		}
		return func(fr *Seg) ctrl {
			mc.step(pos)
			for _, init := range inits {
				init(fr)
			}
			return cNone
		}

	case *minic.ExprStmt:
		x := l.expr(s.X).effect()
		return func(fr *Seg) ctrl { mc.step(pos); x(fr); return cNone }

	case *minic.IfStmt:
		return l.ifStmt(s)
	case *minic.WhileStmt:
		return l.whileStmt(s)
	case *minic.ForStmt:
		return l.forStmt(s)

	case *minic.BreakStmt:
		return func(*Seg) ctrl { mc.step(pos); return cBreak }
	case *minic.ContinueStmt:
		return func(*Seg) ctrl { mc.step(pos); return cCont }
	case *minic.EmptyStmt:
		return func(*Seg) ctrl { mc.step(pos); return cNone }
	case *minic.ReturnStmt:
		if s.X == nil {
			return func(*Seg) ctrl { mc.step(pos); mc.retVal = Value{}; return cRet }
		}
		x := l.expr(s.X)
		var v valFn
		if ret := l.lf.decl.Ret; minic.IsVoid(ret) {
			v = x.asValue()
		} else {
			v = valueAs(x, ret)
		}
		return func(fr *Seg) ctrl { mc.step(pos); mc.retVal = v(fr); return cRet }
	case *minic.ReuseRegion:
		if s.Dep {
			return l.depRegion(s)
		}
		return l.region(s)
	}
	return func(*Seg) ctrl { mc.step(pos); panic(rtErr(pos, "unhandled statement %T", s)) }
}

// decl lowers one local declaration. An initialized scalar costs a local
// access, each initializer-list element a store; the rest is zeroed free.
func (l *lowerer) decl(d *minic.VarDecl) func(*Seg) {
	mc := l.mc
	base := d.Sym.Slot
	n := d.Type.Words()
	switch {
	case d.Init != nil:
		v := valueAs(l.expr(d.Init), d.Type)
		if la := l.m.LocalAccess; la != 0 {
			return func(fr *Seg) { fr.data[base] = v(fr); mc.chMem(la) }
		}
		return func(fr *Seg) { fr.data[base] = v(fr) }
	case d.InitList != nil:
		et := scalarElem(d.Type)
		vals := make([]valFn, len(d.InitList))
		for i, e := range d.InitList {
			vals[i] = valueAs(l.expr(e), et)
		}
		zero := zeroOf(et)
		st := l.m.Store
		return func(fr *Seg) {
			for i, v := range vals {
				fr.data[base+i] = v(fr)
				mc.chMem(st)
			}
			for i := len(vals); i < n; i++ {
				fr.data[base+i] = zero
			}
		}
	}
	// Zero-initialize so reads of uninitialized locals are deterministic
	// (MiniC is stricter than C here).
	if minic.IsFloat(scalarElem(d.Type)) {
		zero := floatV(0)
		return func(fr *Seg) {
			for i := base; i < base+n; i++ {
				fr.data[i] = zero
			}
		}
	}
	return func(fr *Seg) { clear(fr.data[base : base+n]) }
}

func (l *lowerer) ifStmt(s *minic.IfStmt) stmtFn {
	mc := l.mc
	pos := s.Pos()
	br := l.m.Branch
	cond := l.expr(s.Cond).truth()
	then := l.stmt(s.Then)
	tc := mc.counter(s.Then.ID())
	if s.Else == nil {
		return func(fr *Seg) ctrl {
			mc.step(pos)
			mc.chBranch(br)
			if cond(fr) {
				*tc++
				return then(fr)
			}
			return cNone
		}
	}
	els := l.stmt(s.Else)
	ec := mc.counter(s.Else.ID())
	return func(fr *Seg) ctrl {
		mc.step(pos)
		mc.chBranch(br)
		if cond(fr) {
			*tc++
			return then(fr)
		}
		*ec++
		return els(fr)
	}
}

func (l *lowerer) whileStmt(s *minic.WhileStmt) stmtFn {
	mc := l.mc
	pos := s.Pos()
	br := l.m.Branch
	cond := l.expr(s.Cond).truth()
	body := l.stmt(s.Body)
	cnt := mc.counter(s.ID())
	if s.DoWhile {
		return func(fr *Seg) ctrl {
			mc.step(pos)
			for {
				*cnt++
				switch body(fr) {
				case cBreak:
					return cNone
				case cRet:
					return cRet
				}
				mc.chBranch(br)
				if !cond(fr) {
					return cNone
				}
			}
		}
	}
	return func(fr *Seg) ctrl {
		mc.step(pos)
		for {
			mc.chBranch(br)
			if !cond(fr) {
				return cNone
			}
			*cnt++
			switch body(fr) {
			case cBreak:
				return cNone
			case cRet:
				return cRet
			}
		}
	}
}

func (l *lowerer) forStmt(s *minic.ForStmt) stmtFn {
	mc := l.mc
	pos := s.Pos()
	br := l.m.Branch
	init := func(*Seg) ctrl { return cNone }
	if s.Init != nil {
		init = l.stmt(s.Init)
	}
	cond := func(*Seg) bool { return true }
	if s.Cond != nil {
		c := l.expr(s.Cond).truth()
		cond = func(fr *Seg) bool { mc.chBranch(br); return c(fr) }
	}
	post := func(*Seg) {}
	if s.Post != nil {
		post = l.expr(s.Post).effect()
	}
	body := l.stmt(s.Body)
	cnt := mc.counter(s.ID())
	return func(fr *Seg) ctrl {
		mc.step(pos)
		init(fr)
		for cond(fr) {
			*cnt++
			switch body(fr) {
			case cBreak:
				return cNone
			case cRet:
				return cRet
			}
			post(fr)
		}
		return cNone
	}
}

// call lowers a builtin, direct or indirect call.
func (l *lowerer) call(e *minic.Call) code {
	mc := l.mc
	pos := e.Pos()
	id, _ := e.Fun.(*minic.Ident)
	if id != nil && id.Sym != nil && id.Sym.Kind == minic.SymFunc {
		if id.Sym.FuncDecl == nil {
			return code{r: rVoid, v: l.builtin(e, id.Name)}
		}
		return l.directCall(e, id.Sym.FuncDecl)
	}
	fv := l.expr(e.Fun).asFunc()
	args := make([]valFn, len(e.Args))
	for i, a := range e.Args {
		args[i] = l.expr(a).asValue()
	}
	r := repOf(e.Type())
	var ret minic.Type = minic.VoidType
	if ft := funcTypeOf(e.Fun.Type()); ft != nil {
		ret = ft.Ret
	}
	return cellCode(r, func(fr *Seg) Value {
		fn := fv(fr)
		if fn == nil {
			panic(rtErr(pos, "call of non-function value"))
		}
		if len(fn.Params) != len(args) {
			panic(rtErr(pos, "call of %s with %d arguments, want %d", fn.Name, len(args), len(fn.Params)))
		}
		lf := mc.fn(fn)
		nf := mc.frame(lf)
		for i, a := range args {
			p := fn.Params[i]
			nf.data[p.Sym.Slot] = convert(a(fr), p.Type)
		}
		return convert(mc.enter(lf, nf, pos), ret)
	})
}

// directCall lowers a call of a named function: the designator costs one
// ALU operation, and each argument is converted straight into the callee's
// new frame.
func (l *lowerer) directCall(e *minic.Call, decl *minic.FuncDecl) code {
	mc := l.mc
	pos := e.Pos()
	lf := mc.fn(decl)
	alu := l.m.IntALU
	args := make([]valFn, len(e.Args))
	slots := make([]int, len(e.Args))
	for i, a := range e.Args {
		args[i] = valueAs(l.expr(a), decl.Params[i].Type)
		slots[i] = decl.Params[i].Sym.Slot
	}
	call := func(fr *Seg) Value {
		mc.chInt(alu)
		nf := mc.frame(lf)
		for i, a := range args {
			nf.data[slots[i]] = a(fr)
		}
		return mc.enter(lf, nf, pos)
	}
	switch r := repOf(decl.Ret); r {
	case rInt:
		return code{r: r, i: func(fr *Seg) int64 { return call(fr).I }}
	case rFloat:
		return code{r: r, f: func(fr *Seg) float64 { return call(fr).float() }}
	case rVoid:
		return code{r: r, v: func(fr *Seg) { call(fr) }}
	default:
		return cellCode(r, call)
	}
}

// funcTypeOf extracts the function type of a designator or function
// pointer.
func funcTypeOf(t minic.Type) *minic.FuncType {
	switch t := t.(type) {
	case *minic.FuncType:
		return t
	case *minic.Pointer:
		ft, _ := t.Elem.(*minic.FuncType)
		return ft
	}
	return nil
}

// builtin lowers a call of a builtin: each costs a call, no return.
func (l *lowerer) builtin(e *minic.Call, name string) voidFn {
	mc := l.mc
	pos := e.Pos()
	cc := l.m.Call
	switch name {
	case "print_int":
		x := l.expr(e.Args[0]).asInt()
		return func(fr *Seg) {
			mc.cycles += cc
			mc.ops.Calls++
			mc.out.WriteString(strconv.FormatInt(x(fr), 10))
			mc.out.WriteByte('\n')
		}
	case "print_float":
		x := l.expr(e.Args[0]).asFloat()
		return func(fr *Seg) {
			mc.cycles += cc
			mc.ops.Calls++
			// %.6g keeps output stable across O-levels with differing
			// rounding of the same computation.
			mc.out.WriteString(strconv.FormatFloat(x(fr), 'g', 6, 64))
			mc.out.WriteByte('\n')
		}
	case "print_str":
		s := e.Args[0].(*minic.StrLit).Val
		return func(*Seg) {
			mc.cycles += cc
			mc.ops.Calls++
			mc.out.WriteString(s)
			mc.out.WriteByte('\n')
		}
	case "__assert":
		x := l.expr(e.Args[0]).truth()
		return func(fr *Seg) {
			mc.cycles += cc
			mc.ops.Calls++
			if !x(fr) {
				panic(rtErr(pos, "assertion failed"))
			}
		}
	}
	return func(*Seg) {
		mc.cycles += cc
		mc.ops.Calls++
		panic(rtErr(pos, "unknown builtin %s", name))
	}
}
