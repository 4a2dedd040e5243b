// Package interp is the MiniC virtual machine. It executes checked MiniC
// programs with cycle-accurate accounting against a cost.Model, standing in
// for the paper's 206 MHz StrongARM SA-1110 (Compaq iPAQ 3650).
//
// The VM does not walk the AST. On its first call in a run, each function
// is lowered once into a tree of Go closures (lower.go, stmt.go): variable
// slots, element sizes and field offsets become constants, arithmetic is
// specialized by static type (int expressions run as func(*Seg) int64,
// float ones as func(*Seg) float64), and every cycle charge is a constant
// captured by the closure that pays it.
//
// Beyond plain execution the VM provides the two services the
// computation-reuse scheme needs:
//
//   - execution-frequency profiling (the gprof/gcov stand-in of §2.1):
//     per-node execution counts for functions, loop bodies and branches;
//   - ReuseRegion execution: value-set profiling (ModeProfile tables) and
//     the production table look-up semantics of Figure 2(b) (ModeReuse),
//     charging the modeled hashing overhead so that transformed programs
//     pay for their probes exactly as the cost model predicts.
package interp

import (
	"fmt"
	"math"

	"compreuse/internal/minic"
)

// Kind discriminates the contents of a memory cell.
type Kind uint8

// Value kinds.
const (
	KInt Kind = iota
	KFloat
	KPtr
	KFunc
)

// Seg is a storage segment: the global area or one call frame. Pointers
// reference cells within a segment, so frames stay valid while pointed-to.
type Seg struct {
	data []Value
	name string
}

// Ptr is a VM pointer: a cell offset within a segment. The zero Ptr is the
// null pointer.
type Ptr struct {
	seg *Seg
	off int
}

// Value is one memory cell, or a value whose representation is only known
// at run time (call arguments and results). I holds an int, the IEEE bits
// of a float, or a pointer's offset; S is a pointer's segment and Fn a
// function value. The zero Value is the int 0, which every typed read
// takes as 0, 0.0, the null pointer or the null function.
type Value struct {
	K  Kind
	I  int64
	S  *Seg
	Fn *minic.FuncDecl
}

func intV(i int64) Value     { return Value{K: KInt, I: i} }
func floatV(f float64) Value { return Value{K: KFloat, I: int64(math.Float64bits(f))} }
func ptrV(p Ptr) Value       { return Value{K: KPtr, I: int64(p.off), S: p.seg} }

// funcV stores a function value; the null function is a null pointer cell,
// as assigning 0 to a function pointer produces.
func funcV(fn *minic.FuncDecl) Value {
	if fn == nil {
		return Value{K: KPtr}
	}
	return Value{K: KFunc, Fn: fn}
}

func (v Value) float() float64 { return math.Float64frombits(uint64(v.I)) }
func (v Value) ptr() Ptr       { return Ptr{seg: v.S, off: int(v.I)} }

// intPart and floatPart read a cell the way the reuse key builder always
// has: the int of an int cell and the float of a float cell, 0 otherwise.
func (v Value) intPart() int64 {
	if v.K == KInt {
		return v.I
	}
	return 0
}

func (v Value) floatPart() float64 {
	if v.K == KFloat {
		return v.float()
	}
	return 0
}

// convert coerces a dynamically kinded v to the representation of type t
// (assignment semantics). Lowered code converts statically; this serves
// the paths whose source kind is only known at run time: indirect-call
// arguments and results, and reuse-table output words.
func convert(v Value, t minic.Type) Value {
	switch {
	case minic.IsInt(t):
		switch v.K {
		case KFloat:
			return intV(int64(v.float()))
		case KFunc:
			return intV(0)
		}
		// Pointer-to-int exposes the segment-relative offset.
		return intV(v.I)
	case minic.IsFloat(t):
		switch v.K {
		case KInt:
			return floatV(float64(v.I))
		case KFloat:
			return v
		}
		return floatV(0)
	default:
		if _, ok := t.(*minic.Pointer); ok && v.K == KInt {
			// Integer-to-pointer: only the null constant is meaningful in
			// the VM's segmented memory; any integer converts to null.
			return Value{K: KPtr}
		}
		// Function pointers, struct words: bit-preserving.
		return v
	}
}

// encodeScalar and decodeScalar map a scalar to and from its reuse-table
// output word.
func encodeScalar(v Value, float bool) uint64 {
	if float {
		return math.Float64bits(convert(v, minic.FloatType).float())
	}
	return uint64(convert(v, minic.IntType).I)
}

func decodeScalar(w uint64, float bool) Value {
	if float {
		return Value{K: KFloat, I: int64(w)}
	}
	return intV(int64(w))
}

// RuntimeError is a MiniC execution fault (null dereference, division by
// zero, out-of-bounds access, step limit, assertion failure).
type RuntimeError struct {
	Pos minic.Pos
	Msg string
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

func rtErr(pos minic.Pos, format string, args ...any) *RuntimeError {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
