package sacvm

import (
	"fmt"
	"math"

	"repro/internal/array"
)

// val is the evaluator's working form of a SaC value.  Scalars are held
// unboxed, so scalar arithmetic, comparisons, conditions and full-rank
// selections never allocate; every other value is an array Value of rank
// one or more.  Vals become Values only where a Value is handed out: the
// results of Interp.Call, snet_out arguments, and the inputs of array
// primitives that take arrays.
type val struct {
	t tag
	x uint64 // payload of an unboxed scalar: int, bool (0/1) or float64 bits
	a Value  // the array when t == vArray
}

// tag says which form a val is in.  The zero tag marks a frame slot that
// has not been assigned yet.
type tag uint8

const (
	vUndef tag = iota
	vInt
	vBool
	vDouble
	vArray
)

func intv(n int) val { return val{t: vInt, x: uint64(n)} }

func boolv(b bool) val {
	if b {
		return val{t: vBool, x: 1}
	}
	return val{t: vBool}
}

func dblv(f float64) val { return val{t: vDouble, x: math.Float64bits(f)} }

func (v val) ival() int       { return int(v.x) }
func (v val) bval() bool      { return v.x != 0 }
func (v val) dval() float64   { return math.Float64frombits(v.x) }
func (v val) isScalar() bool  { return v.t != vArray }
func (v val) isArray() bool   { return v.t == vArray }
func (v val) isDefined() bool { return v.t != vUndef }

// kind returns the element kind.
func (v val) kind() ValueKind {
	if v.t == vArray {
		return v.a.Kind
	}
	return ValueKind(v.t - vInt)
}

// fromValue converts a Value to a val, unboxing rank-0 arrays.  A Value
// with no array (the zero Value) becomes an unassigned val.
func fromValue(v Value) val {
	var dim int
	switch {
	case v.Kind == KindInt && v.I != nil:
		dim = v.I.Dim()
		if dim == 0 {
			return intv(v.I.ScalarValue())
		}
	case v.Kind == KindBool && v.B != nil:
		dim = v.B.Dim()
		if dim == 0 {
			return boolv(v.B.ScalarValue())
		}
	case v.Kind == KindDouble && v.D != nil:
		dim = v.D.Dim()
		if dim == 0 {
			return dblv(v.D.ScalarValue())
		}
	default:
		return val{}
	}
	return val{t: vArray, a: v}
}

// box returns the val as a Value.  Small ints and both bools come from the
// interned tables; other scalars allocate a fresh rank-0 array.
func (v val) box() Value {
	switch v.t {
	case vInt:
		n := v.ival()
		if n >= internMin && n < internMax {
			return internedInts[n-internMin]
		}
		return IntScalar(n)
	case vBool:
		return internedBools[v.x]
	case vDouble:
		return DoubleScalar(v.dval())
	}
	return v.a
}

// typeString renders the type like Value.TypeString.
func (v val) typeString() string {
	if v.t == vArray {
		return v.a.TypeString()
	}
	return v.kind().String()
}

// String renders the value like Value.String.
func (v val) String() string {
	switch v.t {
	case vInt:
		return fmt.Sprint(v.ival())
	case vBool:
		return fmt.Sprint(v.bval())
	case vDouble:
		return fmt.Sprint(v.dval())
	}
	return v.a.String()
}

// The interned Values: small ints as scalars and as 1-vectors (the shape
// and index vectors of vector code), and both bools.  They are shared by
// every Interp and every goroutine, which is sound because Values are never
// written in place (see DESIGN.md §6).
const internMin, internMax = -16, 128

var (
	internedInts  = internTable(func(n int) Value { return IntScalar(n) })
	internedVecs  = internTable(func(n int) Value { return IntVector(n) })
	internedBools = [2]Value{BoolScalar(false), BoolScalar(true)}
)

func internTable(mk func(int) Value) []Value {
	out := make([]Value, internMax-internMin)
	for i := range out {
		out[i] = mk(internMin + i)
	}
	return out
}

// emptyVec is the empty int vector: the literal [] and shape() of a scalar.
var emptyVec = val{t: vArray, a: IntValue(array.New([]int{0}, 0))}

// intVec returns an int vector holding data: interned for a 1-vector of a
// small int, else a fresh copy.
func intVec(data []int) val {
	if len(data) == 1 && data[0] >= internMin && data[0] < internMax {
		return val{t: vArray, a: internedVecs[data[0]-internMin]}
	}
	return val{t: vArray, a: IntValue(array.FromSlice([]int{len(data)}, data))}
}
