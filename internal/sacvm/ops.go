package sacvm

import (
	"repro/internal/array"
	"repro/internal/sched"
)

// Operators, resolved to an opcode at compile time.  Scalar operands run
// through a switch on the unboxed payloads; array operands apply the
// elementwise kernel with SaC's scalar broadcast.
type opcode uint8

const (
	opAdd opcode = iota
	opSub
	opMul
	opDiv
	opMod
	opMin
	opMax
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAnd
	opOr
)

var opcodes = map[string]opcode{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"min": opMin, "max": opMax,
	"==": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
	"&&": opAnd, "||": opOr,
}

func (c *compiler) binary(e *BinExpr) expr {
	x, y := c.expr(e.X), c.expr(e.Y)
	op := opcodes[e.Op]
	if op == opAnd || op == opOr {
		// A bool scalar left operand short-circuits; the right operand is
		// then the result as it stands.
		stop := op == opOr
		return func(cx *callCtx, fr []val) (val, error) {
			xv, err := x(cx, fr)
			if err != nil {
				return val{}, err
			}
			if xv.t == vBool {
				if xv.bval() == stop {
					return xv, nil
				}
				return y(cx, fr)
			}
			yv, err := y(cx, fr)
			if err != nil {
				return val{}, err
			}
			return binop(cx.itp.pool, op, e.Op, xv, yv, e.At)
		}
	}
	return func(cx *callCtx, fr []val) (val, error) {
		xv, err := x(cx, fr)
		if err != nil {
			return val{}, err
		}
		yv, err := y(cx, fr)
		if err != nil {
			return val{}, err
		}
		if xv.t == vInt && yv.t == vInt {
			return intOp(op, e.Op, xv.ival(), yv.ival(), e.At)
		}
		return binop(cx.itp.pool, op, e.Op, xv, yv, e.At)
	}
}

// binop applies an operator to two values of any form.
func binop(p *sched.Pool, op opcode, name string, x, y val, at Pos) (val, error) {
	// int op double promotes the int scalar (sufficient for the paper's
	// programs; general promotion is not part of Core SaC).
	if x.t == vInt && y.kind() == KindDouble {
		x = dblv(float64(x.ival()))
	}
	if y.t == vInt && x.kind() == KindDouble {
		y = dblv(float64(y.ival()))
	}
	k := x.kind()
	if k != y.kind() {
		return val{}, errf(at, "operator %s on mixed types %s and %s", name, x.typeString(), y.typeString())
	}
	if x.isScalar() && y.isScalar() {
		switch k {
		case KindInt:
			return intOp(op, name, x.ival(), y.ival(), at)
		case KindBool:
			return boolOp(op, name, x.bval(), y.bval(), at)
		default:
			return dblOp(op, name, x.dval(), y.dval(), at)
		}
	}
	switch k {
	case KindInt:
		if v, ok, err := shortIntOp(op, name, x, y, at); ok {
			return v, err
		}
		xa, xs := intParts(x)
		ya, ys := intParts(y)
		if f := intArith(op, at); f != nil {
			return broadcast(p, IntValue, xa, ya, xs, ys, f, at)
		}
		if f := intCmp(op); f != nil {
			return broadcast(p, BoolValue, xa, ya, xs, ys, f, at)
		}
		return val{}, errf(at, "operator %s not defined on int", name)
	case KindBool:
		xa, xs := boolParts(x)
		ya, ys := boolParts(y)
		if f := boolFn(op); f != nil {
			return broadcast(p, BoolValue, xa, ya, xs, ys, f, at)
		}
		return val{}, errf(at, "operator %s not defined on bool", name)
	default:
		xa, xs := dblParts(x)
		ya, ys := dblParts(y)
		if f := dblArith(op); f != nil {
			return broadcast(p, DoubleValue, xa, ya, xs, ys, f, at)
		}
		if f := dblCmp(op); f != nil {
			return broadcast(p, BoolValue, xa, ya, xs, ys, f, at)
		}
		return val{}, errf(at, "operator %s not defined on double", name)
	}
}

func intOp(op opcode, name string, a, b int, at Pos) (val, error) {
	switch op {
	case opAdd:
		return intv(a + b), nil
	case opSub:
		return intv(a - b), nil
	case opMul:
		return intv(a * b), nil
	case opDiv, opMod:
		if b == 0 {
			return val{}, errf(at, "division by zero")
		}
		if op == opDiv {
			return intv(a / b), nil
		}
		return intv(a % b), nil
	case opMin:
		return intv(min(a, b)), nil
	case opMax:
		return intv(max(a, b)), nil
	case opEq:
		return boolv(a == b), nil
	case opNe:
		return boolv(a != b), nil
	case opLt:
		return boolv(a < b), nil
	case opLe:
		return boolv(a <= b), nil
	case opGt:
		return boolv(a > b), nil
	case opGe:
		return boolv(a >= b), nil
	}
	return val{}, errf(at, "operator %s not defined on int", name)
}

// shortIntOp computes int arithmetic on short vectors, such as the index
// and shape vectors of generator bounds and index expressions, inline
// instead of dispatching it to the pool.  It reports false for anything
// else: comparisons, matrices, long or unequal-length vectors.
func shortIntOp(op opcode, name string, x, y val, at Pos) (val, bool, error) {
	if op > opMax {
		return val{}, false, nil
	}
	n := -1
	for _, v := range [2]val{x, y} {
		if v.isArray() {
			sh := v.a.I.ShapeRef()
			if len(sh) != 1 || sh[0] > maxInlineRank || (n >= 0 && sh[0] != n) {
				return val{}, false, nil
			}
			n = sh[0]
		}
	}
	var buf [maxInlineRank]int
	for i := range n {
		r, err := intOp(op, name, elem(x, i), elem(y, i), at)
		if err != nil {
			return val{}, true, err
		}
		buf[i] = r.ival()
	}
	return intVec(buf[:n]), true, nil
}

// elem is element i of an int vector, or the int scalar itself.
func elem(v val, i int) int {
	if v.isArray() {
		return v.a.I.Data()[i]
	}
	return v.ival()
}

func boolOp(op opcode, name string, a, b bool, at Pos) (val, error) {
	if f := boolFn(op); f != nil {
		return boolv(f(a, b)), nil
	}
	return val{}, errf(at, "operator %s not defined on bool", name)
}

func dblOp(op opcode, name string, a, b float64, at Pos) (val, error) {
	if f := dblArith(op); f != nil {
		return dblv(f(a, b)), nil
	}
	if f := dblCmp(op); f != nil {
		return boolv(f(a, b)), nil
	}
	return val{}, errf(at, "operator %s not defined on double", name)
}

// The elementwise kernels; nil where the operator is not defined on the
// element type.

func intArith(op opcode, at Pos) func(a, b int) int {
	switch op {
	case opAdd:
		return func(a, b int) int { return a + b }
	case opSub:
		return func(a, b int) int { return a - b }
	case opMul:
		return func(a, b int) int { return a * b }
	case opDiv:
		return func(a, b int) int {
			if b == 0 {
				panic(errf(at, "division by zero"))
			}
			return a / b
		}
	case opMod:
		return func(a, b int) int {
			if b == 0 {
				panic(errf(at, "division by zero"))
			}
			return a % b
		}
	case opMin:
		return func(a, b int) int { return min(a, b) }
	case opMax:
		return func(a, b int) int { return max(a, b) }
	}
	return nil
}

func intCmp(op opcode) func(a, b int) bool {
	switch op {
	case opEq:
		return func(a, b int) bool { return a == b }
	case opNe:
		return func(a, b int) bool { return a != b }
	case opLt:
		return func(a, b int) bool { return a < b }
	case opLe:
		return func(a, b int) bool { return a <= b }
	case opGt:
		return func(a, b int) bool { return a > b }
	case opGe:
		return func(a, b int) bool { return a >= b }
	}
	return nil
}

func dblArith(op opcode) func(a, b float64) float64 {
	switch op {
	case opAdd:
		return func(a, b float64) float64 { return a + b }
	case opSub:
		return func(a, b float64) float64 { return a - b }
	case opMul:
		return func(a, b float64) float64 { return a * b }
	case opDiv:
		return func(a, b float64) float64 { return a / b }
	case opMin:
		return func(a, b float64) float64 { return min(a, b) }
	case opMax:
		return func(a, b float64) float64 { return max(a, b) }
	}
	return nil
}

func dblCmp(op opcode) func(a, b float64) bool {
	switch op {
	case opEq:
		return func(a, b float64) bool { return a == b }
	case opNe:
		return func(a, b float64) bool { return a != b }
	case opLt:
		return func(a, b float64) bool { return a < b }
	case opLe:
		return func(a, b float64) bool { return a <= b }
	case opGt:
		return func(a, b float64) bool { return a > b }
	case opGe:
		return func(a, b float64) bool { return a >= b }
	}
	return nil
}

func boolFn(op opcode) func(a, b bool) bool {
	switch op {
	case opAnd:
		return func(a, b bool) bool { return a && b }
	case opOr:
		return func(a, b bool) bool { return a || b }
	case opEq:
		return func(a, b bool) bool { return a == b }
	case opNe:
		return func(a, b bool) bool { return a != b }
	}
	return nil
}

// intParts splits a val into its array or, for a scalar, its payload.
func intParts(v val) (*array.Array[int], int) {
	if v.isArray() {
		return v.a.I, 0
	}
	return nil, v.ival()
}

func boolParts(v val) (*array.Array[bool], bool) {
	if v.isArray() {
		return v.a.B, false
	}
	return nil, v.bval()
}

func dblParts(v val) (*array.Array[float64], float64) {
	if v.isArray() {
		return v.a.D, 0
	}
	return nil, v.dval()
}

// broadcast applies f elementwise under SaC's scalar-broadcast rule and
// wraps the result: a nil array stands for the scalar beside it.  At least
// one array is non-nil.
func broadcast[T, R any](p *sched.Pool, wrap func(*array.Array[R]) Value, xa, ya *array.Array[T], xs, ys T, f func(T, T) R, at Pos) (out val, err error) {
	defer catch(&err, at, "")
	var res *array.Array[R]
	switch {
	case xa == nil:
		res = array.Map(p, ya, func(v T) R { return f(xs, v) })
	case ya == nil:
		res = array.Map(p, xa, func(v T) R { return f(v, ys) })
	case !sameShape(xa.ShapeRef(), ya.ShapeRef()):
		return val{}, errf(at, "shape mismatch %v vs %v", xa.Shape(), ya.Shape())
	default:
		res = array.Zip(p, xa, ya, f)
	}
	return fromValue(wrap(res)), nil
}

func (c *compiler) unary(e *UnaryExpr) expr {
	x := c.expr(e.X)
	return func(cx *callCtx, fr []val) (val, error) {
		xv, err := x(cx, fr)
		if err != nil {
			return val{}, err
		}
		return unop(cx.itp.pool, e.Op, xv, e.At)
	}
}

func unop(p *sched.Pool, op byte, x val, at Pos) (val, error) {
	switch op {
	case '-':
		switch {
		case x.t == vInt:
			return intv(-x.ival()), nil
		case x.t == vDouble:
			return dblv(-x.dval()), nil
		case x.kind() == KindInt:
			return fromValue(IntValue(array.Map(p, x.a.I, func(v int) int { return -v }))), nil
		case x.kind() == KindDouble:
			return fromValue(DoubleValue(array.Map(p, x.a.D, func(v float64) float64 { return -v }))), nil
		}
		return val{}, errf(at, "unary - needs numeric operand, got %s", x.typeString())
	case '!':
		switch {
		case x.t == vBool:
			return boolv(!x.bval()), nil
		case x.kind() == KindBool:
			return fromValue(BoolValue(array.Map(p, x.a.B, func(v bool) bool { return !v }))), nil
		}
		return val{}, errf(at, "! needs bool operand, got %s", x.typeString())
	}
	return val{}, errf(at, "unknown unary operator %q", string(op))
}
