package sacvm

import (
	"fmt"

	"repro/internal/array"
)

// results is the static result count of a call: 1 or 0 for builtins, -1
// when it is known only at run time (user functions, undefined names).
func (c *compiler) results(call *CallExpr) int {
	if _, ok := c.itp.funs[call.Name]; ok {
		return -1
	}
	if b, ok := builtins[call.Name]; ok {
		if b.proc != nil {
			return 0
		}
		return 1
	}
	return -1
}

// callMany compiles a call whose results are all taken.  The target is
// resolved once: user definitions shadow builtins, and an undefined name
// fails at run time, after its arguments are evaluated.
func (c *compiler) callMany(call *CallExpr) multi {
	args := c.exprs(call.Args)
	if f, ok := c.itp.funs[call.Name]; ok {
		return userCall(f, args, call)
	}
	b, ok := builtins[call.Name]
	switch {
	case !ok:
		return failingCall(args, errf(call.At, "undefined function %q", call.Name))
	case b.proc != nil:
		return procCall(b, args, call)
	}
	one := builtinCall(b, args, call)
	return func(cx *callCtx, fr []val) ([]val, error) {
		v, err := one(cx, fr)
		if err != nil {
			return nil, err
		}
		return []val{v}, nil
	}
}

// callOne compiles a call in single-value context.
func (c *compiler) callOne(call *CallExpr) expr {
	if c.results(call) == 1 {
		return builtinCall(builtins[call.Name], c.exprs(call.Args), call)
	}
	many := c.callMany(call)
	return func(cx *callCtx, fr []val) (val, error) {
		vs, err := many(cx, fr)
		if err != nil {
			return val{}, err
		}
		if len(vs) != 1 {
			return val{}, errf(call.At, "%s yields %d values in single-value context", call.Name, len(vs))
		}
		return vs[0], nil
	}
}

// failingCall evaluates the arguments for their errors, then fails.
func failingCall(args []expr, err error) multi {
	return func(cx *callCtx, fr []val) ([]val, error) {
		for _, a := range args {
			if _, aerr := a(cx, fr); aerr != nil {
				return nil, aerr
			}
		}
		return nil, err
	}
}

// userCall evaluates the arguments straight into the callee's new frame.
func userCall(f *fun, args []expr, call *CallExpr) multi {
	if len(args) != len(f.decl.Params) {
		return failingCall(args, errf(call.At, "%s expects %d arguments, got %d", f.decl.Name, len(f.decl.Params), len(args)))
	}
	return func(cx *callCtx, fr []val) ([]val, error) {
		callee := make([]val, f.nslots)
		for i, a := range args {
			v, err := a(cx, fr)
			if err != nil {
				return nil, err
			}
			callee[i] = v
		}
		return f.run(cx, callee)
	}
}

// builtin is a primitive: fn for the fixed-arity ones, which yield one
// value; proc for the variadic ones (print, snet_out), which yield none.
type builtin struct {
	arity int
	fn    func(cx *callCtx, a [3]val, at Pos) (val, error)
	proc  func(cx *callCtx, args []val, at Pos) error
}

// builtinCall compiles a call of a fixed-arity builtin.
func builtinCall(b *builtin, args []expr, call *CallExpr) expr {
	if len(args) != b.arity {
		failing := failingCall(args, errf(call.At, "%s expects %d arguments, got %d", call.Name, b.arity, len(args)))
		return func(cx *callCtx, fr []val) (val, error) {
			_, err := failing(cx, fr)
			return val{}, err
		}
	}
	return func(cx *callCtx, fr []val) (val, error) {
		var a [3]val
		for i, e := range args {
			v, err := e(cx, fr)
			if err != nil {
				return val{}, err
			}
			a[i] = v
		}
		return b.fn(cx, a, call.At)
	}
}

// procCall compiles a call of a variadic builtin.
func procCall(b *builtin, args []expr, call *CallExpr) multi {
	return func(cx *callCtx, fr []val) ([]val, error) {
		vs := make([]val, len(args))
		for i, a := range args {
			v, err := a(cx, fr)
			if err != nil {
				return nil, err
			}
			vs[i] = v
		}
		return nil, b.proc(cx, vs, call.At)
	}
}

// Builtins: the SaC primitives of §2 (dim, shape, sel) plus conversions
// (toi, tod, tob), scalar min/max, structural primitives, print, and the
// snet_out interface function of §4.  User definitions shadow builtins.
var builtins = map[string]*builtin{
	"dim": {arity: 1, fn: func(_ *callCtx, a [3]val, _ Pos) (val, error) {
		return intv(len(shapeOf(a[0]))), nil
	}},
	"shape": {arity: 1, fn: func(_ *callCtx, a [3]val, _ Pos) (val, error) {
		if a[0].isScalar() {
			return emptyVec, nil
		}
		return intVec(shapeOf(a[0])), nil
	}},
	"sel": {arity: 2, fn: func(_ *callCtx, a [3]val, at Pos) (val, error) {
		var buf [1]int
		iv, err := intVector(a[0], buf[:0], at)
		if err != nil {
			return val{}, err
		}
		return selectVal(a[1], iv, at)
	}},
	"toi": {arity: 1, fn: func(cx *callCtx, a [3]val, _ Pos) (val, error) {
		x := a[0]
		switch {
		case x.kind() == KindInt:
			return x, nil
		case x.t == vBool:
			return intv(int(x.x)), nil
		case x.t == vDouble:
			return intv(int(x.dval())), nil
		case x.kind() == KindBool:
			return fromValue(IntValue(array.Map(cx.itp.pool, x.a.B, func(b bool) int {
				if b {
					return 1
				}
				return 0
			}))), nil
		}
		return fromValue(IntValue(array.Map(cx.itp.pool, x.a.D, func(d float64) int { return int(d) }))), nil
	}},
	"tod": {arity: 1, fn: func(cx *callCtx, a [3]val, at Pos) (val, error) {
		x := a[0]
		switch {
		case x.kind() == KindDouble:
			return x, nil
		case x.t == vInt:
			return dblv(float64(x.ival())), nil
		case x.kind() == KindInt:
			return fromValue(DoubleValue(array.Map(cx.itp.pool, x.a.I, func(i int) float64 { return float64(i) }))), nil
		}
		return val{}, errf(at, "tod: cannot convert bool")
	}},
	"tob": {arity: 1, fn: func(cx *callCtx, a [3]val, at Pos) (val, error) {
		x := a[0]
		switch {
		case x.kind() == KindBool:
			return x, nil
		case x.t == vInt:
			return boolv(x.ival() != 0), nil
		case x.kind() == KindInt:
			return fromValue(BoolValue(array.Map(cx.itp.pool, x.a.I, func(i int) bool { return i != 0 }))), nil
		}
		return val{}, errf(at, "tob: cannot convert double")
	}},
	"min": {arity: 2, fn: func(cx *callCtx, a [3]val, at Pos) (val, error) {
		return binop(cx.itp.pool, opMin, "min", a[0], a[1], at)
	}},
	"max": {arity: 2, fn: func(cx *callCtx, a [3]val, at Pos) (val, error) {
		return binop(cx.itp.pool, opMax, "max", a[0], a[1], at)
	}},
	"take": {arity: 2, fn: structural("take", func(v Value, n int) Value {
		return kindwise(v, func(x *array.Array[int]) *array.Array[int] { return array.Take(x, n) },
			func(x *array.Array[bool]) *array.Array[bool] { return array.Take(x, n) },
			func(x *array.Array[float64]) *array.Array[float64] { return array.Take(x, n) })
	})},
	"drop": {arity: 2, fn: structural("drop", func(v Value, n int) Value {
		return kindwise(v, func(x *array.Array[int]) *array.Array[int] { return array.Drop(x, n) },
			func(x *array.Array[bool]) *array.Array[bool] { return array.Drop(x, n) },
			func(x *array.Array[float64]) *array.Array[float64] { return array.Drop(x, n) })
	})},
	"tile": {arity: 2, fn: structural("tile", func(v Value, n int) Value {
		return kindwise(v, func(x *array.Array[int]) *array.Array[int] { return array.Tile(x, n) },
			func(x *array.Array[bool]) *array.Array[bool] { return array.Tile(x, n) },
			func(x *array.Array[float64]) *array.Array[float64] { return array.Tile(x, n) })
	})},
	// rotate(axis, n, array)
	"rotate": {arity: 3, fn: func(_ *callCtx, a [3]val, at Pos) (out val, err error) {
		axis, err := asInt(a[0], at)
		if err != nil {
			return val{}, err
		}
		n, err := asInt(a[1], at)
		if err != nil {
			return val{}, err
		}
		defer catch(&err, at, "rotate")
		return fromValue(kindwise(a[2].box(), func(x *array.Array[int]) *array.Array[int] { return array.Rotate(x, axis, n) },
			func(x *array.Array[bool]) *array.Array[bool] { return array.Rotate(x, axis, n) },
			func(x *array.Array[float64]) *array.Array[float64] { return array.Rotate(x, axis, n) })), nil
	}},
	// reverse(axis, array)
	"reverse": {arity: 2, fn: func(_ *callCtx, a [3]val, at Pos) (out val, err error) {
		axis, err := asInt(a[0], at)
		if err != nil {
			return val{}, err
		}
		defer catch(&err, at, "reverse")
		return fromValue(kindwise(a[1].box(), func(x *array.Array[int]) *array.Array[int] { return array.Reverse(x, axis) },
			func(x *array.Array[bool]) *array.Array[bool] { return array.Reverse(x, axis) },
			func(x *array.Array[float64]) *array.Array[float64] { return array.Reverse(x, axis) })), nil
	}},
	"transpose": {arity: 1, fn: func(cx *callCtx, a [3]val, at Pos) (out val, err error) {
		p := cx.itp.pool
		defer catch(&err, at, "transpose")
		return fromValue(kindwise(a[0].box(), func(x *array.Array[int]) *array.Array[int] { return array.Transpose(p, x) },
			func(x *array.Array[bool]) *array.Array[bool] { return array.Transpose(p, x) },
			func(x *array.Array[float64]) *array.Array[float64] { return array.Transpose(p, x) })), nil
	}},
	"print": {arity: -1, proc: func(cx *callCtx, args []val, _ Pos) error {
		for _, a := range args {
			if cx.itp.out != nil {
				fmt.Fprintln(cx.itp.out, a.String())
			}
		}
		return nil
	}},
	"snet_out": {arity: -1, proc: snetOut},
}

// snetOut hands one output record to the box context (§4).
func snetOut(cx *callCtx, args []val, at Pos) error {
	if cx.emit == nil {
		return errf(at, "snet_out called outside a box context")
	}
	if len(args) < 1 {
		return errf(at, "snet_out needs a variant number")
	}
	variant, err := asInt(args[0], at)
	if err != nil {
		return err
	}
	vals := make([]Value, len(args)-1)
	for i, a := range args[1:] {
		vals[i] = a.box()
		if cx.inBody && a.isArray() {
			vals[i] = kindwise(vals[i], (*array.Array[int]).Clone, (*array.Array[bool]).Clone, (*array.Array[float64]).Clone)
		}
	}
	if err := cx.emit(variant, vals); err != nil {
		return errf(at, "snet_out: %s", err)
	}
	return nil
}

// structural adapts take/drop/tile: array first, int count second, shape
// errors reported at the call.
func structural(name string, f func(v Value, n int) Value) func(*callCtx, [3]val, Pos) (val, error) {
	return func(_ *callCtx, a [3]val, at Pos) (out val, err error) {
		n, err := asInt(a[1], at)
		if err != nil {
			return val{}, err
		}
		defer catch(&err, at, name)
		return fromValue(f(a[0].box(), n)), nil
	}
}

// kindwise applies the operation matching the value's element kind.
func kindwise(v Value, fi func(*array.Array[int]) *array.Array[int],
	fb func(*array.Array[bool]) *array.Array[bool],
	fd func(*array.Array[float64]) *array.Array[float64]) Value {
	switch v.Kind {
	case KindInt:
		return IntValue(fi(v.I))
	case KindBool:
		return BoolValue(fb(v.B))
	default:
		return DoubleValue(fd(v.D))
	}
}

func asInt(v val, at Pos) (int, error) {
	if v.t != vInt {
		return 0, errf(at, "expected int scalar, got %s", v.typeString())
	}
	return v.ival(), nil
}

// intVector reads an int vector (a scalar counts as a 1-vector) without
// copying array data; a scalar is appended to buf.
func intVector(v val, buf []int, at Pos) ([]int, error) {
	switch {
	case v.t == vInt:
		return append(buf, v.ival()), nil
	case v.kind() != KindInt:
		return nil, errf(at, "expected int vector, got %s", v.typeString())
	case v.a.Dim() > 1:
		return nil, errf(at, "expected int vector, got rank-%d array", v.a.Dim())
	}
	return v.a.I.Data(), nil
}
