package sacvm

import (
	"repro/internal/array"
)

// maxInlineRank is the longest index list, array literal or int vector the
// evaluator handles in a stack buffer; longer ones go to the heap or the
// pool.
const maxInlineRank = 8

func constant(v val) expr {
	return func(*callCtx, []val) (val, error) { return v, nil }
}

// The literal closures of small ints and both bools, shared by every
// compiled program.
var (
	smallIntLits = func() (t [internMax - internMin]expr) {
		for i := range t {
			t[i] = constant(intv(internMin + i))
		}
		return t
	}()
	boolLits = [2]expr{constant(boolv(false)), constant(boolv(true))}
)

func intLit(n int) expr {
	if n >= internMin && n < internMax {
		return smallIntLits[n-internMin]
	}
	return constant(intv(n))
}

func failing(err error) expr {
	return func(*callCtx, []val) (val, error) { return val{}, err }
}

func (c *compiler) expr(e Expr) expr {
	switch e := e.(type) {
	case *IntLit:
		return intLit(e.V)
	case *DoubleLit:
		return constant(dblv(e.V))
	case *BoolLit:
		return boolLits[boolv(e.V).x]
	case *VarRef:
		return c.varRef(e)
	case *ArrayLit:
		return c.arrayLit(e)
	case *UnaryExpr:
		return c.unary(e)
	case *BinExpr:
		return c.binary(e)
	case *IndexExpr:
		return c.index(e)
	case *CallExpr:
		return c.callOne(e)
	case *WithLoop:
		return c.withLoop(e)
	}
	return failing(errf(e.epos(), "unknown expression %T", e))
}

func (c *compiler) varRef(e *VarRef) expr {
	slot, ok := c.lookup(e.Name)
	if !ok {
		// Never assigned: the error stays a runtime error at the use.
		return failing(errf(e.At, "undefined variable %q", e.Name))
	}
	if slot < len(c.known) && c.known[slot] {
		return readSlot(slot)
	}
	return func(_ *callCtx, fr []val) (val, error) {
		v := fr[slot]
		if !v.isDefined() {
			return val{}, errf(e.At, "undefined variable %q", e.Name)
		}
		return v, nil
	}
}

// arrayLit builds literals whose elements are all literals once, at
// compile time; the shared value is safe because values are immutable.
func (c *compiler) arrayLit(lit *ArrayLit) expr {
	if len(lit.Elems) == 0 {
		return constant(emptyVec)
	}
	elems := c.exprs(lit.Elems)
	build := func(cx *callCtx, fr []val) (val, error) {
		var buf [maxInlineRank]val
		vs := buf[:0]
		for _, e := range elems {
			v, err := e(cx, fr)
			if err != nil {
				return val{}, err
			}
			vs = append(vs, v)
		}
		return buildArray(vs, lit.At)
	}
	if isConstant(lit) {
		v, err := build(nil, nil)
		if err != nil {
			return failing(err)
		}
		return constant(v)
	}
	return build
}

// slotReaders are the shared closures reading low frame slots that are
// definitely assigned.
var slotReaders = func() (t [32]expr) {
	for i := range t {
		t[i] = func(_ *callCtx, fr []val) (val, error) { return fr[i], nil }
	}
	return t
}()

func readSlot(slot int) expr {
	if slot < len(slotReaders) {
		return slotReaders[slot]
	}
	return func(_ *callCtx, fr []val) (val, error) { return fr[slot], nil }
}

func isConstant(e Expr) bool {
	switch e := e.(type) {
	case *IntLit, *DoubleLit, *BoolLit:
		return true
	case *ArrayLit:
		for _, el := range e.Elems {
			if !isConstant(el) {
				return false
			}
		}
		return true
	}
	return false
}

// buildArray stacks same-kind, same-shape values along a new axis 0.
func buildArray(vs []val, at Pos) (val, error) {
	k := vs[0].kind()
	if vs[0].t == vInt && len(vs) <= maxInlineRank {
		// An index vector such as [i,j]: gathered on the stack.
		var buf [maxInlineRank]int
		for i, v := range vs {
			if v.t != vInt {
				return val{}, errf(at, "array literal elements must agree in type and shape")
			}
			buf[i] = v.ival()
		}
		return intVec(buf[:len(vs)]), nil
	}
	var shape []int
	if vs[0].isArray() {
		shape = vs[0].a.Shape()
	}
	for _, v := range vs[1:] {
		if v.kind() != k || !sameShape(shapeOf(v), shape) {
			return val{}, errf(at, "array literal elements must agree in type and shape")
		}
	}
	outShape := append([]int{len(vs)}, shape...)
	switch k {
	case KindInt:
		return val{t: vArray, a: IntValue(array.FromSlice(outShape, gather(vs, val.ival, func(a Value) []int { return a.I.Data() })))}, nil
	case KindBool:
		return val{t: vArray, a: BoolValue(array.FromSlice(outShape, gather(vs, val.bval, func(a Value) []bool { return a.B.Data() })))}, nil
	default:
		return val{t: vArray, a: DoubleValue(array.FromSlice(outShape, gather(vs, val.dval, func(a Value) []float64 { return a.D.Data() })))}, nil
	}
}

// gather concatenates the elements of vs: scalar payloads or array data.
func gather[T any](vs []val, scalar func(val) T, data func(Value) []T) []T {
	if vs[0].isScalar() {
		out := make([]T, len(vs))
		for i, v := range vs {
			out[i] = scalar(v)
		}
		return out
	}
	out := make([]T, 0, len(vs)*vs[0].a.Size())
	for _, v := range vs {
		out = append(out, data(v.a)...)
	}
	return out
}

// shapeOf returns a val's shape without copying (nil for scalars).
func shapeOf(v val) []int {
	if v.isScalar() {
		return nil
	}
	switch v.a.Kind {
	case KindInt:
		return v.a.I.ShapeRef()
	case KindBool:
		return v.a.B.ShapeRef()
	default:
		return v.a.D.ShapeRef()
	}
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (c *compiler) index(e *IndexExpr) expr {
	x, idx := c.expr(e.X), c.exprs(e.Idx)
	return func(cx *callCtx, fr []val) (val, error) {
		xv, err := x(cx, fr)
		if err != nil {
			return val{}, err
		}
		var buf [maxInlineRank]int
		iv, err := indexVector(cx, fr, idx, buf[:0], e.At)
		if err != nil {
			return val{}, err
		}
		return selectVal(xv, iv, e.At)
	}
}

// indexVector evaluates an index: either one vector-valued expression
// (a[iv]), whose data is read in place, or a list of int scalars
// (a[i,j,k]) appended to buf.
func indexVector(cx *callCtx, fr []val, idx []expr, buf []int, at Pos) ([]int, error) {
	for _, ixe := range idx {
		v, err := ixe(cx, fr)
		if err != nil {
			return nil, err
		}
		if len(idx) == 1 && v.isArray() && v.a.Kind == KindInt && v.a.Dim() == 1 {
			return v.a.I.Data(), nil
		}
		if v.t != vInt {
			return nil, errf(at, "expected int scalar, got %s", v.typeString())
		}
		buf = append(buf, v.ival())
	}
	return buf, nil
}

// selectVal implements x[iv]: a full-rank index yields the element as a
// scalar, read in place; a prefix yields the subarray (§2).  iv is only
// read.
func selectVal(x val, iv []int, at Pos) (v val, err error) {
	shape := shapeOf(x)
	if len(iv) > len(shape) {
		return val{}, errf(at, "index %v longer than rank %d", append([]int(nil), iv...), len(shape))
	}
	if x.isScalar() {
		return x, nil
	}
	off, ok := offset(shape, iv)
	if !ok || len(iv) < len(shape) {
		// Subarray selection and bounds errors go through the array's
		// own Sel, on a copy of the index.
		defer catch(&err, at, "")
		ivc := append([]int(nil), iv...)
		switch x.a.Kind {
		case KindInt:
			return fromValue(IntValue(x.a.I.Sel(ivc...))), nil
		case KindBool:
			return fromValue(BoolValue(x.a.B.Sel(ivc...))), nil
		default:
			return fromValue(DoubleValue(x.a.D.Sel(ivc...))), nil
		}
	}
	switch x.a.Kind {
	case KindInt:
		return intv(x.a.I.Data()[off]), nil
	case KindBool:
		return boolv(x.a.B.Data()[off]), nil
	default:
		return dblv(x.a.D.Data()[off]), nil
	}
}

// offset returns the row-major offset of a (prefix) index, or false if an
// index is out of bounds.
func offset(shape, iv []int) (int, bool) {
	off := 0
	for d, i := range iv {
		if i < 0 || i >= shape[d] {
			return 0, false
		}
		off = off*shape[d] + i
	}
	return off, true
}

func (c *compiler) indexAssign(s *IndexAssignStmt) stmt {
	slot, _ := c.lookup(s.Name)
	idx, value := c.exprs(s.Index), c.expr(s.Value)
	c.assigns(slot) // the statement fails if the variable is undefined
	return func(cx *callCtx, fr []val) ([]val, error) {
		cur := fr[slot]
		if !cur.isDefined() {
			return nil, errf(s.At, "undefined variable %q", s.Name)
		}
		var buf [maxInlineRank]int
		iv, err := indexVector(cx, fr, idx, buf[:0], s.At)
		if err != nil {
			return nil, err
		}
		v, err := value(cx, fr)
		if err != nil {
			return nil, err
		}
		upd, err := indexUpdate(cur, iv, v, s.At)
		if err != nil {
			return nil, err
		}
		fr[slot] = upd
		return nil, nil
	}
}

// indexUpdate implements the functional update a[iv] = v for full-rank
// scalar writes: the result is a copy, never the array written in place.
func indexUpdate(cur val, iv []int, v val, at Pos) (out val, err error) {
	rank := len(shapeOf(cur))
	if len(iv) != rank {
		return val{}, errf(at, "indexed assignment needs a full index (rank %d, index %v)", rank, append([]int(nil), iv...))
	}
	if cur.kind() != v.kind() || !v.isScalar() {
		return val{}, errf(at, "indexed assignment needs a %s scalar, got %s", cur.kind(), v.typeString())
	}
	if cur.isScalar() {
		return v, nil
	}
	defer catch(&err, at, "")
	ivc := append([]int(nil), iv...)
	switch cur.a.Kind {
	case KindInt:
		return val{t: vArray, a: IntValue(cur.a.I.WithAt(v.ival(), ivc...))}, nil
	case KindBool:
		return val{t: vArray, a: BoolValue(cur.a.B.WithAt(v.bval(), ivc...))}, nil
	default:
		return val{t: vArray, a: DoubleValue(cur.a.D.WithAt(v.dval(), ivc...))}, nil
	}
}

// catch converts a panic raised by the array substrate or a with-loop body
// into the error *err: a *ShapeError is reported at `at`, prefixed by
// `prefix` when set; an *Error passes through; anything else is re-raised.
func catch(err *error, at Pos, prefix string) {
	r := recover()
	if r == nil {
		return
	}
	switch e := r.(type) {
	case *Error:
		*err = e
	case *array.ShapeError:
		if prefix != "" {
			*err = errf(at, "%s: %s", prefix, e.Error())
		} else {
			*err = errf(at, "%s", e.Error())
		}
	default:
		panic(r)
	}
}
