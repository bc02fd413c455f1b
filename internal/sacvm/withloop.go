package sacvm

import (
	"sync"

	"repro/internal/array"
)

// withLoop is a compiled with-loop.
type withLoop struct {
	wl       *WithLoop
	gens     []generator
	a1, a2   expr
	intFold  func(int, int) int
	boolFold func(bool, bool) bool
	dblFold  func(float64, float64) float64
	// runs pools the evaluation state of this with-loop per element kind
	// (int, bool, double), so a warm with-loop reuses its body frames.
	runs [3]sync.Pool
}

// generator is a compiled generator; its index variable lives in slot.
type generator struct {
	spec   *GenSpec
	lo, hi expr
	slot   int
	body   expr
}

func (c *compiler) withLoop(wl *WithLoop) expr {
	w := &withLoop{wl: wl, gens: make([]generator, len(wl.Gens))}
	for i := range wl.Gens {
		g := &wl.Gens[i]
		gen := generator{spec: g, lo: c.expr(g.Lower), hi: c.expr(g.Upper), slot: c.nslots}
		c.nslots++
		c.scope = append(c.scope, binding{g.Var, gen.slot})
		c.assigns(gen.slot)
		gen.body = c.expr(g.Body)
		c.scope = c.scope[:len(c.scope)-1]
		w.gens[i] = gen
	}
	w.a1 = c.expr(wl.A1)
	if wl.A2 != nil {
		w.a2 = c.expr(wl.A2)
	}
	if wl.Kind == GenFold {
		w.intFold, w.boolFold, w.dblFold = intFoldOp(wl.Op), boolFoldOp(wl.Op), dblFoldOp(wl.Op)
	}
	return w.eval
}

// bounds is one generator's evaluated index range.
type bounds struct {
	lo, hi []int
}

// eval runs the with-loop.  Generator bodies run data-parallel on the
// interpreter's pool.  Each scheduled chunk runs its body on a private copy
// of the enclosing frame (see withRun); the enclosing frame is only read,
// which is sound because Core SaC expressions cannot assign.
func (w *withLoop) eval(cx *callCtx, fr []val) (out val, err error) {
	wl := w.wl
	defer catch(&err, wl.At, "")
	var bsBuf [4]bounds
	bs := bsBuf[:0]
	for i := range w.gens {
		g := &w.gens[i]
		lo, err := boundVector(cx, fr, g.lo, g.spec.Lower.epos())
		if err != nil {
			return val{}, err
		}
		hi, err := boundVector(cx, fr, g.hi, g.spec.Upper.epos())
		if err != nil {
			return val{}, err
		}
		if len(lo) != len(hi) {
			return val{}, errf(g.spec.At, "generator bounds %v and %v differ in length", lo, hi)
		}
		bs = append(bs, bounds{lo, hi})
	}
	bcx := cx.body
	p := cx.itp.pool
	switch wl.Kind {
	case GenGenarray:
		shapeV, err := w.a1(cx, fr)
		if err != nil {
			return val{}, err
		}
		shape, err := intVector(shapeV, nil, wl.A1.epos())
		if err != nil {
			return val{}, err
		}
		def, err := w.a2(cx, fr)
		if err != nil {
			return val{}, err
		}
		if !def.isScalar() {
			return val{}, errf(wl.A2.epos(), "genarray default must be scalar (non-scalar defaults are outside this subset)")
		}
		switch def.t {
		case vInt:
			r := takeRun(w, bcx, fr, bs, vInt, val.ival)
			defer r.release()
			return fromValue(IntValue(array.Genarray(p, shape, def.ival(), r.gens...))), nil
		case vBool:
			r := takeRun(w, bcx, fr, bs, vBool, val.bval)
			defer r.release()
			return fromValue(BoolValue(array.Genarray(p, shape, def.bval(), r.gens...))), nil
		default:
			r := takeRun(w, bcx, fr, bs, vDouble, val.dval)
			defer r.release()
			return fromValue(DoubleValue(array.Genarray(p, shape, def.dval(), r.gens...))), nil
		}

	case GenModarray:
		src, err := w.a1(cx, fr)
		if err != nil {
			return val{}, err
		}
		s := src.box()
		switch s.Kind {
		case KindInt:
			r := takeRun(w, bcx, fr, bs, vInt, val.ival)
			defer r.release()
			return fromValue(IntValue(array.Modarray(p, s.I, r.gens...))), nil
		case KindBool:
			r := takeRun(w, bcx, fr, bs, vBool, val.bval)
			defer r.release()
			return fromValue(BoolValue(array.Modarray(p, s.B, r.gens...))), nil
		default:
			r := takeRun(w, bcx, fr, bs, vDouble, val.dval)
			defer r.release()
			return fromValue(DoubleValue(array.Modarray(p, s.D, r.gens...))), nil
		}

	default: // GenFold
		neutral, err := w.a1(cx, fr)
		if err != nil {
			return val{}, err
		}
		if !neutral.isScalar() {
			return val{}, errf(wl.A1.epos(), "fold neutral must be scalar")
		}
		k := neutral.kind()
		switch {
		case k == KindInt && w.intFold != nil:
			r := takeRun(w, bcx, fr, bs, vInt, val.ival)
			defer r.release()
			return intv(array.Fold(p, neutral.ival(), w.intFold, r.gens...)), nil
		case k == KindBool && w.boolFold != nil:
			r := takeRun(w, bcx, fr, bs, vBool, val.bval)
			defer r.release()
			return boolv(array.Fold(p, neutral.bval(), w.boolFold, r.gens...)), nil
		case k == KindDouble && w.dblFold != nil:
			r := takeRun(w, bcx, fr, bs, vDouble, val.dval)
			defer r.release()
			return dblv(array.Fold(p, neutral.dval(), w.dblFold, r.gens...)), nil
		}
		return val{}, errf(wl.At, "fold operator %q not defined on %s", wl.Op, k)
	}
}

// boundVector evaluates a generator bound to an index vector; a scalar
// becomes a 1-element vector.  Array data is read in place.
func boundVector(cx *callCtx, fr []val, e expr, at Pos) ([]int, error) {
	v, err := e(cx, fr)
	if err != nil {
		return nil, err
	}
	return intVector(v, nil, at)
}

// withRun is the state of one evaluation of a with-loop at element type
// T: the generators handed to the array engine and a private body frame
// for every chunk the engine schedules.  Runs are pooled per with-loop, so
// a warm with-loop allocates neither generators nor frames.
type withRun[T any] struct {
	w    *withLoop
	want tag // the scalar tag bodies must yield
	get  func(val) T
	gens []array.Gen[T]

	cx *callCtx
	fr []val // the enclosing frame, only read

	mu     sync.Mutex
	frames []*bodyFrame[T]
	used   int // frames handed out in this evaluation
}

// bodyFrame is one chunk's frame: a copy of the enclosing frame whose
// index-variable slot holds a vector rewritten for every element.  That
// vector is the one array the evaluator writes in place; it is private to
// the chunk, and snet_out copies it (see callCtx.inBody).
type bodyFrame[T any] struct {
	fr   []val
	ivv  val   // the index vector as a value
	iv   []int // its data
	gen  *generator
	body func(iv []int) T
}

// takeRun returns a run of w, from its pool if one is free, set up for one
// evaluation.  A body failure panics with *Error, which the engine
// re-raises at the with-loop and catch turns back into an error.
func takeRun[T any](w *withLoop, cx *callCtx, fr []val, bs []bounds, want tag, get func(val) T) *withRun[T] {
	r, _ := w.runs[want-vInt].Get().(*withRun[T])
	if r == nil {
		r = &withRun[T]{w: w, want: want, get: get, gens: make([]array.Gen[T], len(w.gens))}
		for i := range r.gens {
			g := &w.gens[i]
			r.gens[i] = array.Gen[T]{ExclLower: !g.spec.LowerIncl, IncUpper: g.spec.UpperIncl,
				Chunk: func() func(iv []int) T { return r.chunk(g, len(r.gens[i].Lower)) }}
		}
	}
	r.cx, r.fr, r.used = cx, fr, 0
	for i, b := range bs {
		r.gens[i].Lower, r.gens[i].Upper = b.lo, b.hi
	}
	return r
}

// chunk hands out the body of one scheduled chunk of generator g.
func (r *withRun[T]) chunk(g *generator, rank int) func(iv []int) T {
	r.mu.Lock()
	if r.used == len(r.frames) {
		r.frames = append(r.frames, r.newFrame())
	}
	bf := r.frames[r.used]
	r.used++
	r.mu.Unlock()
	copy(bf.fr, r.fr)
	if len(bf.iv) != rank {
		ivArr := array.New([]int{rank}, 0)
		bf.iv, bf.ivv = ivArr.Data(), val{t: vArray, a: IntValue(ivArr)}
	}
	bf.fr[g.slot], bf.gen = bf.ivv, g
	return bf.body
}

func (r *withRun[T]) newFrame() *bodyFrame[T] {
	bf := &bodyFrame[T]{fr: make([]val, len(r.fr))}
	bf.body = func(iv []int) T {
		copy(bf.iv, iv)
		v, err := bf.gen.body(r.cx, bf.fr)
		if err != nil {
			panic(err)
		}
		if v.t != r.want {
			panic(errf(bf.gen.spec.Body.epos(), "with-loop body must yield a %s scalar, got %s", ValueKind(r.want-vInt), v.typeString()))
		}
		return r.get(v)
	}
	return bf
}

// release returns the run to its pool once the engine has returned, when
// no chunk is running any more.  It drops the evaluation's references so a
// pooled run keeps no values alive.
func (r *withRun[T]) release() {
	for _, bf := range r.frames[:r.used] {
		clear(bf.fr)
	}
	for i := range r.gens {
		r.gens[i].Lower, r.gens[i].Upper = nil, nil
	}
	r.cx, r.fr = nil, nil
	r.w.runs[r.want-vInt].Put(r)
}

func intFoldOp(op string) func(int, int) int {
	switch op {
	case "+":
		return func(a, b int) int { return a + b }
	case "*":
		return func(a, b int) int { return a * b }
	case "min":
		return func(a, b int) int { return min(a, b) }
	case "max":
		return func(a, b int) int { return max(a, b) }
	}
	return nil
}

func boolFoldOp(op string) func(bool, bool) bool {
	switch op {
	case "&&":
		return func(a, b bool) bool { return a && b }
	case "||":
		return func(a, b bool) bool { return a || b }
	}
	return nil
}

func dblFoldOp(op string) func(float64, float64) float64 {
	switch op {
	case "+":
		return func(a, b float64) float64 { return a + b }
	case "*":
		return func(a, b float64) float64 { return a * b }
	case "min":
		return func(a, b float64) float64 { return min(a, b) }
	case "max":
		return func(a, b float64) float64 { return max(a, b) }
	}
	return nil
}
