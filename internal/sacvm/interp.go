package sacvm

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/sched"
)

// EmitFn receives snet_out calls made by interpreted code — the interface
// function through which a SaC box function produces its output records
// (§4).  Outside box contexts snet_out is an error.
type EmitFn func(variant int, vals []Value) error

// Interp evaluates a parsed SaC program.  New compiles every function once
// into closures over slot-indexed frames; Call only runs them.  It is safe
// for concurrent Call invocations: all mutable state is per-call.
type Interp struct {
	prog *Program
	pool *sched.Pool
	out  io.Writer
	funs map[string]*fun
}

// New returns an interpreter for prog whose with-loops execute on pool.
func New(prog *Program, pool *sched.Pool) *Interp {
	if pool == nil {
		pool = sched.New(1)
	}
	itp := &Interp{prog: prog, pool: pool, funs: make(map[string]*fun, len(prog.Funs))}
	for name, fd := range prog.Funs {
		itp.funs[name] = &fun{decl: fd}
	}
	for _, f := range itp.funs {
		compileFun(itp, f)
	}
	return itp
}

// SetOutput directs the print builtin (default: discard).
func (itp *Interp) SetOutput(w io.Writer) { itp.out = w }

// HasFun reports whether the program defines the named function.
func (itp *Interp) HasFun(name string) bool {
	_, ok := itp.prog.Funs[name]
	return ok
}

// Call invokes a defined function with the given arguments.  emit handles
// snet_out calls (nil means snet_out is unavailable).
func (itp *Interp) Call(name string, args []Value, emit EmitFn) ([]Value, error) {
	f, ok := itp.funs[name]
	if !ok {
		return nil, fmt.Errorf("sac: undefined function %q", name)
	}
	if len(args) != len(f.decl.Params) {
		return nil, errf(Pos{}, "%s expects %d arguments, got %d", f.decl.Name, len(f.decl.Params), len(args))
	}
	fr := make([]val, f.nslots)
	for i, a := range args {
		if fr[i] = fromValue(a); !fr[i].isDefined() {
			return nil, errf(Pos{}, "%s: argument %d holds no array", f.decl.Name, i+1)
		}
	}
	cxs := &[2]callCtx{{itp: itp, emit: emit}, {itp: itp, emit: emit, inBody: true}}
	cxs[0].body, cxs[1].body = &cxs[1], &cxs[1]
	rs, err := f.run(&cxs[0], fr)
	if err != nil || rs == nil {
		return nil, err
	}
	out := make([]Value, len(rs))
	for i, v := range rs {
		out[i] = v.box()
	}
	return out, nil
}

// callCtx carries what one Call shares across its frames: the interpreter
// and the snet_out sink.  It is read-only once built.
type callCtx struct {
	itp  *Interp
	emit EmitFn
	// inBody is set while a with-loop body runs: its index vector is an
	// array rewritten in place for every element, so snet_out copies the
	// arrays it hands out.
	inBody bool
	body   *callCtx // the context with-loop bodies run in
}

// A frame is the []val of one function activation.  Slots are laid out at
// compile time: parameters first, then the function's return slots, then
// every other variable and every with-loop index variable.  With-loop
// bodies run on a private per-chunk copy of the enclosing frame.
type (
	expr  func(cx *callCtx, fr []val) (val, error)
	multi func(cx *callCtx, fr []val) ([]val, error)
	// stmt runs a statement.  A non-nil result means the statement
	// executed a return with those values.
	stmt func(cx *callCtx, fr []val) ([]val, error)
)

// noVals is the result of `return;`: non-nil, so it still signals a return.
var noVals = []val{}

// fun is a compiled function definition.
type fun struct {
	decl   *FunDecl
	nslots int
	body   stmt
	void   bool
}

// run executes the function on a frame whose parameter slots are filled.
// The returned slice may alias the frame.
func (f *fun) run(cx *callCtx, fr []val) ([]val, error) {
	rs, err := f.body(cx, fr)
	if err != nil {
		return nil, err
	}
	if rs == nil {
		if f.void {
			return nil, nil
		}
		return nil, errf(f.decl.At, "%s: missing return", f.decl.Name)
	}
	return rs, nil
}

// compiler resolves one function body to closures.
type compiler struct {
	itp    *Interp
	slots  map[string]int // function-level variables
	scope  []binding      // with-loop index variables in scope, innermost last
	nslots int
	retAt  int    // first return slot
	known  []bool // slots definitely assigned where compilation stands
}

type binding struct {
	name string
	slot int
}

func compileFun(itp *Interp, f *fun) {
	fd := f.decl
	c := &compiler{itp: itp, slots: make(map[string]int)}
	for _, p := range fd.Params {
		c.define(p.Name)
		c.assigns(c.slots[p.Name])
	}
	c.retAt = c.nslots
	c.nslots += c.maxReturnArity(fd.Body)
	assigned(fd.Body, c.define)
	f.void = len(fd.Returns) == 1 && fd.Returns[0].Base == "void"
	f.body = c.block(fd.Body)
	f.nslots = c.nslots
}

// define gives a function-level variable a slot, once.
func (c *compiler) define(name string) {
	if _, ok := c.slots[name]; !ok {
		c.slots[name] = c.nslots
		c.nslots++
	}
}

// assigns records that slot is definitely assigned from here on.
func (c *compiler) assigns(slot int) {
	for len(c.known) <= slot {
		c.known = append(c.known, false)
	}
	c.known[slot] = true
}

// meet keeps only the slots assigned on both of two paths.
func (c *compiler) meet(other []bool) {
	for i := range c.known {
		c.known[i] = c.known[i] && i < len(other) && other[i]
	}
}

// lookup resolves a name: innermost with-loop index variable first, then
// the function's variables.
func (c *compiler) lookup(name string) (int, bool) {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i].name == name {
			return c.scope[i].slot, true
		}
	}
	s, ok := c.slots[name]
	return s, ok
}

// assigned calls def for every variable a statement list assigns.
func assigned(ss []Stmt, def func(string)) {
	for _, s := range ss {
		switch s := s.(type) {
		case *AssignStmt:
			for _, t := range s.Targets {
				def(t)
			}
		case *IndexAssignStmt:
			def(s.Name)
		case *IfStmt:
			assigned(s.Then, def)
			assigned(s.Else, def)
		case *ForStmt:
			if s.Init != nil {
				assigned([]Stmt{s.Init}, def)
			}
			if s.Post != nil {
				assigned([]Stmt{s.Post}, def)
			}
			assigned(s.Body, def)
		case *WhileStmt:
			assigned(s.Body, def)
		}
	}
}

// maxReturnArity is the number of return slots a body needs: the longest
// return statement whose values all come from single-valued expressions.
func (c *compiler) maxReturnArity(ss []Stmt) int {
	n := 0
	for _, s := range ss {
		m := 0
		switch s := s.(type) {
		case *ReturnStmt:
			if !c.hasMultiCall(s.Exprs) {
				m = len(s.Exprs)
			}
		case *IfStmt:
			m = max(c.maxReturnArity(s.Then), c.maxReturnArity(s.Else))
		case *ForStmt:
			m = c.maxReturnArity(s.Body)
		case *WhileStmt:
			m = c.maxReturnArity(s.Body)
		}
		n = max(n, m)
	}
	return n
}

// hasMultiCall reports whether a value list holds a call that may yield
// other than one value.
func (c *compiler) hasMultiCall(es []Expr) bool {
	for _, e := range es {
		if call, ok := e.(*CallExpr); ok && c.results(call) != 1 {
			return true
		}
	}
	return false
}

func (c *compiler) block(ss []Stmt) stmt {
	stmts := make([]stmt, len(ss))
	for i, s := range ss {
		stmts[i] = c.stmt(s)
	}
	switch len(stmts) {
	case 0:
		return func(*callCtx, []val) ([]val, error) { return nil, nil }
	case 1:
		return stmts[0]
	}
	return func(cx *callCtx, fr []val) ([]val, error) {
		for _, s := range stmts {
			if rs, err := s(cx, fr); err != nil || rs != nil {
				return rs, err
			}
		}
		return nil, nil
	}
}

func (c *compiler) stmt(s Stmt) stmt {
	switch s := s.(type) {
	case *AssignStmt:
		return c.assign(s)
	case *IndexAssignStmt:
		return c.indexAssign(s)
	case *IfStmt:
		cond := c.cond(s.Cond, s.At)
		before := slices.Clone(c.known)
		then := c.block(s.Then)
		afterThen := c.known
		c.known = before
		els := c.block(s.Else)
		c.meet(afterThen)
		return func(cx *callCtx, fr []val) ([]val, error) {
			b, err := cond(cx, fr)
			if err != nil {
				return nil, err
			}
			if b {
				return then(cx, fr)
			}
			return els(cx, fr)
		}
	case *WhileStmt:
		return c.loop(nil, s.Cond, nil, s.Body, s.At)
	case *ForStmt:
		return c.loop(s.Init, s.Cond, s.Post, s.Body, s.At)
	case *ReturnStmt:
		return c.ret(s)
	case *ExprStmt:
		m := c.multi(s.X)
		return func(cx *callCtx, fr []val) ([]val, error) {
			_, err := m(cx, fr)
			return nil, err
		}
	}
	err := errf(s.pos(), "unknown statement %T", s)
	return func(*callCtx, []val) ([]val, error) { return nil, err }
}

// cond compiles a branch or loop condition, which must be a bool scalar.
func (c *compiler) cond(e Expr, at Pos) func(cx *callCtx, fr []val) (bool, error) {
	ce := c.expr(e)
	return func(cx *callCtx, fr []val) (bool, error) {
		v, err := ce(cx, fr)
		if err != nil {
			return false, err
		}
		if v.t != vBool {
			return false, errf(at, "expected bool scalar, got %s", v.typeString())
		}
		return v.bval(), nil
	}
}

// loop compiles while (init and post nil) and for loops.
func (c *compiler) loop(init Stmt, condE Expr, post Stmt, body []Stmt, at Pos) stmt {
	noop := func(*callCtx, []val) ([]val, error) { return nil, nil }
	initS, postS := stmt(noop), stmt(noop)
	if init != nil {
		initS = c.stmt(init)
	}
	// The body may not run: what it assigns is not known afterwards.
	before := slices.Clone(c.known)
	cond, bodyS := c.cond(condE, at), c.block(body)
	if post != nil {
		postS = c.stmt(post)
	}
	c.known = before
	return func(cx *callCtx, fr []val) ([]val, error) {
		if _, err := initS(cx, fr); err != nil {
			return nil, err
		}
		for {
			b, err := cond(cx, fr)
			if err != nil || !b {
				return nil, err
			}
			if rs, err := bodyS(cx, fr); err != nil || rs != nil {
				return rs, err
			}
			if _, err := postS(cx, fr); err != nil {
				return nil, err
			}
		}
	}
}

func (c *compiler) assign(s *AssignStmt) stmt {
	if len(s.Targets) == 1 && len(s.Exprs) == 1 && !c.hasMultiCall(s.Exprs) {
		e := c.expr(s.Exprs[0])
		t, _ := c.lookup(s.Targets[0])
		c.assigns(t)
		return func(cx *callCtx, fr []val) ([]val, error) {
			v, err := e(cx, fr)
			if err != nil {
				return nil, err
			}
			fr[t] = v
			return nil, nil
		}
	}
	targets := make([]int, len(s.Targets))
	for i, t := range s.Targets {
		targets[i], _ = c.lookup(t)
	}
	var m multi
	if len(s.Exprs) == 1 {
		m = c.multi(s.Exprs[0])
	} else {
		// Parallel assignment: every value is computed before any
		// target is written, so x, y = y, x swaps.
		ms := c.multis(s.Exprs)
		m = func(cx *callCtx, fr []val) ([]val, error) {
			return ms(cx, fr, make([]val, 0, len(targets)))
		}
	}
	for _, t := range targets {
		c.assigns(t)
	}
	return func(cx *callCtx, fr []val) ([]val, error) {
		vs, err := m(cx, fr)
		if err != nil {
			return nil, err
		}
		if len(vs) != len(targets) {
			return nil, errf(s.At, "assignment of %d values to %d targets", len(vs), len(targets))
		}
		for i, t := range targets {
			fr[t] = vs[i]
		}
		return nil, nil
	}
}

func (c *compiler) ret(s *ReturnStmt) stmt {
	if !c.hasMultiCall(s.Exprs) {
		es := c.exprs(s.Exprs)
		base := c.retAt
		return func(cx *callCtx, fr []val) ([]val, error) {
			for i, e := range es {
				v, err := e(cx, fr)
				if err != nil {
					return nil, err
				}
				fr[base+i] = v
			}
			return fr[base : base+len(es) : base+len(es)], nil
		}
	}
	if len(s.Exprs) == 1 {
		m := c.multi(s.Exprs[0])
		return func(cx *callCtx, fr []val) ([]val, error) {
			rs, err := m(cx, fr)
			if err == nil && rs == nil {
				rs = noVals
			}
			return rs, err
		}
	}
	ms := c.multis(s.Exprs)
	return func(cx *callCtx, fr []val) ([]val, error) {
		return ms(cx, fr, make([]val, 0, len(s.Exprs)))
	}
}

// multi compiles an expression in a context that accepts any number of
// values: a call yields its results, anything else one value.
func (c *compiler) multi(e Expr) multi {
	if call, ok := e.(*CallExpr); ok {
		return c.callMany(call)
	}
	one := c.expr(e)
	return func(cx *callCtx, fr []val) ([]val, error) {
		v, err := one(cx, fr)
		if err != nil {
			return nil, err
		}
		return []val{v}, nil
	}
}

// multis compiles an expression list whose values are appended, in order,
// to dst.
func (c *compiler) multis(es []Expr) func(cx *callCtx, fr []val, dst []val) ([]val, error) {
	ms := make([]multi, len(es))
	for i, e := range es {
		ms[i] = c.multi(e)
	}
	return func(cx *callCtx, fr []val, dst []val) ([]val, error) {
		for _, m := range ms {
			vs, err := m(cx, fr)
			if err != nil {
				return nil, err
			}
			dst = append(dst, vs...)
		}
		return dst, nil
	}
}

func (c *compiler) exprs(es []Expr) []expr {
	out := make([]expr, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}
