package array

import (
	"context"
	"errors"

	"repro/internal/sched"
)

// Gen describes one with-loop generator: a rectangular (optionally strided)
// index set together with the expression computed for each index.
//
// The paper's generator forms are
//
//	( lower <= iv <  upper ) : expr;
//	( lower <= iv <= upper ) : expr;
//
// which correspond to IncUpper false/true.  Full SaC additionally allows an
// exclusive lower bound and step/width grids; both are supported here for
// completeness (Step nil means dense).
type Gen[T any] struct {
	Lower, Upper []int
	ExclLower    bool  // true for "lower < iv"
	IncUpper     bool  // true for "iv <= upper"
	Step, Width  []int // optional grid filter: (iv-lower) mod step < width
	Body         func(iv []int) T
	// Chunk, when set, replaces Body: the engine calls it once per
	// scheduled chunk and uses the function it returns as the body for
	// that chunk's indices, so a body can keep scratch state private to
	// the worker running the chunk.
	Chunk func() func(iv []int) T
}

// chunkBody returns the body for one scheduled chunk.
func (g *Gen[T]) chunkBody() func(iv []int) T {
	if g.Chunk != nil {
		return g.Chunk()
	}
	return g.Body
}

// GenHalfOpen returns the common generator form lower <= iv < upper.
func GenHalfOpen[T any](lower, upper []int, body func(iv []int) T) Gen[T] {
	return Gen[T]{Lower: lower, Upper: upper, Body: body}
}

// GenClosed returns the inclusive generator form lower <= iv <= upper used
// throughout the paper's addNumber (§3).
func GenClosed[T any](lower, upper []int, body func(iv []int) T) Gen[T] {
	return Gen[T]{Lower: lower, Upper: upper, IncUpper: true, Body: body}
}

// bounds returns the effective half-open index box [lo, hi) of the
// generator.
func (g *Gen[T]) bounds() (lo, hi []int) {
	if len(g.Lower) != len(g.Upper) {
		panic(shapeErrf("withloop", "generator bounds %v and %v differ in length", g.Lower, g.Upper))
	}
	lo = cloneInts(g.Lower)
	hi = cloneInts(g.Upper)
	for d := range lo {
		if g.ExclLower {
			lo[d]++
		}
		if g.IncUpper {
			hi[d]++
		}
	}
	return lo, hi
}

func (g *Gen[T]) checkGrid(rank int) {
	if g.Step == nil {
		return
	}
	if len(g.Step) != rank || (g.Width != nil && len(g.Width) != rank) {
		panic(shapeErrf("withloop", "step/width rank mismatch (rank %d, step %v, width %v)", rank, g.Step, g.Width))
	}
	for d, s := range g.Step {
		if s < 1 {
			panic(shapeErrf("withloop", "step must be >= 1, got %v", g.Step))
		}
		if g.Width != nil && (g.Width[d] < 1 || g.Width[d] > s) {
			panic(shapeErrf("withloop", "width must be in [1, step], got step %v width %v", g.Step, g.Width))
		}
	}
}

// onGrid reports whether the offset vector off (relative to the generator's
// lower bound) lies on the generator's step/width grid.
func (g *Gen[T]) onGrid(off []int) bool {
	if g.Step == nil {
		return true
	}
	for d, o := range off {
		w := 1
		if g.Width != nil {
			w = g.Width[d]
		}
		if o%g.Step[d] >= w {
			return false
		}
	}
	return true
}

// Genarray evaluates a genarray-with-loop: an array of the given shape whose
// elements are def except where covered by a generator.  Generators are
// applied in order, so on overlap later generators win (§2 of the paper).
// Each generator's index set is evaluated data-parallel on pool p; the Body
// functions must therefore be pure (thread-safe).  The iv slice passed to
// Body is reused between calls and must not be retained.
func Genarray[T any](p *sched.Pool, shape []int, def T, gens ...Gen[T]) *Array[T] {
	res := New(shape, def)
	for i := range gens {
		applyGen(p, res, &gens[i])
	}
	return res
}

// Modarray evaluates a modarray-with-loop: a copy of src with the
// generator-covered elements replaced (§2 of the paper).
func Modarray[T any](p *sched.Pool, src *Array[T], gens ...Gen[T]) *Array[T] {
	res := src.Clone()
	for i := range gens {
		applyGen(p, res, &gens[i])
	}
	return res
}

// applyGen writes one generator into res.  Indices outside res's shape are
// skipped (the generator is intersected with the result's index space).
func applyGen[T any](p *sched.Pool, res *Array[T], g *Gen[T]) {
	rank := res.Dim()
	if len(g.Lower) != rank {
		panic(shapeErrf("withloop", "generator rank %d does not match result rank %d", len(g.Lower), rank))
	}
	g.checkGrid(rank)
	lo, hi := g.bounds()
	shape := res.ShapeRef()
	// Intersect with the result's index space.
	ext := make([]int, rank)
	total := 1
	for d := 0; d < rank; d++ {
		if lo[d] < 0 {
			// keep grid alignment anchored at the original lower
			// bound: indices below zero are skipped via bounds
			// check during iteration instead of shifting lo.
			lo[d] = 0
		}
		if hi[d] > shape[d] {
			hi[d] = shape[d]
		}
		e := hi[d] - lo[d]
		if e <= 0 {
			return // empty generator
		}
		ext[d] = e
		total *= e
	}
	if rank == 0 {
		// Degenerate scalar generator covers the single element.
		res.data[0] = g.chunkBody()(nil)
		return
	}
	err := p.For(context.Background(), total, func(lin0, lin1 int) {
		body := g.chunkBody()
		iv := make([]int, rank)
		off := make([]int, rank)
		for lin := lin0; lin < lin1; lin++ {
			LinearToIndex(lin, ext, off)
			for d := 0; d < rank; d++ {
				iv[d] = lo[d] + off[d]
				// grid offsets are relative to the declared lower bound
				off[d] = iv[d] - g.Lower[d]
			}
			if !g.onGrid(off) {
				continue
			}
			res.data[IndexToLinear(iv, shape)] = body(iv)
		}
	})
	rethrow(err)
}

// Fold evaluates a fold-with-loop: the Body values of every generator index
// are folded with op starting from neutral.  op must be associative with
// neutral as identity; the fold is evaluated in deterministic (row-major,
// generator order) combination order, so associative-but-non-commutative
// operators still match the sequential fold.
func Fold[T any](p *sched.Pool, neutral T, op func(a, b T) T, gens ...Gen[T]) T {
	acc := neutral
	for i := range gens {
		g := &gens[i]
		rank := len(g.Lower)
		g.checkGrid(rank)
		lo, hi := g.bounds()
		ext := make([]int, rank)
		total := 1
		empty := false
		for d := 0; d < rank; d++ {
			e := hi[d] - lo[d]
			if e <= 0 {
				empty = true
				break
			}
			ext[d] = e
			total *= e
		}
		if empty {
			continue
		}
		if rank == 0 {
			acc = op(acc, g.chunkBody()(nil))
			continue
		}
		part, err := sched.Reduce(p, context.Background(), total, neutral,
			func(lin0, lin1 int, a T) T {
				body := g.chunkBody()
				iv := make([]int, rank)
				off := make([]int, rank)
				for lin := lin0; lin < lin1; lin++ {
					LinearToIndex(lin, ext, off)
					for d := 0; d < rank; d++ {
						iv[d] = lo[d] + off[d]
						off[d] = iv[d] - g.Lower[d]
					}
					if !g.onGrid(off) {
						continue
					}
					a = op(a, body(iv))
				}
				return a
			}, op)
		rethrow(err)
		acc = op(acc, part)
	}
	return acc
}

// rethrow resurfaces a loop-body panic from the scheduler as a panic at the
// with-loop call site, preserving the original panic value.
func rethrow(err error) {
	if err == nil {
		return
	}
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
	panic(err)
}
