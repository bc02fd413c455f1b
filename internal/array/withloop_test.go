package array

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

var p1 = sched.New(1)
var p2 = sched.NewWithGrain(2, 4)

// pools exercised by every semantic test: sequential and parallel results
// must be identical (the paper's "implicit parallelism" guarantee).
var pools = []*sched.Pool{p1, p2}

// --- The paper's §2 examples, verbatim ---

func TestPaperExampleUniform42(t *testing.T) {
	// with { ([0,0] <= iv < [3,5]) : 42; }: genarray([3,5], 0)
	for _, p := range pools {
		a := Genarray(p, []int{3, 5}, 0,
			GenHalfOpen([]int{0, 0}, []int{3, 5}, func(iv []int) int { return 42 }))
		for i := 0; i < 3; i++ {
			for j := 0; j < 5; j++ {
				if a.At(i, j) != 42 {
					t.Fatalf("a[%d,%d]=%d", i, j, a.At(i, j))
				}
			}
		}
	}
}

func TestPaperExampleIota(t *testing.T) {
	// with { ([0] <= iv < [5]) : iv[0]; }: genarray([5], 0)  ==  [0,1,2,3,4]
	for _, p := range pools {
		a := Genarray(p, []int{5}, 0,
			GenHalfOpen([]int{0}, []int{5}, func(iv []int) int { return iv[0] }))
		if !Equal(a, Vector(0, 1, 2, 3, 4)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestPaperExamplePartialCover(t *testing.T) {
	// with { ([1] <= iv < [4]) : 42; }: genarray([5], 0)  ==  [0,42,42,42,0]
	for _, p := range pools {
		a := Genarray(p, []int{5}, 0,
			GenHalfOpen([]int{1}, []int{4}, func(iv []int) int { return 42 }))
		if !Equal(a, Vector(0, 42, 42, 42, 0)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestPaperExampleOverlapLaterWins(t *testing.T) {
	// with { ([1] <= iv < [4]) : 1; ([3] <= iv < [5]) : 2; }: genarray([6], 0)
	//   ==  [0,1,1,2,2,0]   (index 3 covered by both generators gets 2)
	for _, p := range pools {
		a := Genarray(p, []int{6}, 0,
			GenHalfOpen([]int{1}, []int{4}, func(iv []int) int { return 1 }),
			GenHalfOpen([]int{3}, []int{5}, func(iv []int) int { return 2 }))
		if !Equal(a, Vector(0, 1, 1, 2, 2, 0)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestPaperExampleModarray(t *testing.T) {
	// A = [0,1,1,2,2,0]; with { ([0] <= iv < [3]) : 3; }: modarray(A)
	//   ==  [3,3,3,2,2,0]
	for _, p := range pools {
		A := Vector(0, 1, 1, 2, 2, 0)
		b := Modarray(p, A,
			GenHalfOpen([]int{0}, []int{3}, func(iv []int) int { return 3 }))
		if !Equal(b, Vector(3, 3, 3, 2, 2, 0)) {
			t.Fatalf("got %v", b)
		}
		if !Equal(A, Vector(0, 1, 1, 2, 2, 0)) {
			t.Fatal("modarray mutated its source")
		}
	}
}

func TestPaperExampleConcatPlusPlus(t *testing.T) {
	// The ++ implementation from §2, expressed with the same with-loop.
	for _, p := range pools {
		a, b := Vector(1, 2, 3), Vector(4, 5)
		rshp := []int{a.Shape()[0] + b.Shape()[0]}
		res := Genarray(p, rshp, 0,
			GenHalfOpen([]int{0}, a.Shape(), func(iv []int) int { return a.At(iv[0]) }),
			GenHalfOpen(a.Shape(), rshp, func(iv []int) int { return b.At(iv[0] - a.Shape()[0]) }))
		if !Equal(res, Vector(1, 2, 3, 4, 5)) {
			t.Fatalf("++ = %v", res)
		}
		if !Equal(Concat(a, b), res) {
			t.Fatal("Concat disagrees with the with-loop ++")
		}
	}
}

// --- engine semantics beyond the paper's examples ---

func TestClosedBoundsGenerator(t *testing.T) {
	// addNumber (§3) uses  [i,j,0] <= iv <= [i,j,8]  inclusive bounds.
	for _, p := range pools {
		a := Genarray(p, []int{10}, 0,
			GenClosed([]int{2}, []int{4}, func(iv []int) int { return 1 }))
		if !Equal(a, Vector(0, 0, 1, 1, 1, 0, 0, 0, 0, 0)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestExclusiveLowerBound(t *testing.T) {
	for _, p := range pools {
		a := Genarray(p, []int{5}, 0,
			Gen[int]{Lower: []int{1}, Upper: []int{4}, ExclLower: true,
				Body: func(iv []int) int { return 7 }})
		if !Equal(a, Vector(0, 0, 7, 7, 0)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestEmptyGeneratorIsNoop(t *testing.T) {
	for _, p := range pools {
		a := Genarray(p, []int{4}, 9,
			GenHalfOpen([]int{3}, []int{3}, func(iv []int) int { return 0 }))
		if !Equal(a, Vector(9, 9, 9, 9)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestGeneratorClampedToResultShape(t *testing.T) {
	for _, p := range pools {
		a := Genarray(p, []int{3}, 0,
			GenHalfOpen([]int{-2}, []int{10}, func(iv []int) int { return iv[0] + 1 }))
		if !Equal(a, Vector(1, 2, 3)) {
			t.Fatalf("got %v", a)
		}
	}
}

func TestStepWidthGrid(t *testing.T) {
	// step 3, width 1 starting at 0: indices 0,3,6,9
	for _, p := range pools {
		a := Genarray(p, []int{10}, 0,
			Gen[int]{Lower: []int{0}, Upper: []int{10}, Step: []int{3},
				Body: func(iv []int) int { return 1 }})
		if !Equal(a, Vector(1, 0, 0, 1, 0, 0, 1, 0, 0, 1)) {
			t.Fatalf("got %v", a)
		}
		// step 4, width 2: indices 0,1, 4,5, 8,9
		b := Genarray(p, []int{10}, 0,
			Gen[int]{Lower: []int{0}, Upper: []int{10}, Step: []int{4}, Width: []int{2},
				Body: func(iv []int) int { return 1 }})
		if !Equal(b, Vector(1, 1, 0, 0, 1, 1, 0, 0, 1, 1)) {
			t.Fatalf("got %v", b)
		}
	}
}

func TestRankMismatchPanics(t *testing.T) {
	defer wantShapePanic(t, "withloop")
	Genarray(p1, []int{3, 3}, 0, GenHalfOpen([]int{0}, []int{3}, func(iv []int) int { return 1 }))
}

func TestBodyPanicSurfacesAtCallSite(t *testing.T) {
	for _, p := range pools {
		func() {
			defer func() {
				if r := recover(); r != "body-bang" {
					t.Fatalf("recovered %v", r)
				}
			}()
			Genarray(p, []int{100}, 0, GenHalfOpen([]int{0}, []int{100},
				func(iv []int) int { panic("body-bang") }))
		}()
	}
}

func TestFoldSum(t *testing.T) {
	for _, p := range pools {
		got := Fold(p, 0, func(a, b int) int { return a + b },
			GenHalfOpen([]int{0}, []int{100}, func(iv []int) int { return iv[0] }))
		if got != 99*100/2 {
			t.Fatalf("fold sum = %d", got)
		}
	}
}

func TestFoldMultipleGenerators(t *testing.T) {
	for _, p := range pools {
		got := Fold(p, 0, func(a, b int) int { return a + b },
			GenHalfOpen([]int{0}, []int{3}, func(iv []int) int { return 1 }),
			GenClosed([]int{0}, []int{3}, func(iv []int) int { return 10 }))
		if got != 3+40 {
			t.Fatalf("fold = %d", got)
		}
	}
}

func TestFoldMatrixMatchesLoop(t *testing.T) {
	for _, p := range pools {
		got := Fold(p, 0, func(a, b int) int { return a + b },
			GenHalfOpen([]int{0, 0}, []int{7, 9}, func(iv []int) int { return iv[0]*10 + iv[1] }))
		want := 0
		for i := 0; i < 7; i++ {
			for j := 0; j < 9; j++ {
				want += i*10 + j
			}
		}
		if got != want {
			t.Fatalf("fold = %d, want %d", got, want)
		}
	}
}

func TestScalarGenerator(t *testing.T) {
	for _, p := range pools {
		a := Genarray(p, nil, 0, Gen[int]{Body: func(iv []int) int { return 5 }})
		if a.ScalarValue() != 5 {
			t.Fatalf("scalar genarray = %v", a)
		}
	}
}

// Property: sequential and 2-wide parallel evaluation of a random genarray
// agree, and every covered cell holds the generator value.
func TestQuickGenarraySeqParEquivalence(t *testing.T) {
	f := func(loRaw, hiRaw [2]uint8, shapeRaw [2]uint8) bool {
		shape := []int{int(shapeRaw[0]%12) + 1, int(shapeRaw[1]%12) + 1}
		lo := []int{int(loRaw[0] % 12), int(loRaw[1] % 12)}
		hi := []int{int(hiRaw[0] % 14), int(hiRaw[1] % 14)}
		body := func(iv []int) int { return iv[0]*100 + iv[1] + 1 }
		g := GenHalfOpen(lo, hi, body)
		a := Genarray(p1, shape, -1, g)
		b := Genarray(p2, shape, -1, g)
		if !Equal(a, b) {
			return false
		}
		// verify coverage semantics against a naive loop
		for i := 0; i < shape[0]; i++ {
			for j := 0; j < shape[1]; j++ {
				in := i >= lo[0] && i < hi[0] && j >= lo[1] && j < hi[1]
				want := -1
				if in {
					want = i*100 + j + 1
				}
				if a.At(i, j) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: fold with + equals the sum over the naive iteration.
func TestQuickFoldMatchesNaive(t *testing.T) {
	f := func(loRaw, extRaw uint8) bool {
		lo := int(loRaw % 20)
		hi := lo + int(extRaw%50)
		got := Fold(p2, 0, func(a, b int) int { return a + b },
			GenHalfOpen([]int{lo}, []int{hi}, func(iv []int) int { return iv[0] * iv[0] }))
		want := 0
		for i := lo; i < hi; i++ {
			want += i * i
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A Chunk hook is called once per scheduled chunk and its body covers
// exactly that chunk's indices: results match a plain Body, and chunk
// state is never shared between two chunks.
func TestGenChunkHook(t *testing.T) {
	for _, p := range pools {
		var chunks atomic.Int64
		chunked := Gen[int]{Lower: []int{0}, Upper: []int{50}, Chunk: func() func(iv []int) int {
			chunks.Add(1)
			var owner []int // the iv slice this chunk's body is called with
			return func(iv []int) int {
				if owner == nil {
					owner = iv
				} else if &owner[0] != &iv[0] {
					t.Error("one chunk body called from two chunks")
				}
				return iv[0] * 3
			}
		}}
		plain := GenHalfOpen([]int{0}, []int{50}, func(iv []int) int { return iv[0] * 3 })
		if !Equal(Genarray(p, []int{50}, 0, chunked), Genarray(p, []int{50}, 0, plain)) {
			t.Fatal("genarray: chunked body differs from Body")
		}
		add := func(a, b int) int { return a + b }
		if got, want := Fold(p, 0, add, chunked), Fold(p, 0, add, plain); got != want {
			t.Fatalf("fold: %d, want %d", got, want)
		}
		if p.Width() > 1 && chunks.Load() < 4 {
			t.Fatalf("%d chunks on a %d-wide pool with grain %d", chunks.Load(), p.Width(), p.Grain())
		}
	}
}
