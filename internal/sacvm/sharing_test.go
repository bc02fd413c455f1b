package sacvm

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
)

// Literals are built once at compile time and small scalars and vectors
// are interned, so values are shared across calls and pool workers.  These
// tests pin down that the sharing is never observable.

// A functional update of a literal-derived array copies: the next Call
// still sees the literal.
func TestLiteralUpdateDoesNotLeak(t *testing.T) {
	itp := New(MustParse(`
		int[*] update() {
			a = [1,2,3];
			a[0] = 9;
			return( a);
		}
		int[*] literal() {
			a = [1,2,3];
			return( a);
		}`), tp)
	for i := 0; i < 3; i++ {
		upd, err := itp.Call("update", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantInts(t, upd[0], 9, 2, 3)
		lit, err := itp.Call("literal", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantInts(t, lit[0], 1, 2, 3)
	}
}

// emission is one snet_out call, rendered for comparison.
type emission struct {
	variant int
	vals    string
}

func solveOneLevelEmissions(itp *Interp, args []Value) ([]emission, error) {
	var out []emission
	_, err := itp.Call("solveOneLevel", args, func(variant int, vals []Value) error {
		var b strings.Builder
		for _, v := range vals {
			fmt.Fprintf(&b, "%s;", v)
		}
		out = append(out, emission{variant, b.String()})
		return nil
	})
	return out, err
}

// Concurrent calls on a width-4 pool, with a grain small enough that every
// with-loop runs in several chunks, match the sequential result.
func TestConcurrentSolveOneLevelMatchesSequential(t *testing.T) {
	prog := MustParse(SudokuSaC)
	seq := New(prog, sched.New(1))
	opts, err := seq.Call("computeOpts", []Value{testBoard()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solveOneLevelEmissions(seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("solveOneLevel emitted nothing")
	}
	par := New(prog, sched.NewWithGrain(4, 8))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				got, err := solveOneLevelEmissions(par, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("goroutine %d: emissions differ from the sequential run", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Name resolution happens once, but errors in code that never runs stay
// runtime errors at their position.
func TestUnreachedErrorsStayRuntimeErrors(t *testing.T) {
	prog, err := Parse(`int main( int x) {
	r = 0;
	if (x > 0) {
		r = nofun( x) + y;
	}
	return( r);
}`)
	if err != nil {
		t.Fatal(err)
	}
	itp := New(prog, tp)
	out, err := itp.Call("main", []Value{IntScalar(0)}, nil)
	if err != nil {
		t.Fatalf("untaken branch failed the call: %v", err)
	}
	if n, _ := out[0].AsInt(Pos{}); n != 0 {
		t.Fatalf("got %d", n)
	}
	_, err = itp.Call("main", []Value{IntScalar(1)}, nil)
	if err == nil || err.Error() != `sac: 4:7: undefined function "nofun"` {
		t.Fatalf("taken branch: err = %v", err)
	}
}

// A loop over scalars allocates the same whatever its trip count: scalars
// are unboxed, so only the call itself allocates.
func TestScalarLoopAllocsFlat(t *testing.T) {
	itp := New(MustParse(SudokuGenSaC), tp)
	allocs := func(n int) float64 {
		args := []Value{IntScalar(n)}
		return testing.AllocsPerRun(20, func() {
			if _, err := itp.Call("isqrt", args, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(100), allocs(10000)
	if short != long {
		t.Fatalf("isqrt(100) allocates %v times, isqrt(10000) %v times", short, long)
	}
}

// countAt is the innermost box-level function of Fig. 1: nine with-loop
// elements, each building an index vector with the user-defined ++.
func TestCountAtAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	const bound = 210
	itp := New(MustParse(SudokuSaC), tp)
	opts, err := itp.Call("computeOpts", []Value{testBoard()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	args := []Value{opts[1], IntScalar(4), IntScalar(5)}
	got := testing.AllocsPerRun(20, func() {
		if _, err := itp.Call("countAt", args, nil); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Fatalf("countAt allocates %v times per call, bound %d", got, bound)
	}
}

// A with-loop's index vector is rewritten in place for every element, so
// snet_out from a body hands out copies.
func TestSnetOutFromWithLoopBodyCopiesIndex(t *testing.T) {
	prog := MustParse(`
		int f( int[*] v) { snet_out( 1, v); return( 1); }
		int main() { return( with { ([0] <= iv < [3]) : f( iv); } : fold( +, 0)); }`)
	var got []Value
	_, err := New(prog, tp).Call("main", nil, func(_ int, vals []Value) error {
		got = append(got, vals...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d emissions", len(got))
	}
	for i, v := range got {
		wantInts(t, v, i)
	}
}

func TestZeroValueArgument(t *testing.T) {
	itp := New(MustParse(`int id( int x) { return( x); }`), tp)
	if _, err := itp.Call("id", []Value{{}}, nil); err == nil || !strings.Contains(err.Error(), "holds no array") {
		t.Fatalf("err = %v", err)
	}
}
