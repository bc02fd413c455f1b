package sacvm

import (
	"testing"

	"repro/internal/array"
	"repro/internal/sched"
)

// BenchmarkSacParse is the interpreter's set-up cost for the paper's
// solver: parsing sudoku.sac and compiling it.
func BenchmarkSacParse(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		New(MustParse(SudokuSaC), nil)
	}
}

// testBoard is a classic 9×9 puzzle (0 = empty) as a SaC int[9,9].
func testBoard() Value {
	const rows = "530070000600195000098000060800060003400803001700020006060000280000419005000080079"
	d := make([]int, len(rows))
	for i, c := range rows {
		d[i] = int(c - '0')
	}
	return IntValue(array.FromSlice([]int{9, 9}, d))
}

// BenchmarkSolveOneLevel times one Fig. 1 solveOneLevel call at pool
// width 1.
func BenchmarkSolveOneLevel(b *testing.B) {
	itp := New(MustParse(SudokuSaC), sched.New(1))
	opts, err := itp.Call("computeOpts", []Value{testBoard()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	emit := func(int, []Value) error { return nil }
	b.ReportAllocs()
	for b.Loop() {
		if _, err := itp.Call("solveOneLevel", opts, emit); err != nil {
			b.Fatal(err)
		}
	}
}
