package main

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/sacvm"
	"repro/internal/sched"
	"repro/internal/sudoku"
	"repro/snet"
)

// sudokuHoles is how many cells each generated puzzle leaves open.  Only
// puzzles that Fig. 1 solves in exactly sudokuHoles solveOneLevel calls
// (one candidate at every level) are kept, so every puzzle is the same
// amount of work and the box-call counts repeat exactly.
const sudokuHoles = 50

// sudokuBench is the sudoku-sac workload: Fig. 1 with the paper's SaC boxes
// interpreted by sacvm on a sched.Pool of width nproc, one Plan.RunAll per
// puzzle, run to completion.
type sudokuBench struct {
	seed int64
	pool *sched.Pool
	sac  *sudoku.SacBoxes
	p    *snet.Plan

	gen    *sched.Pool // sequential pool for generating puzzles
	native *snet.Plan  // native Fig. 1, to count a candidate's calls
	next   int64       // next candidate seed offset
	made   []sudokuPuzzle
}

type sudokuPuzzle struct{ puzzle, solution *sudoku.Board }

func newSudokuBench(seed int64) *sudokuBench { return &sudokuBench{seed: seed} }

func (b *sudokuBench) name() string { return "sudoku-sac" }

// setup parses the embedded SaC program into an interpreter on a fresh
// pool and compiles Fig. 1 over its boxes.
func (b *sudokuBench) setup() error {
	b.pool = sched.New(runtime.NumCPU())
	b.sac = sudoku.NewSacBoxes(b.pool)
	p, err := snet.Compile(b.net())
	b.p = p
	return err
}

func (b *sudokuBench) net() snet.Node { return b.sac.Fig1HybridNet() }

// inFlight runs one puzzle per processor at once.  A lone puzzle leaves a
// processor idle between with-loops, and on a virtual machine the time to
// wake an idle processor varies with the host's load far more than the
// work does; with both busy the figure tracks the work.
func (b *sudokuBench) inFlight() int { return runtime.NumCPU() }

// plan returns the measured plan for both runs: the trace comes from the
// tracer alone, as each puzzle is one input record.
func (b *sudokuBench) plan(*recorder) (*snet.Plan, error) { return b.p, nil }

// puzzle returns the k-th accepted puzzle of the seed's candidate sequence
// (k < 0 for the warm-up one, which comes from its own sequence).
func (b *sudokuBench) puzzle(k int) (sudokuPuzzle, error) {
	if b.gen == nil {
		b.gen = sched.New(1)
		p, err := snet.Compile(sudoku.Fig1Net(sudoku.NetConfig{Pool: b.gen}))
		if err != nil {
			return sudokuPuzzle{}, err
		}
		b.native = p
	}
	if k < 0 {
		return b.accept(-b.seed - 1)
	}
	for len(b.made) <= k {
		pz, err := b.accept(b.seed)
		if err != nil {
			return sudokuPuzzle{}, err
		}
		b.made = append(b.made, pz)
	}
	return b.made[k], nil
}

// accept draws candidates from base's sequence until one has the fixed
// call count.
func (b *sudokuBench) accept(base int64) (sudokuPuzzle, error) {
	for tries := 0; tries < 1000; tries++ {
		b.next++
		puz, sol := sudoku.Generate(b.gen, 3, base*1_000_003+b.next, sudokuHoles, true)
		in := snet.NewRecord().SetField("board", puz)
		outs, st, err := b.native.RunAll(context.Background(), []*snet.Record{in})
		if err != nil {
			return sudokuPuzzle{}, err
		}
		if len(outs) == 1 && st.Counter("box.solveOneLevel.calls") == sudokuHoles {
			return sudokuPuzzle{puz, sol}, nil
		}
	}
	return sudokuPuzzle{}, fmt.Errorf("sudoku: no puzzle with %d forced levels in 1000 candidates", sudokuHoles)
}

func (b *sudokuBench) job(k int) (*batchJob, error) {
	pz, err := b.puzzle(k)
	if err != nil {
		return nil, err
	}
	// The <puzzle> tag travels with the records by flow inheritance, so the
	// trace can tell concurrent puzzles apart.
	in := snet.NewRecord().SetField("board", sudoku.BoardToValue(pz.puzzle)).SetTag("puzzle", k)
	return &batchJob{inputs: []*snet.Record{in}, ops: 1, check: func(outs []*snet.Record) (int, error) {
		var solved []*sudoku.Board
		for _, r := range outs {
			if _, done := r.Tag("done"); !done {
				continue
			}
			if p, _ := r.Tag("puzzle"); p != k {
				return 1, fmt.Errorf("sudoku: solution tagged puzzle %d, want %d: %w", p, k, errDiverged)
			}
			v, _ := r.Field("board")
			sv, ok := v.(sacvm.Value)
			if !ok {
				return 1, fmt.Errorf("sudoku: board field holds %T: %w", v, errDiverged)
			}
			board, err := sudoku.ValueToBoard(sv)
			if err != nil {
				return 1, fmt.Errorf("sudoku: %v: %w", err, errDiverged)
			}
			solved = append(solved, board)
		}
		if len(solved) != 1 || !solved[0].Equal(pz.solution) {
			return 1, fmt.Errorf("sudoku: %d solutions, want the generator's one: %w", len(solved), errDiverged)
		}
		return 0, nil
	}}, nil
}

// keyOf keys events by puzzle: a puzzle with one candidate per level runs
// its solveOneLevel calls one after another, so each call's outputs
// directly follow its input.
func (b *sudokuBench) keyOf(_ string, _ uint8, rec *snet.Record) int64 {
	k, ok := rec.Tag("puzzle")
	if !ok {
		return -1
	}
	return int64(k)
}

func (b *sudokuBench) residual(r *recorder, ev []event, spans []span, m map[string]float64) {
	m["trace.residual_frac"] = roundResidual(spans)
}
