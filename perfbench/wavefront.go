package main

import (
	"fmt"

	"repro/internal/workloads"
	"repro/snet"
)

// wavefrontN is the grid side: n² cells, (n-1)² synchrocell joins, 2n-1
// star stages.
const wavefrontN = 64

// wavefrontBench is the wavefront workload: one Plan.RunAll per grid, the
// cost matrix derived from the seed.
type wavefrontBench struct {
	seed int64
	p    *snet.Plan
}

func newWavefrontBench(seed int64) *wavefrontBench { return &wavefrontBench{seed: seed} }

func (b *wavefrontBench) name() string { return "wavefront" }

func (b *wavefrontBench) inFlight() int { return 1 }

func (b *wavefrontBench) net() snet.Node { return workloads.WavefrontNet(wavefrontN, b.seed) }

func (b *wavefrontBench) setup() error {
	p, err := snet.Compile(b.net())
	b.p = p
	return err
}

// plan returns the measured plan for both runs: the trace comes from the
// tracer alone, as the grid's one input record needs no edge taps.
func (b *wavefrontBench) plan(*recorder) (*snet.Plan, error) { return b.p, nil }

func (b *wavefrontBench) job(int) (*batchJob, error) {
	want := workloads.WavefrontReference(wavefrontN, b.seed)
	cells := workloads.WavefrontCells(wavefrontN)
	return &batchJob{inputs: []*snet.Record{workloads.WavefrontSeed()}, ops: cells,
		check: func(outs []*snet.Record) (int, error) {
			if len(outs) != 1 {
				return cells, fmt.Errorf("wavefront: %d result records, want 1: %w", len(outs), errDiverged)
			}
			v, ok := outs[0].Field("result")
			if got, isInt := v.(int); !ok || !isInt || got != want {
				return cells, fmt.Errorf("wavefront: result %v, want %d: %w", v, want, errDiverged)
			}
			return 0, nil
		}}, nil
}

// keyOf pairs each box call's input with its outputs: the key is the cell
// the call computes, recovered from an output by undoing the box's step
// (an output feeding cell (i, j+1) or (i+1, j) came from cell (i, j)).
func (b *wavefrontBench) keyOf(node string, dir uint8, rec *snet.Record) int64 {
	const n = wavefrontN
	row, _ := rec.Tag("row")
	col, _ := rec.Tag("col")
	has := func(f string) bool { _, ok := rec.Field(f); return ok }
	switch node {
	case "top": // edge (0, col)
		if dir == evOut && has("bleft") {
			col--
		}
		return int64(col)
	case "left": // edge (row, 0)
		if dir == evOut && has("bup") {
			row--
		}
		return int64(row * n)
	case "cell":
		if dir == evOut {
			switch {
			case has("result"):
				row, col = n-1, n-1
			case has("left"):
				col--
			case has("up"):
				row--
			}
		}
		return int64(row*n + col)
	case "wave_join":
		cell, _ := rec.Tag("cell")
		return int64(cell)
	}
	return 0
}

// residual is the share of each traced grid's wall time during which no
// box or synchrocell span is open — time spent only in coordination
// (streams, routing, replica and stage creation) — as a median over grids.
func (b *wavefrontBench) residual(r *recorder, ev []event, spans []span, m map[string]float64) {
	m["trace.residual_frac"] = roundResidual(spans)
}

// roundResidual returns the median over traced rounds of the share of the
// round's wall time that no span covers.
func roundResidual(spans []span) float64 {
	var rounds, work []span
	for _, s := range spans {
		if s.Name == "round" {
			rounds = append(rounds, s)
		} else {
			work = append(work, s)
		}
	}
	var fr []float64
	for _, rd := range rounds {
		if rd.dur() > 0 {
			fr = append(fr, 1-float64(unionCoverage(work, rd.Start, rd.End))/float64(rd.dur()))
		}
	}
	return median(fr)
}
