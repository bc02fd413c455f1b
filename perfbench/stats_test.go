package main

import (
	"math"
	"testing"
)

// The reported tail is the highest candidate percentile with at least ten
// samples beyond it.
func TestReportedTailRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := reportedTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("reportedTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			beyond := c.n - 1 - rankOf(got, c.n)
			if beyond < tailMinBeyond {
				t.Errorf("n=%d p%v: only %d samples beyond", c.n, got, beyond)
			}
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted input
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailPct != 99 || s.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v; want n=1000 p50=500 p99=990", s)
	}
	few := summarize([]float64{3, 1, 2})
	if few.Tail != 3 || few.TailPct != 100 || few.TailNote == "" {
		t.Errorf("summarize of 3 samples = %+v; want the maximum, flagged", few)
	}
}

// Windows share the percentile the smallest window supports, and the
// reported figures are the medians over windows.
func TestSummarizeWindows(t *testing.T) {
	mk := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = scale * float64(i+1)
		}
		return xs
	}
	s := summarizeWindows([][]float64{mk(1000, 1), mk(1000, 2), mk(100, 100)})
	if s.TailPct != 90 || s.Windows != 3 || s.N != 2100 {
		t.Fatalf("summarizeWindows = %+v; want p90 over 3 windows of 2100 samples", s)
	}
	// per-window p90: 900, 1800, 9000 → median 1800
	if s.Tail != 1800 {
		t.Errorf("tail = %v, want 1800", s.Tail)
	}
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (method
// "exclusive"), which an external checker uses for the same spreads.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 2, 10}, 1.25, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1.5, 9.25, 3, 7, 2, 8}, 2, 8},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("iqrFrac = %v, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
}
