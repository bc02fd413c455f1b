package main

import "testing"

func series(base, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + step*float64(i%5)
	}
	return xs
}

func TestJudge(t *testing.T) {
	parent := series(100, 1, 10) // IQR about 3, spread 3%
	cases := []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"clear gain, lower is better", series(90, 1, 10), false, 0.1, "improved"},
		{"clear gain, higher is better", series(110, 1, 10), true, 0.1, "improved"},
		{"inside the noise", series(100.5, 1, 10), false, 0.1, "unchanged"},
		{"worse beyond the bound", series(120, 1, 10), false, 0.1, "worse"},
		{"worse within the bound", series(105, 1, 10), false, 0.1, "unchanged"},
		{"too few pairs", series(50, 1, 9), false, 0.1, "unresolved"},
		{"spread wider than the bound", []float64{60, 140, 60, 140, 60, 140, 60, 140, 60, 140}, false, 0.1, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(parent, c.change, c.higher, c.bound); got.Label != c.want {
			t.Errorf("%s: %s (%+v), want %s", c.name, got.Label, got, c.want)
		}
	}
}

// A gain needs 9 wins in 10 pairs, not just a better median.
func TestJudgeNeedsNineOfTen(t *testing.T) {
	parent := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	change := []float64{80, 80, 80, 80, 80, 80, 80, 80, 120, 120}
	if got := judge(parent, change, false, 0.25); got.Label == "improved" {
		t.Errorf("8 wins of 10 judged %s", got.Label)
	}
	change[8] = 80
	if got := judge(parent, change, false, 0.25); got.Label != "improved" {
		t.Errorf("9 wins of 10 judged %s", got.Label)
	}
}
