package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a tail can be reported at, highest
// last.  reportedTail picks the highest one the sample supports.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tailMinBeyond is how many samples must lie beyond a percentile before it
// may be reported: a tail read off fewer samples is a single outlier.
const tailMinBeyond = 10

// rankOf returns the 0-based index of the p-th percentile in a sorted
// sample of n values (nearest-rank definition).
func rankOf(p float64, n int) int {
	// The epsilon keeps p·n/100 landing on an integer from rounding up
	// past it (99.9/100·10000 is 9990.000000000002 in float64).
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// reportedTail returns the highest candidate percentile with at least
// tailMinBeyond samples above its rank in a sample of n values, and false
// when not even the median has that many (n < 2*tailMinBeyond).
func reportedTail(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailCandidates {
		if n-1-rankOf(p, n) >= tailMinBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the p-th percentile of xs (nearest rank).  xs must be
// sorted and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rankOf(p, len(sorted))]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4), so
// spreads computed here and by an external checker agree.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const groups = 4
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / groups
		j = max(1, min(j, ld-1))
		delta := i*m - j*groups
		return (s[j-1]*float64(groups-delta) + s[j]*float64(delta)) / groups
	}
	return at(1), at(3)
}

// iqrFrac returns the distance between the quartiles of xs as a share of
// its median.
func iqrFrac(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// latencySummary is a timing distribution reduced to the figures the
// benchmark reports: the median and the highest supported tail.
type latencySummary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50"`
	Tail     float64 `json:"tail"`
	TailPct  float64 `json:"tail_pct"`
	Windows  int     `json:"windows,omitempty"`
	TailNote string  `json:"tail_note,omitempty"`
}

// summarize reduces a sample to its median and reported tail.  With too few
// samples for any supported percentile the tail is the maximum, and the
// note says so.
func summarize(xs []float64) latencySummary {
	if len(xs) == 0 {
		return latencySummary{}
	}
	s := sortedCopy(xs)
	out := latencySummary{N: len(s), P50: percentile(s, 50)}
	if p, ok := reportedTail(len(s)); ok {
		out.Tail, out.TailPct = percentile(s, p), p
	} else {
		out.Tail, out.TailPct = s[len(s)-1], 100
		out.TailNote = "fewer than 20 samples: tail is the maximum"
	}
	return out
}

// summarizeWindows splits a time-ordered sample into consecutive windows,
// summarizes each on its own, and reports the medians of the per-window
// figures: one stall then moves one window's tail, not the run's.  Windows
// share one tail percentile, the one the smallest window supports.
func summarizeWindows(windows [][]float64) latencySummary {
	var p50s, tails []float64
	n, minN := 0, -1
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		n += len(w)
		if minN < 0 || len(w) < minN {
			minN = len(w)
		}
	}
	if n == 0 {
		return latencySummary{}
	}
	pct, ok := reportedTail(minN)
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		s := sortedCopy(w)
		p50s = append(p50s, percentile(s, 50))
		if ok {
			tails = append(tails, percentile(s, pct))
		} else {
			tails = append(tails, s[len(s)-1])
		}
	}
	out := latencySummary{N: n, P50: median(p50s), Tail: median(tails), TailPct: pct, Windows: len(p50s)}
	if !ok {
		out.TailPct = 100
		out.TailNote = "windows of fewer than 20 samples: tail is the maximum"
	}
	return out
}
