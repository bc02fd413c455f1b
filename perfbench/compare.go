package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Compare mode judges a change against its parent from two result files,
// each holding the detail lines of untraced runs (the full standard output
// of runs, concatenated; other lines are skipped).  Runs pair up in file
// order per workload, so the two sides must be run alternately, the same
// seeds in the same order.  Each workload × end-to-end metric gets one
// verdict:
//
//   - improved: the change wins at least 9 of every 10 pairs and the
//     medians differ by more than the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: fewer than 10 pairs, or a run-to-run spread wider than
//     the bound (unless every change run beats every parent run);
//   - unchanged: otherwise.

const minPairs = 10

type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is one comparison's outcome.
type verdict struct {
	Label        string
	Pairs, Wins  int
	ParentMedian float64
	ChangeMedian float64
	ParentIQR    float64
}

// better reports whether a beats b for a metric where higher or lower is
// better.
func better(a, b float64, higher bool) bool {
	if higher {
		return a > b
	}
	return a < b
}

// judge applies the compare rules to paired parent and change values.
func judge(parent, change []float64, higherBetter bool, bound float64) verdict {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	v := verdict{Pairs: n}
	if n == 0 {
		v.Label = "unresolved"
		return v
	}
	for i := 0; i < n; i++ {
		if better(change[i], parent[i], higherBetter) {
			v.Wins++
		}
	}
	v.ParentMedian, v.ChangeMedian = median(parent), median(change)
	q1, q3 := quartiles(parent)
	v.ParentIQR = q3 - q1
	gain := v.ChangeMedian - v.ParentMedian
	if !higherBetter {
		gain = -gain
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p, higherBetter) {
				allBetter = false
			}
		}
	}
	switch {
	case n < minPairs:
		v.Label = "unresolved"
	case v.Wins*10 >= 9*n && gain > v.ParentIQR:
		v.Label = "improved"
	case -gain > bound*math.Abs(v.ParentMedian):
		v.Label = "worse"
	case (iqrFrac(parent) > bound || iqrFrac(change) > bound) && !allBetter:
		v.Label = "unresolved"
	default:
		v.Label = "unchanged"
	}
	return v
}

// readDetails returns the untraced runs' detail lines of a result file
// grouped by workload, in file order.
func readDetails(path string) (map[string][]detail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]detail{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			D *detail `json:"perfbench"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.D == nil || line.D.Env.Trace {
			continue
		}
		out[line.D.Env.Workload] = append(out[line.D.Env.Workload], *line.D)
	}
	return out, sc.Err()
}

func compareFiles(w io.Writer, benchPath, parentPath, changePath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := readDetails(parentPath)
	if err != nil {
		return err
	}
	change, err := readDetails(changePath)
	if err != nil {
		return err
	}
	var workloads []string
	for wl := range parent {
		if _, ok := change[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return fmt.Errorf("no workload has untraced runs in both %s and %s", parentPath, changePath)
	}
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %7s %s\n", "workload", "metric", "parent", "change", "wins", "verdict")
	for _, wl := range workloads {
		p, c := parent[wl], change[wl]
		for i := 0; i < min(len(p), len(c)); i++ {
			if p[i].Env.Seed != c[i].Env.Seed {
				fmt.Fprintf(w, "# %s pair %d: seeds differ (%d vs %d)\n", wl, i, p[i].Env.Seed, c[i].Env.Seed)
			}
		}
		for _, m := range def.EndToEnd {
			values := func(ds []detail) []float64 {
				var xs []float64
				for _, d := range ds {
					xs = append(xs, d.Metrics[m.Name].Value)
				}
				return xs
			}
			v := judge(values(p), values(c), m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %3d/%-3d %s (parent IQR %.4g %s, bound %.0f%%)\n",
				wl, m.Name, v.ParentMedian, v.ChangeMedian, v.Wins, v.Pairs, v.Label, v.ParentIQR, m.Unit, 100*m.Bound)
		}
	}
	return nil
}
