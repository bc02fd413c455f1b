// Command perfbench is the repository's benchmark.  It drives four named
// workloads through the public entry points — service.Handler over loopback
// HTTP and Plan.RunAll — checks every output against the workload's
// reference, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run plus layer ladder).  The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload wavefront --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare parent.jsonl change.jsonl
//
// See README.md for the workloads, the metric definitions and the compare
// rules.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before the result: the same metrics plus the
// environment stamp, sample counts and notes, and the failure ratio.  The
// compare mode reads these lines.
type detail struct {
	Env        envStamp          `json:"env"`
	Metrics    map[string]metric `json:"metrics"`
	Samples    map[string]int    `json:"samples"`
	Notes      map[string]string `json:"notes,omitempty"`
	FailedFrac float64           `json:"failed_frac"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Errors     []string          `json:"errors,omitempty"`
	// Extra holds measured figures outside the metric list.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// spec names a metric and its unit; the lists below are the benchmark's
// contract and match BENCHMARK.json.
type spec struct{ name, unit string }

var endToEnd = []spec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"mem_peak_mb", "MB"},
}

var workloadNames = []string{"webpipe-http", "webpipe-stream", "wavefront", "sudoku-sac"}

// outcome is what one workload run measured, before it becomes metrics.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	samples           map[string]int
	notes             map[string]string
	errors            []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}, notes: map[string]string{}}
}

// fail records a failed op's error, keeping the first few messages.
func (o *outcome) fail(n int, err error) {
	o.failed += int64(n)
	if err != nil && len(o.errors) < 5 {
		o.errors = append(o.errors, err.Error())
	}
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var compare bool
	var benchFile string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1: traced run and layer ladder, reporting per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	fs.BoolVar(&compare, "compare", false, "compare two result files (parent, change) of detail lines")
	fs.StringVar(&benchFile, "bench", "BENCHMARK.json", "benchmark definition holding the compare bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two result files: parent change")
			return 2
		}
		if err := compareFiles(stdout, benchFile, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	if err := checkSourceTree(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return report(stdout, stderr, cfg, o)
}

// checkSourceTree refuses to run outside a repository checkout: the
// workloads' reference data and programs come from the repository.
func checkSourceTree() error {
	for _, p := range []string{"go.mod", "internal/workloads", "snet/service"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root (%s missing)", p)
		}
	}
	return nil
}

func runWorkload(ctx context.Context, cfg config) (*outcome, error) {
	dur := time.Duration(cfg.seconds) * time.Second
	switch cfg.workload {
	case "webpipe-http":
		if cfg.trace {
			return traceWebpipeHTTP(ctx, cfg)
		}
		return runWebpipeHTTP(ctx, cfg.seed, dur)
	case "webpipe-stream":
		if cfg.trace {
			return traceBatch(ctx, cfg, newStreamBench(cfg.seed))
		}
		return runBatch(ctx, newStreamBench(cfg.seed), dur)
	case "wavefront":
		if cfg.trace {
			return traceBatch(ctx, cfg, newWavefrontBench(cfg.seed))
		}
		return runBatch(ctx, newWavefrontBench(cfg.seed), dur)
	case "sudoku-sac":
		if cfg.trace {
			return traceBatch(ctx, cfg, newSudokuBench(cfg.seed))
		}
		return runBatch(ctx, newSudokuBench(cfg.seed), dur)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// report prints the human-readable table, the detail line and the result
// line, and returns the exit code: nonzero when any output diverged from
// its reference.
func report(stdout, stderr io.Writer, cfg config, o *outcome) int {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for k, v := range o.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A ratio over an empty or zero side: no figure to report.
			o.metrics[k] = 0
			o.notes[k] = "undefined in this run"
		}
	}
	var missing []string
	for _, s := range specs {
		v, ok := o.metrics[s.name]
		switch {
		case !ok && cfg.trace:
			// A layer this workload does not exercise: nothing to time.
			o.notes[s.name] = "layer not exercised by this workload"
		case !ok:
			missing = append(missing, s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	extra := map[string]float64{}
	for k, v := range o.metrics {
		if _, listed := res.Metrics[k]; !listed {
			extra[k] = v
		}
	}
	// Untraced runs also print figures BENCHMARK.json does not gate, such
	// as op latency (see README.md); they carry per-layer units.
	units := map[string]string{}
	for _, s := range perLayer {
		units[s.name] = s.unit
	}
	if len(missing) > 0 {
		// A metric the workload forgot is a benchmark bug, not a zero.
		fmt.Fprintln(stderr, "perfbench: workload did not report", missing)
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no op was attempted")
		return 1
	}
	d := detail{Env: stamp(cfg.workload, cfg.seed, cfg.seconds, cfg.trace), Metrics: res.Metrics,
		Samples: o.samples, Notes: o.notes, Attempted: o.attempted, Failed: o.failed,
		FailedFrac: float64(o.failed) / float64(o.attempted), Errors: o.errors, Extra: extra}

	fmt.Fprintf(stdout, "# %s seed=%d seconds=%d trace=%v %s GOMAXPROCS=%d nproc=%d commit=%s\n",
		d.Env.Workload, d.Env.Seed, d.Env.Seconds, d.Env.Trace, d.Env.GoVersion,
		d.Env.GOMAXPROCS, d.Env.NumCPU, d.Env.Commit)
	line := func(name string, v float64, unit string) {
		l := fmt.Sprintf("%-44s %14.6g %-6s", name, v, unit)
		if c, ok := o.samples[name]; ok {
			l += fmt.Sprintf(" n=%d", c)
		}
		if note, ok := o.notes[name]; ok {
			l += " (" + note + ")"
		}
		fmt.Fprintln(stdout, l)
	}
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.name)
	}
	if cfg.trace {
		sort.Strings(names)
	}
	for _, n := range names {
		line(n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	var extras []string
	for k := range extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		line(k, extra[k], units[k])
	}
	fmt.Fprintf(stdout, "%-44s %14.6g %-6s attempted=%d failed=%d\n", "failed_frac", d.FailedFrac, "", o.attempted, o.failed)
	for _, e := range o.errors {
		fmt.Fprintln(stderr, "perfbench: failure:", e)
	}
	dl, err := json.Marshal(map[string]detail{"perfbench": d})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(dl))
	rl, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(rl))
	if !res.Correct {
		return 1
	}
	return 0
}

var errDiverged = errors.New("output diverges from its reference")
