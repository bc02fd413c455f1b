package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/snet"
)

// batchBench is a workload run as repeated jobs, each one Plan.RunAll of a
// job's inputs.  An op is the workload's unit of work (a request, a grid
// cell, a puzzle); a job holds one or more ops.
type batchBench interface {
	name() string
	// net builds a fresh blueprint of the workload's network.
	net() snet.Node
	// setup does everything before the first op: parse, compile, register.
	// The last set-up's plan is the one measured.
	setup() error
	// plan returns the measured plan; with a recorder, the plan the traced
	// stretch runs, which may add Observe taps at the network's edges.
	plan(rec *recorder) (*snet.Plan, error)
	// job builds job k's inputs and the checker of its outputs; it is not
	// timed.  Jobs are derived from the seed, so a seed fixes them all.
	job(k int) (*batchJob, error)
	// inFlight is how many jobs run at once, each its own Plan.RunAll.
	inFlight() int
	// keyOf names the op a traced record belongs to (negative: not
	// recorded).
	keyOf(node string, dir uint8, rec *snet.Record) int64
	// residual explains the traced run: the share of op time no span
	// covers, and any extra per-layer metrics the spans yield.
	residual(r *recorder, ev []event, spans []span, m map[string]float64)
}

// setupReps is how many set-ups a run times; setup_s is their median.
// Set-ups take about a millisecond, so many are cheap and the median
// shrugs off a stall.
const setupReps = 25

type batchJob struct {
	inputs []*snet.Record
	ops    int
	check  func(outs []*snet.Record) (failed int, err error)
}

// jobsRun is what one side of a stretch of jobs measured.  A round is
// inFlight jobs started together; per-round figures are what the medians
// are taken over.
type jobsRun struct {
	ops, jobs, rounds int
	latMs             []float64        // per round
	opsPerS, cpuUsOp  []float64        // per round
	phase             phaseResult      // the whole stretch
	counters          map[string]int64 // summed run stats
	acquired          int64            // record arena traffic, whole stretch
	recycled          int64
}

// side is one plan a stretch of jobs runs; a traced side has a recorder.
type side struct {
	plan *snet.Plan
	rec  *recorder
	r    jobsRun
}

// runJobs runs rounds of jobs back to back until dur has passed, taking
// the sides in turn, and times each round's Plan.RunAll calls alone (input
// generation and checking are outside the timer).  Alternating round by
// round gives an untraced and a traced side the same machine conditions.
// It returns the next job index.
func runJobs(ctx context.Context, b batchBench, first int, dur time.Duration, o *outcome, sides ...*side) (int, error) {
	for _, sd := range sides {
		sd.r = jobsRun{counters: map[string]int64{}}
	}
	type run struct {
		job  *batchJob
		outs []*snet.Record
		st   *snet.Stats
		err  error
	}
	pool0 := snet.PoolStats()
	ph := startPhase()
	start := time.Now()
	k := first
	for n := 0; time.Since(start) < dur; n++ {
		sd := sides[n%len(sides)]
		r := &sd.r
		runs := make([]run, b.inFlight())
		for i := range runs {
			j, err := b.job(k + i)
			if err != nil {
				return k, err
			}
			runs[i].job = j
		}
		var opts []snet.Option
		if sd.rec != nil {
			opts = append(opts, snet.WithTracer(sd.rec))
			sd.rec.on.Store(true)
			sd.rec.add("round", evBegin, int64(n))
		}
		c0 := cpuTime()
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[i].outs, runs[i].st, runs[i].err = sd.plan.RunAll(ctx, runs[i].job.inputs, opts...)
			}()
		}
		wg.Wait()
		dt := time.Since(t0)
		cpu := cpuTime() - c0
		if sd.rec != nil {
			sd.rec.add("round", evEnd, int64(n))
			sd.rec.on.Store(false)
		}
		ops := 0
		for i, ru := range runs {
			if ru.err != nil {
				return k, fmt.Errorf("%s job %d: %w", b.name(), k+i, ru.err)
			}
			failed, cerr := ru.job.check(ru.outs)
			o.attempted += int64(ru.job.ops)
			o.fail(failed, cerr)
			ops += ru.job.ops
			for _, key := range ru.st.Keys() {
				r.counters[key] += ru.st.Counter(key)
			}
		}
		k += len(runs)
		r.ops += ops
		r.jobs += len(runs)
		r.rounds++
		r.latMs = append(r.latMs, ms(dt))
		r.opsPerS = append(r.opsPerS, float64(ops)/dt.Seconds())
		r.cpuUsOp = append(r.cpuUsOp, float64(cpu.Microseconds())/float64(ops))
	}
	pr := ph.end()
	pool1 := snet.PoolStats()
	for _, sd := range sides {
		sd.r.phase = pr
		sd.r.acquired, sd.r.recycled = pool1.Acquired-pool0.Acquired, pool1.Recycled-pool0.Recycled
	}
	return k, nil
}

// setupAll runs the bench's set-up setupReps times and returns each
// duration in seconds.
func setupAll(b batchBench) ([]float64, error) {
	var out []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.name(), err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// warm runs one unmeasured, checked job so lazy set-up and caches are done
// before timing.
func warm(ctx context.Context, b batchBench, plan *snet.Plan, o *outcome) error {
	j, err := b.job(-1)
	if err != nil {
		return err
	}
	outs, _, err := plan.RunAll(ctx, j.inputs)
	if err != nil {
		return fmt.Errorf("%s warm-up: %w", b.name(), err)
	}
	if failed, err := j.check(outs); failed > 0 {
		o.attempted += int64(j.ops)
		o.fail(failed, err)
	}
	return nil
}

// runBatch is the untraced run of a batch workload: the end-to-end metrics.
func runBatch(ctx context.Context, b batchBench, dur time.Duration) (*outcome, error) {
	o := newOutcome()
	setups, err := setupAll(b)
	if err != nil {
		return nil, err
	}
	plan, err := b.plan(nil)
	if err != nil {
		return nil, err
	}
	if err := warm(ctx, b, plan, o); err != nil {
		return nil, err
	}
	u := &side{plan: plan}
	if _, err := runJobs(ctx, b, 0, dur, o, u); err != nil {
		return nil, err
	}
	endToEndBatch(o, setups, &u.r)
	return o, nil
}

func endToEndBatch(o *outcome, setups []float64, r *jobsRun) {
	o.metrics["setup_s"] = median(setups)
	o.samples["setup_s"] = len(setups)
	// Medians over rounds: a burst of CPU steal from the host slows the
	// rounds it hits, not the figure.
	o.metrics["ops_per_s"] = median(r.opsPerS)
	o.samples["ops_per_s"] = r.ops
	o.notes["ops_per_s"] = fmt.Sprintf("median over %d rounds of %d jobs", r.rounds, r.jobs/max(r.rounds, 1))
	o.metrics["cpu_us_per_op"] = median(r.cpuUsOp)
	o.samples["cpu_us_per_op"] = r.ops
	o.notes["cpu_us_per_op"] = fmt.Sprintf("process CPU, median over %d rounds", r.rounds)
	o.metrics["mem_peak_mb"] = r.phase.MemPeakMB
	roundLatency(o, r)
}

// roundLatency records the round latency figures, which are not gated.
func roundLatency(o *outcome, r *jobsRun) {
	lat := summarize(r.latMs)
	o.metrics["latency_p50_ms"] = lat.P50
	o.metrics["latency_p99_ms"] = lat.Tail
	o.samples["latency_p50_ms"] = lat.N
	o.samples["latency_p99_ms"] = lat.N
	o.notes["latency_p50_ms"] = fmt.Sprintf("per round of %d ops, not gated", r.ops/max(r.rounds, 1))
	o.notes["latency_p99_ms"] = fmt.Sprintf("p%g, the highest percentile with 10 samples beyond it", lat.TailPct)
	if lat.TailNote != "" {
		o.notes["latency_p99_ms"] = lat.TailNote
	}
}

// traceBatch is the traced run of a batch workload.  An untraced stretch
// of half the run gives the counts, runtime metrics and latency; a second
// stretch alternates untraced and traced rounds, for the tracing overhead
// and the spans; then the layer ladder runs.
func traceBatch(ctx context.Context, cfg config, b batchBench) (*outcome, error) {
	o := newOutcome()
	half := time.Duration(cfg.seconds) * time.Second / 2
	if _, err := setupAll(b); err != nil {
		return nil, err
	}
	plan, err := b.plan(nil)
	if err != nil {
		return nil, err
	}
	if err := warm(ctx, b, plan, o); err != nil {
		return nil, err
	}
	u := &side{plan: plan}
	next, err := runJobs(ctx, b, 0, half, o, u)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(1<<20, b.keyOf)
	rec.on.Store(false)
	tplan, err := b.plan(rec)
	if err != nil {
		return nil, err
	}
	ut, t := &side{plan: plan}, &side{plan: tplan, rec: rec}
	if _, err := runJobs(ctx, b, next, half, o, ut, t); err != nil {
		return nil, err
	}
	m := o.metrics
	roundLatency(o, &u.r)
	layerCounts(m, &u.r)
	m["trace.overhead_frac"] = median(ut.r.opsPerS)/median(t.r.opsPerS) - 1
	o.notes["trace.overhead_frac"] = fmt.Sprintf("median op time, %d traced vs %d untraced rounds run alternately", t.r.rounds, ut.r.rounds)

	ev := rec.events()
	spans := deriveSpans(rec, ev, func(string) string { return "" })
	boxSelf(m, spans, o)
	b.residual(rec, ev, spans, m)
	o.samples["trace.events"] = len(ev)
	if d := rec.dropped.Load(); d > 0 {
		o.notes["trace.residual_frac"] = fmt.Sprintf("%d events dropped at the buffer cap", d)
	}
	if err := writeTrace(cfg, spans, o); err != nil {
		return nil, err
	}
	if err := runLadder(ctx, m, o, cfg.seed, b.net); err != nil {
		return nil, err
	}
	return o, nil
}

// layerCounts fills the count and runtime metrics measured in the
// untraced stretch: per-job counts repeat exactly for a deterministic net.
func layerCounts(m map[string]float64, r *jobsRun) {
	perJob := func(prefix, suffix string) float64 {
		var n int64
		for k, v := range r.counters {
			if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
				n += v
			}
		}
		return float64(n) / float64(max(r.jobs, 1))
	}
	m["core.box.calls"] = perJob("box.", ".calls")
	m["core.sync.fired"] = perJob("sync.", ".fired")
	m["core.split.replicas"] = perJob("split.", ".replicas")
	m["core.star.stages"] = perJob("star.", ".replicas")
	m["core.fuse.records"] = perJob("fused.", ".records")
	if r.acquired > 0 {
		m["core.record.recycle_ratio"] = float64(r.recycled) / float64(r.acquired)
	}
	m["go.allocs_per_op"] = r.phase.Allocs / float64(max(r.ops, 1))
	m["go.gc_cpu_frac"] = r.phase.GCCPUFrac
	m["go.goroutines_peak"] = r.phase.Goroutines
}

// boxSelf reports the median span of every box seen in the trace.
func boxSelf(m map[string]float64, spans []span, o *outcome) {
	self := selfTimes(spans)
	for name, xs := range self {
		if _, isBox := boxNames[name]; !isBox {
			continue
		}
		m["core.box.self_us_p50."+name] = median(xs)
		o.samples["core.box.self_us_p50."+name] = len(xs)
	}
}

func writeTrace(cfg config, spans []span, o *outcome) error {
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	n, err := writeSpans(path, spans, 20000)
	if err != nil {
		return err
	}
	o.notes["trace.spans"] = fmt.Sprintf("%d of %d spans written to %s", n, len(spans), path)
	return nil
}
