package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/array"
	"repro/internal/sacvm"
	"repro/internal/sched"
	"repro/internal/sudoku"
	"repro/internal/workloads"
	"repro/snet"
	"repro/snet/service"
)

// boxNames are the boxes of the four workloads, each with its own
// core.box.self_us_p50.<box> metric.
var boxNames = map[string]struct{}{
	"classify": {}, "api": {}, "page": {}, "asset": {}, "render": {},
	"corner": {}, "top": {}, "left": {}, "cell": {},
	"computeOpts": {}, "solveOneLevel": {},
}

// perLayer is the traced run's metric list; it matches BENCHMARK.json.
var perLayer = []spec{
	{"service.http.self_us_p50", "us"},
	{"service.codec.decode_ns", "ns"},
	{"service.codec.encode_ns", "ns"},
	{"service.session.open_us", "us"},
	{"service.session.open_us.shared", "us"},
	{"service.session.release_us", "us"},
	{"service.session.drain_wait_us", "us"},
	{"service.session.allocs", "count"},
	{"core.plan.compile_ms", "ms"},
	{"core.plan.start_us", "us"},
	{"core.box.ns_per_call", "ns"},
	{"core.box.allocs_per_call", "count"},
	{"core.box.calls", "count"},
	{"core.boxengine.ns_per_call", "ns"},
	{"core.boxengine.w1_ops_per_s", "1/s"},
	{"core.boxengine.wdefault_ops_per_s", "1/s"},
	{"core.boxengine.gap_explained_frac", "frac"},
	{"core.route.ns_per_record", "ns"},
	{"core.stream.ns_per_hop", "ns"},
	{"core.stream.wait_us_p50", "us"},
	{"core.fuse.records", "count"},
	{"core.sync.ns_per_join", "ns"},
	{"core.sync.fired", "count"},
	{"core.split.replica_us", "us"},
	{"core.split.replicas", "count"},
	{"core.star.stage_us", "us"},
	{"core.star.stages", "count"},
	{"core.merge.ns_per_record", "ns"},
	{"core.record.recycle_ratio", "frac"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cpu_frac", "frac"},
	{"go.goroutines_peak", "count"},
	{"core.box.self_us_p50.classify", "us"},
	{"core.box.self_us_p50.api", "us"},
	{"core.box.self_us_p50.page", "us"},
	{"core.box.self_us_p50.asset", "us"},
	{"core.box.self_us_p50.render", "us"},
	{"core.box.self_us_p50.corner", "us"},
	{"core.box.self_us_p50.top", "us"},
	{"core.box.self_us_p50.left", "us"},
	{"core.box.self_us_p50.cell", "us"},
	{"core.box.self_us_p50.computeOpts", "us"},
	{"core.box.self_us_p50.solveOneLevel", "us"},
	{"sacvm.call_ms.computeOpts", "ms"},
	{"sacvm.call_ms.solveOneLevel", "ms"},
	{"sacvm.call_ms.solveOneLevel.w1", "ms"},
	{"sacvm.allocs_per_call.solveOneLevel", "count"},
	{"array.withloop_ns_per_elem", "ns"},
	{"sched.speedup", "ratio"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sustained_rps", "1/s"},
	{"trace.residual_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// ladder measures per-op costs of single layers.  Each item runs the
// layer's public entry point on the workloads' record shapes and reports
// the median of several repetitions; allocation counts come from one
// extra repetition.
type ladder struct {
	ctx  context.Context
	m    map[string]float64
	o    *outcome
	seed int64
}

// medianPer runs f reps times and returns the median duration of one
// repetition divided by per, in nanoseconds.  prep, if non-nil, runs
// untimed before each repetition.
func medianPer(reps, per int, prep func(), f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(per))
	}
	return median(xs), nil
}

// trial is one timed side of a ladder comparison: prep builds fresh
// inputs (untimed), run consumes them, per is the op count of one run.
type trial struct {
	prep func()
	run  func() error
	per  int
}

// paired alternates a and b reps times and returns the median ns per op
// of each side and the median of the per-repetition differences a-b.  A
// layer's cost measured as a difference is taken from runs made back to
// back, so a drift in machine speed cancels instead of landing on one side.
func paired(reps int, a, b trial) (ma, mb, diff float64, err error) {
	var as, bs, ds []float64
	one := func(t trial) (float64, error) {
		if t.prep != nil {
			t.prep()
		}
		t0 := time.Now()
		if err := t.run(); err != nil {
			return 0, err
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(t.per), nil
	}
	for i := 0; i < reps; i++ {
		first, second := a, b
		if i%2 == 1 {
			first, second = b, a
		}
		x, err := one(first)
		if err != nil {
			return 0, 0, 0, err
		}
		y, err := one(second)
		if err != nil {
			return 0, 0, 0, err
		}
		if i%2 == 1 {
			x, y = y, x
		}
		as, bs, ds = append(as, x), append(bs, y), append(ds, x-y)
	}
	return median(as), median(bs), median(ds), nil
}

// runAll is a trial of Plan.RunAll over fresh inputs from mk, checking
// that want outputs come back (want < 0: one per input).
func (l *ladder) runAll(p *snet.Plan, mk func() []*snet.Record, want int, opts ...snet.Option) trial {
	var in []*snet.Record
	t := trial{prep: func() { in = mk() }, per: len(mk())}
	t.run = func() error {
		outs, _, err := p.RunAll(l.ctx, in, opts...)
		n := want
		if n < 0 {
			n = len(in)
		}
		if err == nil && len(outs) != n {
			err = fmt.Errorf("%d outputs for %d inputs, want %d", len(outs), len(in), n)
		}
		return err
	}
	return t
}

// allocsPer returns the heap allocations of one f call divided by per.
func allocsPer(per int, prep func(), f func() error) (float64, error) {
	if prep != nil {
		prep()
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(per), err
}

// runLadder fills m with every ladder item.  net builds the workload's own
// network, the one core.plan.compile_ms compiles; seed picks the puzzle
// the SaC items run on.
func runLadder(ctx context.Context, m map[string]float64, o *outcome, seed int64, net func() snet.Node) error {
	l := &ladder{ctx: ctx, m: m, o: o, seed: seed}
	steps := []func() error{
		l.codec, l.session, func() error { return l.compile(net) }, l.start, l.box,
		l.routeMerge, l.hop, l.syncSplit, l.star, l.sac,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	return nil
}

// webReqs builds n webpipe request records.
func webReqs(n int) []*snet.Record {
	urls := webpipeURLs()
	out := make([]*snet.Record, n)
	for i := range out {
		out[i] = snet.NewRecord().SetField("url", urls[i%len(urls)]).SetTag("id", i)
	}
	return out
}

func (l *ladder) codec() error {
	const n = 20000
	codec := service.GenericCodec{}
	wire := service.RecordJSON{Tags: map[string]int{"id": 7}, Fields: map[string]string{"url": "/api/users"}}
	dec, err := medianPer(5, n, nil, func() error {
		for i := 0; i < n; i++ {
			r, err := codec.Decode(wire)
			if err != nil {
				return err
			}
			snet.ReleaseRecord(r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	resp, status := workloads.WebPipeReference("/api/users")
	out := snet.NewRecord().SetField("resp", resp).SetTag("id", 7).SetTag("status", status)
	enc, err := medianPer(5, n, nil, func() error {
		for i := 0; i < n; i++ {
			_ = codec.Encode(out)
		}
		return nil
	})
	l.m["service.codec.decode_ns"] = dec
	l.m["service.codec.encode_ns"] = enc
	return err
}

// session times Service.Open and Session.Release of the webpipe network in
// both session modes, and the Drain wait of a one-record session.
func (l *ladder) session() error {
	svc := service.New()
	defer svc.Shutdown()
	build := func(service.Options) (snet.Node, error) { return workloads.WebPipeNet(), nil }
	svc.Register("iso", "", service.Options{BufferSize: 32}, build, nil)
	svc.Register("shared", "", service.Options{BufferSize: 32, SessionMode: service.Shared}, build, nil)
	openRelease := func(net string, n int) (open, rel float64, err error) {
		var os, rs []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			s, err := svc.Open(net)
			if err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			s.Release()
			os = append(os, float64(t1.Sub(t0).Nanoseconds())/1e3)
			rs = append(rs, float64(time.Since(t1).Nanoseconds())/1e3)
		}
		return median(os), median(rs), nil
	}
	if _, _, err := openRelease("iso", 20); err != nil { // warm: compile, pools
		return err
	}
	open, rel, err := openRelease("iso", 400)
	if err != nil {
		return err
	}
	if _, _, err := openRelease("shared", 20); err != nil { // warm: the shared engine
		return err
	}
	openShared, _, err := openRelease("shared", 400)
	if err != nil {
		return err
	}
	l.m["service.session.open_us"] = open
	l.m["service.session.release_us"] = rel
	l.m["service.session.open_us.shared"] = openShared

	cycle := func() (time.Duration, error) {
		s, err := svc.Open("iso")
		if err != nil {
			return 0, err
		}
		defer s.Release()
		r, err := service.GenericCodec{}.Decode(service.RecordJSON{Tags: map[string]int{"id": 0}, Fields: map[string]string{"url": "/api/users"}})
		if err != nil {
			return 0, err
		}
		if _, err := s.SendBatch(l.ctx, []*snet.Record{r}); err != nil {
			return 0, err
		}
		s.CloseInput()
		t0 := time.Now()
		recs, done, err := s.Drain(l.ctx, 0)
		d := time.Since(t0)
		if err != nil || !done || len(recs) != 1 {
			return 0, fmt.Errorf("session drain: %d records, done=%v, err=%v", len(recs), done, err)
		}
		return d, nil
	}
	var waits []float64
	for i := 0; i < 300; i++ {
		d, err := cycle()
		if err != nil {
			return err
		}
		waits = append(waits, float64(d.Nanoseconds())/1e3)
	}
	l.m["service.session.drain_wait_us"] = median(waits)
	const cycles = 200
	allocs, err := allocsPer(cycles, nil, func() error {
		for i := 0; i < cycles; i++ {
			if _, err := cycle(); err != nil {
				return err
			}
		}
		return nil
	})
	l.m["service.session.allocs"] = allocs
	return err
}

// compile times Compile of the workload's own network.
func (l *ladder) compile(net func() snet.Node) error {
	ns, err := medianPer(9, 1, nil, func() error {
		_, err := snet.Compile(net())
		return err
	})
	l.m["core.plan.compile_ms"] = ns / 1e6
	return err
}

// start times instantiating and tearing down an empty run of the webpipe
// plan: the per-request cost isolated sessions pay.
func (l *ladder) start() error {
	p, err := snet.Compile(workloads.WebPipeNet())
	if err != nil {
		return err
	}
	ns, err := medianPer(300, 1, nil, func() error {
		h := p.Start(l.ctx)
		h.Close()
		for range h.Out() {
		}
		h.Wait()
		return nil
	})
	l.m["core.plan.start_us"] = ns / 1e3
	return err
}

// identBox is a box that re-emits its input: the box layer with no body.
func identBox(name, label string) snet.Node {
	return snet.NewBox(name, snet.MustParseSignature(fmt.Sprintf("(%s, <id>) -> (%s, <id>)", label, label)),
		func(args []any, out *snet.Emitter) error { return out.Out(1, args[0], args[1]) })
}

// ladderReps is how many alternating pairs a difference item runs.
const ladderReps = 7

// box times a one-box plan of an identity box on webpipe request records
// at W=1 and at the default W; the difference is the box engine's cost.
// It also runs the webpipe net itself at W=1 and at the default W, the
// single-threaded baseline of webpipe-stream.
func (l *ladder) box() error {
	const n = 20000
	p, err := snet.Compile(identBox("lad_box", "url"))
	if err != nil {
		return err
	}
	mk := func() []*snet.Record { return webReqs(n) }
	w1 := snet.WithBoxWorkers(1)
	_, one, engine, err := paired(ladderReps, l.runAll(p, mk, -1), l.runAll(p, mk, -1, w1))
	if err != nil {
		return err
	}
	var in []*snet.Record
	allocs, err := allocsPer(n, func() { in = mk() }, func() error {
		_, _, err := p.RunAll(l.ctx, in, w1)
		return err
	})
	if err != nil {
		return err
	}
	l.m["core.box.ns_per_call"] = one
	l.m["core.box.allocs_per_call"] = allocs
	l.m["core.boxengine.ns_per_call"] = engine

	const sn = 1 << 15
	wp, err := snet.Compile(workloads.WebPipeNet())
	if err != nil {
		return err
	}
	smk := func() []*snet.Record { return webReqs(sn) }
	sd, s1, gap, err := paired(3, l.runAll(wp, smk, -1), l.runAll(wp, smk, -1, w1))
	if err != nil {
		return err
	}
	l.m["core.boxengine.w1_ops_per_s"] = 1e9 / s1
	l.m["core.boxengine.wdefault_ops_per_s"] = 1e9 / sd
	// A webpipe request makes three box calls; the box engine's per-call
	// cost times three is the gap it predicts between the two widths.
	if gap != 0 {
		l.m["core.boxengine.gap_explained_frac"] = 3 * engine / gap
	}
	return nil
}

// routeMerge times a three-way Parallel of identity boxes over a mixed
// record stream against one identity box over the same count (routing and
// merging), and the deterministic ParallelDet against Parallel (the
// deterministic merge).
func (l *ladder) routeMerge() error {
	const n = 20000
	branches := func() []snet.Node {
		return []snet.Node{identBox("lad_api", "api"), identBox("lad_page", "page"), identBox("lad_asset", "asset")}
	}
	labels := []string{"api", "page", "asset"}
	records := func(label func(i int) string) func() []*snet.Record {
		return func() []*snet.Record {
			out := make([]*snet.Record, n)
			for i := range out {
				out[i] = snet.NewRecord().SetField(label(i), "/x").SetTag("id", i)
			}
			return out
		}
	}
	mixed := records(func(i int) string { return labels[i%3] })
	single := records(func(int) string { return "api" })
	one, err := snet.Compile(identBox("lad_api", "api"))
	if err != nil {
		return err
	}
	par, err := snet.Compile(snet.Parallel(branches()...))
	if err != nil {
		return err
	}
	det, err := snet.Compile(snet.ParallelDet(branches()...))
	if err != nil {
		return err
	}
	w1 := snet.WithBoxWorkers(1)
	_, _, route, err := paired(ladderReps, l.runAll(par, mixed, -1, w1), l.runAll(one, single, -1, w1))
	if err != nil {
		return err
	}
	_, _, merge, err := paired(ladderReps, l.runAll(det, mixed, -1, w1), l.runAll(par, mixed, -1, w1))
	if err != nil {
		return err
	}
	l.m["core.route.ns_per_record"] = route
	l.m["core.merge.ns_per_record"] = merge
	return nil
}

// hop times a chain of unfused Observe taps: the per-record cost of one
// stream handoff between goroutines.
func (l *ladder) hop() error {
	const n, depth = 20000, 8
	chain := func(d int) (*snet.Plan, error) {
		node := snet.Observe("lad_tap0", nil)
		for i := 1; i < d; i++ {
			node = snet.Serial(node, snet.Observe(fmt.Sprintf("lad_tap%d", i), nil))
		}
		return snet.Compile(node, snet.WithFusion(false))
	}
	p1, err := chain(1)
	if err != nil {
		return err
	}
	pd, err := chain(depth)
	if err != nil {
		return err
	}
	mk := func() []*snet.Record { return webReqs(n) }
	_, _, d, err := paired(ladderReps, l.runAll(pd, mk, -1), l.runAll(p1, mk, -1))
	l.m["core.stream.ns_per_hop"] = d / (depth - 1)
	return err
}

// syncSplit times the wavefront's join shape: a synchrocell inside
// tag-indexed replication over <cell>, fed one {up} and one {left} record
// per cell, against the same replication of a tap (the join's own cost),
// and the replication of a tap over distinct keys against one key (the
// cost of creating a replica).
func (l *ladder) syncSplit() error {
	const cells = 4096
	pair := func(key func(c int) int) func() []*snet.Record {
		return func() []*snet.Record {
			out := make([]*snet.Record, 0, 2*cells)
			for c := 0; c < cells; c++ {
				k := key(c)
				out = append(out,
					snet.NewRecord().SetField("up", c).SetTag("row", k/64).SetTag("col", k%64).SetTag("cell", k),
					snet.NewRecord().SetField("left", c).SetTag("row", k/64).SetTag("col", k%64).SetTag("cell", k))
			}
			return out
		}
	}
	distinct := pair(func(c int) int { return c })
	same := pair(func(int) int { return 0 })
	join, err := snet.Compile(snet.NamedSplit("lad_cells", snet.NamedSync("lad_join",
		snet.MustParsePattern("{up, <row>, <col>, <cell>}"),
		snet.MustParsePattern("{left, <row>, <col>, <cell>}")), "cell"))
	if err != nil {
		return err
	}
	tap, err := snet.Compile(snet.NamedSplit("lad_cells", snet.Observe("lad_tap", nil), "cell"))
	if err != nil {
		return err
	}
	// Both sides are timed per input record, two per cell.  Replica
	// creation dominates both sides of the join's difference, so it takes
	// more pairs to settle.
	const reps = 2 * ladderReps
	_, _, joinD, err := paired(reps, l.runAll(join, distinct, cells), l.runAll(tap, distinct, -1))
	if err != nil {
		return err
	}
	_, _, replicaD, err := paired(reps, l.runAll(tap, distinct, -1), l.runAll(tap, same, -1))
	if err != nil {
		return err
	}
	l.m["core.sync.ns_per_join"] = 2 * joinD
	l.m["core.split.replica_us"] = 2 * replicaD / 1e3
	return nil
}

// star times one record unfolding a serial replicator stage by stage.
func (l *ladder) star() error {
	const depth = 64
	dec := snet.NewBox("lad_dec", snet.MustParseSignature("(<n>) -> (<n>) | (<n>, <done>)"),
		func(args []any, out *snet.Emitter) error {
			n := args[0].(int)
			if n <= 0 {
				return out.Out(2, 0, 1)
			}
			return out.Out(1, n-1)
		})
	p, err := snet.Compile(snet.NamedStar("lad_star", dec, snet.MustParsePattern("{<done>}")))
	if err != nil {
		return err
	}
	mk := func() []*snet.Record { return []*snet.Record{snet.NewRecord().SetTag("n", depth)} }
	t := l.runAll(p, mk, -1)
	ns, err := medianPer(15, 1, t.prep, t.run)
	l.m["core.star.stage_us"] = ns / (depth + 1) / 1e3
	return err
}

// sac times the paper's SaC functions called through the interpreter on a
// generated puzzle at pool width nproc and 1, a with-loop on the option
// cube's shape, and the pool's speedup on a whole Fig. 1 solve.
func (l *ladder) sac() error {
	nproc := runtime.NumCPU()
	puz, sol := sudoku.Generate(sched.New(1), 3, l.seed*1_000_003+1, sudokuHoles, true)
	board := sudoku.BoardToValue(puz)
	call := func(itp *sacvm.Interp, reps int) (copts, solve, allocs float64, err error) {
		var res []sacvm.Value
		copts, err = medianPer(reps, 1, nil, func() error {
			var err error
			res, err = itp.Call("computeOpts", []sacvm.Value{board}, nil)
			return err
		})
		if err != nil {
			return
		}
		level := func() error {
			_, err := itp.Call("solveOneLevel", res, func(int, []sacvm.Value) error { return nil })
			return err
		}
		if solve, err = medianPer(reps, 1, nil, level); err != nil {
			return
		}
		allocs, err = allocsPer(1, nil, level)
		return
	}
	cN, sN, aN, err := call(sudoku.NewSacBoxes(sched.New(nproc)).Interp(), 9)
	if err != nil {
		return err
	}
	_, s1, _, err := call(sudoku.NewSacBoxes(sched.New(1)).Interp(), 9)
	if err != nil {
		return err
	}
	l.m["sacvm.call_ms.computeOpts"] = cN / 1e6
	l.m["sacvm.call_ms.solveOneLevel"] = sN / 1e6
	l.m["sacvm.call_ms.solveOneLevel.w1"] = s1 / 1e6
	l.m["sacvm.allocs_per_call.solveOneLevel"] = aN

	pool := sched.New(nproc)
	shape := []int{9, 9, 9}
	const reps = 300
	wl, err := medianPer(5, reps*9*9*9, nil, func() error {
		for i := 0; i < reps; i++ {
			array.Genarray(pool, shape, false, array.GenHalfOpen([]int{0, 0, 0}, shape,
				func(iv []int) bool { return (iv[0]+iv[1]+iv[2])&1 == 0 }))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["array.withloop_ns_per_elem"] = wl

	solve := func(width int) (float64, error) {
		sb := sudoku.NewSacBoxes(sched.New(width))
		p, err := snet.Compile(sb.Fig1HybridNet())
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		outs, _, err := p.RunAll(l.ctx, []*snet.Record{snet.NewRecord().SetField("board", board)})
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		for _, r := range outs {
			if _, done := r.Tag("done"); done {
				v, _ := r.Field("board")
				if sv, ok := v.(sacvm.Value); ok {
					if b, err := sudoku.ValueToBoard(sv); err == nil && b.Equal(sol) {
						return d.Seconds(), nil
					}
				}
			}
		}
		return 0, errors.New("sched speedup: Fig. 1 did not reproduce the generator's solution")
	}
	t1, err := solve(1)
	if err != nil {
		return err
	}
	tN, err := solve(nproc)
	if err != nil {
		return err
	}
	l.m["sched.speedup"] = t1 / tN
	l.o.notes["sched.speedup"] = fmt.Sprintf("Fig. 1 solve at pool width 1 over width %d", nproc)
	return nil
}
