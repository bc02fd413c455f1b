package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/workloads"
	"repro/snet"
	"repro/snet/service"
)

// webpipeURLs returns the distinct URLs of the webpipe traffic mix.
func webpipeURLs() []string {
	var urls []string
	for i := 0; i == 0 || workloads.WebPipeURL(i) != urls[0]; i++ {
		urls = append(urls, workloads.WebPipeURL(i))
	}
	return urls
}

// urlMix draws n request URLs uniformly from the webpipe mix.
func urlMix(rng *rand.Rand, n int) []string {
	mix := webpipeURLs()
	out := make([]string, n)
	for i := range out {
		out[i] = mix[rng.Intn(len(mix))]
	}
	return out
}

// checkWebpipeWire checks one wire response record of request id against
// the workload's reference: exactly the resp field and the id and status
// tags, with the reference values.
func checkWebpipeWire(w service.RecordJSON, id int, url string) error {
	wantResp, wantStatus := workloads.WebPipeReference(url)
	switch {
	case len(w.Fields) != 1 || w.Fields["resp"] != wantResp:
		return fmt.Errorf("request %d (%s): fields %v, want resp %q: %w", id, url, w.Fields, wantResp, errDiverged)
	case len(w.Tags) != 2 || w.Tags["id"] != id || w.Tags["status"] != wantStatus:
		return fmt.Errorf("request %d (%s): tags %v, want id=%d status=%d: %w", id, url, w.Tags, id, wantStatus, errDiverged)
	}
	return nil
}

// checkWebpipeOutputs checks a stream's outputs: one correct response per
// request id base+i for urls[i], in any order.  It returns the number of
// requests whose response is missing, duplicated or wrong.
func checkWebpipeOutputs(outs []*snet.Record, urls []string, base int) (int, error) {
	seen := make([]bool, len(urls))
	failed := 0
	var first error
	note := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for _, r := range outs {
		w := service.GenericCodec{}.Encode(r)
		id, ok := w.Tags["id"]
		i := id - base
		if !ok || i < 0 || i >= len(urls) || seen[i] {
			note(fmt.Errorf("output %v: id missing, out of range or repeated: %w", w, errDiverged))
			continue
		}
		seen[i] = true
		if err := checkWebpipeWire(w, id, urls[i]); err != nil {
			note(err)
		}
	}
	for i, ok := range seen {
		if !ok {
			note(fmt.Errorf("request %d: no response: %w", base+i, errDiverged))
		}
	}
	return failed, first
}

// streamRecords is the length of one webpipe-stream job: one plan instance
// carries this many requests.
const streamRecords = 1 << 16

// streamBench is the webpipe-stream workload: the webpipe net over one
// long seeded request stream per Plan.RunAll, with the default run options.
type streamBench struct {
	seed int64
	n    int
	p    *snet.Plan
}

func newStreamBench(seed int64) *streamBench { return &streamBench{seed: seed, n: streamRecords} }

func (b *streamBench) name() string { return "webpipe-stream" }

func (b *streamBench) inFlight() int { return 1 }

func (b *streamBench) net() snet.Node { return workloads.WebPipeNet() }

func (b *streamBench) setup() error {
	p, err := snet.Compile(b.net())
	b.p = p
	return err
}

func (b *streamBench) plan(rec *recorder) (*snet.Plan, error) {
	if rec == nil {
		return b.p, nil
	}
	return snet.Compile(withEdgeTaps(rec, b.net()), snet.WithInputType(webpipeInput))
}

// webpipeInput is the type of a webpipe request, declared for the traced
// plan: an Observe tap passes any record, so inference alone would let an
// untyped record reach classify.
var webpipeInput = snet.RecType{snet.NewVariant(snet.Field("url"), snet.Tag("id"))}

// withEdgeTaps puts Observe taps recording "edge.in" and "edge.out" around
// a network: the record path's first and last boundary.
func withEdgeTaps(rec *recorder, n snet.Node) snet.Node {
	return snet.Serial(snet.Observe("edge.in", rec.tap("edge.in")),
		snet.Serial(n, snet.Observe("edge.out", rec.tap("edge.out"))))
}

// streamWarmRecords is the length of the warm-up job: enough to start
// every goroutine and fill the record arena.
const streamWarmRecords = 1 << 14

func (b *streamBench) job(k int) (*batchJob, error) {
	rng := rand.New(rand.NewSource(b.seed*1_000_003 + int64(k)))
	n := b.n
	if k < 0 {
		n = streamWarmRecords
	}
	urls := urlMix(rng, n)
	// Ids are unique across the run's jobs, so traced spans of different
	// jobs never share a key.
	base := (k + 1) * b.n
	in := make([]*snet.Record, n)
	for i, u := range urls {
		in[i] = snet.NewRecord().SetField("url", u).SetTag("id", base+i)
	}
	return &batchJob{inputs: in, ops: n, check: func(outs []*snet.Record) (int, error) {
		return checkWebpipeOutputs(outs, urls, base)
	}}, nil
}

// streamSample records one request in sixteen, to bound the trace.
const streamSample = 16

func (b *streamBench) keyOf(_ string, _ uint8, rec *snet.Record) int64 {
	id, ok := rec.Tag("id")
	if !ok || id%streamSample != 0 {
		return -1
	}
	return int64(id)
}

// residual decomposes each traced request's path through the net, from
// the input edge tap to the output edge tap, into box spans and the waits
// between them (stream handoff plus queueing).  The residual is the share
// of the median path the sum of the components' medians leaves
// unexplained.
func (b *streamBench) residual(r *recorder, ev []event, spans []span, m map[string]float64) {
	pts := pointsByKey(r, ev)
	in, out := pts["edge.in"], pts["edge.out"]
	byKey := map[int64][]span{}
	for _, s := range spans {
		byKey[s.Key] = append(byKey[s.Key], s)
	}
	comp := map[string][]float64{}
	var paths, waits []float64
	for key, t0 := range in {
		t1, ok := out[key]
		ss := byKey[key]
		if !ok || len(ss) != 3 {
			continue // a path cut by the trace buffer or a job boundary
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		paths = append(paths, float64(t1-t0)/1e3)
		prev := t0
		for i, s := range ss {
			w := float64(s.Start-prev) / 1e3
			comp[fmt.Sprintf("wait%d", i)] = append(comp[fmt.Sprintf("wait%d", i)], w)
			comp[fmt.Sprintf("box%d", i)] = append(comp[fmt.Sprintf("box%d", i)], float64(s.dur())/1e3)
			waits = append(waits, w)
			prev = s.End
		}
		w := float64(t1-prev) / 1e3
		comp["wait3"] = append(comp["wait3"], w)
		waits = append(waits, w)
	}
	if len(paths) == 0 {
		return
	}
	explained := 0.0
	for _, xs := range comp {
		explained += median(xs)
	}
	m["trace.residual_frac"] = 1 - explained/median(paths)
	m["core.stream.wait_us_p50"] = median(waits)
}
