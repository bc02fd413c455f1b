package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/snet"
	"repro/snet/service"
)

// The traced run records point events at the boundaries of each layer the
// benchmark calls into, from the benchmark's side only: WithTracer box,
// sync and star events, Observe taps at the plan edges, an HTTP middleware,
// a wrapping service.Codec, and the load generator's own send/receive.
// Events go into a preallocated in-memory buffer; spans are derived from
// them after the run and written out when the benchmark ends.

// Event directions.  Tracer events carry the runtime's own "in"/"out"
// (anything else, such as a star's "exit", is a point); the benchmark's
// wrappers record begin/end pairs and edge-tap points.
const (
	evIn uint8 = iota
	evOut
	evBegin
	evEnd
	evPoint
)

type event struct {
	t    int64 // ns since the recorder started
	key  int64 // the op the event belongs to (request id, cell, job)
	node uint16
	dir  uint8
}

// recorder is the traced run's event buffer.  It is safe for concurrent
// use; once full it drops events and counts them.
type recorder struct {
	t0      time.Time
	ev      []event
	n       atomic.Int64
	dropped atomic.Int64
	on      atomic.Bool // recording; off drops events without counting them
	keyOf   func(node string, dir uint8, rec *snet.Record) int64

	mu    sync.RWMutex
	ids   map[string]uint16
	names []string
}

func newRecorder(capacity int, keyOf func(string, uint8, *snet.Record) int64) *recorder {
	r := &recorder{t0: time.Now(), ev: make([]event, capacity), keyOf: keyOf, ids: map[string]uint16{}}
	r.on.Store(true)
	return r
}

func (r *recorder) id(name string) uint16 {
	r.mu.RLock()
	id, ok := r.ids[name]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[name]; ok {
		return id
	}
	id = uint16(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = id
	return id
}

func (r *recorder) add(name string, dir uint8, key int64) {
	if key < 0 || !r.on.Load() {
		return
	}
	t := int64(time.Since(r.t0))
	i := r.n.Add(1) - 1
	if i >= int64(len(r.ev)) {
		r.dropped.Add(1)
		return
	}
	r.ev[i] = event{t: t, key: key, node: r.id(name), dir: dir}
}

// Event implements snet.Tracer.
func (r *recorder) Event(node, dir string, rec *snet.Record) {
	d := evPoint
	switch dir {
	case "in":
		d = evIn
	case "out":
		d = evOut
	}
	r.add(node, d, r.keyOf(node, d, rec))
}

// tap returns an Observe callback recording a point event at a plan edge.
func (r *recorder) tap(name string) func(*snet.Record) {
	return func(rec *snet.Record) { r.add(name, evPoint, r.keyOf(name, evPoint, rec)) }
}

// events returns the recorded events in time order.
func (r *recorder) events() []event {
	n := min(r.n.Load(), int64(len(r.ev)))
	ev := append([]event(nil), r.ev[:n]...)
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].t < ev[j].t })
	return ev
}

func (r *recorder) name(id uint16) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names[id]
}

// reqIDHeader carries a request's id to the HTTP middleware, so its span
// shares the identifier of the record's spans.
const reqIDHeader = "X-Perfbench-Id"

// middleware wraps the service handler in an "http" span for every request
// that carries an id header.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		key, err := strconv.ParseInt(req.Header.Get(reqIDHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, req)
			return
		}
		r.add("http", evBegin, key)
		next.ServeHTTP(w, req)
		r.add("http", evEnd, key)
	})
}

// tracingCodec wraps a codec in "codec.decode"/"codec.encode" spans keyed by
// the record's id tag.
type tracingCodec struct {
	inner service.Codec
	rec   *recorder
}

func (c tracingCodec) Decode(w service.RecordJSON) (*snet.Record, error) {
	key := int64(w.Tags["id"])
	c.rec.add("codec.decode", evBegin, key)
	r, err := c.inner.Decode(w)
	c.rec.add("codec.decode", evEnd, key)
	return r, err
}

func (c tracingCodec) Encode(r *snet.Record) service.RecordJSON {
	id, _ := r.Tag("id")
	c.rec.add("codec.encode", evBegin, int64(id))
	w := c.inner.Encode(r)
	c.rec.add("codec.encode", evEnd, int64(id))
	return w
}

// span is a derived interval: a layer's work on one op.
type span struct {
	Name   string `json:"name"`
	Key    int64  `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// deriveSpans pairs events into spans.  Begin/end pairs pair directly.  A
// box's (or synchrocell's) span runs from its "in" event to the last "out"
// with the same key before the next "in" with that key: the tracer has no
// end-of-call event, so a call that emits nothing yields no span.  For a
// box at W > 1 the "in" event fires at dispatch, so the span includes the
// wait for a free worker.
func deriveSpans(r *recorder, ev []event, parentOf func(name string) string) []span {
	type open struct {
		start, last int64
		outs        int
	}
	type k struct {
		node uint16
		key  int64
	}
	var spans []span
	opens := map[k]*open{}
	begins := map[k]int64{}
	closeSpan := func(kk k, o *open) {
		if o.outs > 0 {
			name := r.name(kk.node)
			spans = append(spans, span{Name: name, Key: kk.key, Start: o.start, End: o.last, Parent: parentOf(name)})
		}
	}
	for _, e := range ev {
		kk := k{e.node, e.key}
		switch e.dir {
		case evIn:
			if o := opens[kk]; o != nil {
				closeSpan(kk, o)
			}
			opens[kk] = &open{start: e.t}
		case evOut:
			if o := opens[kk]; o != nil {
				o.last = e.t
				o.outs++
			}
		case evBegin:
			begins[kk] = e.t
		case evEnd:
			if t0, ok := begins[kk]; ok {
				name := r.name(kk.node)
				spans = append(spans, span{Name: name, Key: kk.key, Start: t0, End: e.t, Parent: parentOf(name)})
				delete(begins, kk)
			}
		}
	}
	for kk, o := range opens {
		closeSpan(kk, o)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}

// pointsByKey indexes the point events (edge taps) by name and key.
func pointsByKey(r *recorder, ev []event) map[string]map[int64]int64 {
	out := map[string]map[int64]int64{}
	for _, e := range ev {
		if e.dir != evPoint {
			continue
		}
		name := r.name(e.node)
		if out[name] == nil {
			out[name] = map[int64]int64{}
		}
		out[name][e.key] = e.t
	}
	return out
}

// selfTimes returns, per span name, the durations in microseconds of its
// spans minus the parts of each covered by its child spans (spans with the
// same key whose Parent is that name).
func selfTimes(spans []span) map[string][]float64 {
	type k struct {
		name string
		key  int64
	}
	child := map[k]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			child[k{s.Parent, s.Key}] += s.dur()
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		self := s.dur() - child[k{s.Name, s.Key}]
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// unionCoverage returns how much of [lo, hi) is covered by at least one
// span.  spans must be sorted by start.
func unionCoverage(spans []span, lo, hi int64) int64 {
	var covered, curS, curE int64
	curS, curE = -1, -1
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a >= b {
			continue
		}
		if curE < 0 || a > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = a, b
			continue
		}
		curE = max(curE, b)
	}
	if curE > curS {
		covered += curE - curS
	}
	return covered
}

// writeSpans writes up to limit spans as JSON lines to path, creating its
// directory; it reports the number written.
func writeSpans(path string, spans []span, limit int) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, s := range spans {
		if n >= limit {
			break
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return n, err
		}
		n++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("writing spans: %w", err)
	}
	return n, nil
}
