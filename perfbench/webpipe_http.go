package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/workloads"
	"repro/snet"
	"repro/snet/service"
)

// The webpipe-http workload: seeded Poisson arrivals at a fixed offered
// rate, each a one-shot POST /api/run of one {url, <id>} record, sent over
// at most nproc keep-alive connections from this process to the service
// handler on a loopback listener.
const (
	httpRate = 3000.0 // offered requests per second
	// httpWindow is how many consecutive requests each latency window
	// holds: the fewest that support a p99 with ten samples beyond it, so
	// a run has many windows and one stall moves one window's tail.
	httpWindow  = 1100
	httpGrace   = 5 * time.Second // after the schedule, how long the backlog may drain
	httpTimeout = 5 * time.Second // client timeout: a slower response is a failure
	// httpLimitMs is the latency limit on the reported tail that the
	// sustained-rate ladder holds the service to.
	httpLimitMs = 10.0
)

// webServer is one set-up of the service: registered, compiled, verified
// and listening.
type webServer struct {
	svc  *service.Service
	srv  *http.Server
	base string
	done chan struct{}
}

// Network names: the traced run serves a second, traced copy of webpipe
// beside the plain one, so traced and untraced requests share a server.
const (
	webNet       = "webpipe"
	webNetTraced = "webpipe-traced"
)

// startWebServer registers the webpipe network the way snetd registers it
// by default (isolated sessions, W = GOMAXPROCS, buffer 32, fusion on),
// compiles and verifies it, and serves the handler on a loopback port,
// returning once the listener is up.  With a recorder it also
// registers webNetTraced, whose builder adds edge taps and whose codec
// records spans, and wraps the handler in the span middleware.
func startWebServer(rec *recorder) (*webServer, error) {
	svc := service.New()
	register := func(name string, build service.Builder, codec service.Codec) error {
		n := svc.Register(name, "request/response workload", service.Options{BufferSize: 32}, build, codec)
		if _, err := n.Plan(); err != nil {
			return err
		}
		if rep := n.Verify(); rep == nil || !rep.DeadlockFree() {
			return fmt.Errorf("%s: verifier did not certify the network deadlock-free", name)
		}
		return nil
	}
	if err := register(webNet, func(service.Options) (snet.Node, error) { return workloads.WebPipeNet(), nil }, nil); err != nil {
		return nil, err
	}
	if rec != nil {
		err := register(webNetTraced, func(service.Options) (snet.Node, error) {
			return withEdgeTaps(rec, workloads.WebPipeNet()), nil
		}, tracingCodec{inner: service.GenericCodec{}, rec: rec})
		if err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	if rec != nil {
		h = rec.middleware(h)
	}
	s := &webServer{svc: svc, srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// healthy asks the health probe, checking that the server answers.
func (s *webServer) healthy() error {
	resp, err := http.Get(s.base + "/api/healthz")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// close stops the listener, waits for the serve loop and shuts the
// service down.
func (s *webServer) close() {
	_ = s.srv.Close()
	<-s.done
	s.svc.Shutdown()
	http.DefaultClient.CloseIdleConnections()
}

// webClient sends one-shot runs over at most conns connections.  With a
// recorder, the requests load marks as traced go to webNetTraced and record
// client spans.
type webClient struct {
	c   *http.Client
	url string
	rec *recorder
}

func newWebClient(base string, conns int, rec *recorder) *webClient {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DisableCompression: true, IdleConnTimeout: time.Minute}
	return &webClient{c: &http.Client{Transport: tr, Timeout: httpTimeout}, url: base + "/api/run", rec: rec}
}

func (c *webClient) close() { c.c.CloseIdleConnections() }

// run posts request id for url and checks the response against the
// reference.
func (c *webClient) run(id int, url string, traced bool) error {
	name := webNet
	if traced {
		name = webNetTraced
	}
	body := fmt.Appendf(nil, `{"net":%q,"wait":"5s","records":[{"tags":{"id":%d},"fields":{"url":%q}}]}`, name, id, url)
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(reqIDHeader, strconv.Itoa(id))
		c.rec.add("client", evBegin, int64(id))
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if traced {
		c.rec.add("client", evEnd, int64(id))
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("request %d: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(b))
	}
	var out struct {
		Records []service.RecordJSON `json:"records"`
		Done    bool                 `json:"done"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return fmt.Errorf("request %d: %v: %w", id, err, errDiverged)
	}
	if !out.Done || len(out.Records) != 1 {
		return fmt.Errorf("request %d: done=%v with %d records, want one: %w", id, out.Done, len(out.Records), errDiverged)
	}
	return checkWebpipeWire(out.Records[0], id, url)
}

// load runs the open-loop generator at rate for dur, ids starting at
// base, URLs drawn from rng, and counts failures into o (when non-nil).
// With a recorder, every odd request is traced.
func (c *webClient) load(rng *rand.Rand, rate float64, dur time.Duration, base int, o *outcome) []sent {
	due := poissonSchedule(rng, rate, dur)
	urls := urlMix(rng, len(due))
	return openLoop(wallClock{t0: time.Now()}, due, runtime.NumCPU(), dur+httpGrace, func(i int) bool {
		err := c.run(base+i, urls[i], c.rec != nil && i%2 == 1)
		if err != nil && o != nil {
			o.fail(0, err)
		}
		return err == nil
	})
}

// setupWeb starts the server setupReps times, timing each set-up, and
// keeps the last one running.  The health probe after each set-up is not
// timed: a loopback round trip between idle processors measures the host's
// wake-up latency, which on a virtual machine swings with its neighbours'
// load, not the service's set-up.
func setupWeb(rec *recorder) (*webServer, []float64, error) {
	var times []float64
	var s *webServer
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = startWebServer(rec); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if err := s.healthy(); err != nil {
			s.close()
			return nil, nil, err
		}
	}
	return s, times, nil
}

// runWebpipeHTTP is the untraced run: the end-to-end metrics at the fixed
// offered rate.
func runWebpipeHTTP(_ context.Context, seed int64, dur time.Duration) (*outcome, error) {
	o := newOutcome()
	s, setups, err := setupWeb(nil)
	if err != nil {
		return nil, err
	}
	defer s.close()
	c := newWebClient(s.base, runtime.NumCPU(), nil)
	defer c.close()
	rng := rand.New(rand.NewSource(seed))
	c.load(rng, httpRate, time.Second, 1<<30, nil) // warm-up: connections, pools, JIT-free caches

	ph := startPhase()
	res := c.load(rng, httpRate, dur, 0, o)
	pr := ph.end()
	sum := summarizeLoad(res, httpWindow)
	endToEndHTTP(o, setups, sum, res, pr)
	return o, nil
}

// httpLatency records the request latency figures of an open-loop run.
func httpLatency(o *outcome, sum loadSummary) {
	o.metrics["latency_p50_ms"] = sum.Latency.P50
	o.metrics["latency_p99_ms"] = sum.Latency.Tail
	o.samples["latency_p50_ms"] = sum.Latency.N
	o.samples["latency_p99_ms"] = sum.Latency.N
	o.notes["latency_p50_ms"] = fmt.Sprintf("from due time; median of %d windows of %d requests; not gated", sum.Latency.Windows, httpWindow)
	o.notes["latency_p99_ms"] = fmt.Sprintf("p%g from due time; median of %d windows; not gated", sum.Latency.TailPct, sum.Latency.Windows)
}

func endToEndHTTP(o *outcome, setups []float64, sum loadSummary, res []sent, pr phaseResult) {
	o.attempted += int64(sum.Attempted)
	o.failed += int64(sum.Failed)
	o.metrics["setup_s"] = median(setups)
	o.samples["setup_s"] = len(setups)
	var last time.Duration
	for _, r := range res {
		last = max(last, r.End)
	}
	o.metrics["ops_per_s"] = float64(sum.Attempted-sum.Failed) / last.Seconds()
	o.samples["ops_per_s"] = sum.Attempted - sum.Failed
	o.notes["ops_per_s"] = fmt.Sprintf("correct responses per second at %.0f req/s offered", httpRate)
	httpLatency(o, sum)
	o.metrics["cpu_us_per_op"] = float64(pr.CPU.Microseconds()) / float64(sum.Attempted)
	o.samples["cpu_us_per_op"] = sum.Attempted
	o.notes["cpu_us_per_op"] = "process CPU: server and load generator"
	o.metrics["mem_peak_mb"] = pr.MemPeakMB
	o.metrics["loadgen.lag_p99_ms"] = sum.LagP99Ms
	o.notes["loadgen.lag_p99_ms"] = fmt.Sprintf("p%g", sum.LagPct)
}

// traceWebpipeHTTP is the traced run: an untraced stretch and a traced
// stretch of half the run each at the fixed rate, the sustained-rate
// ladder, then the layer ladder.
func traceWebpipeHTTP(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	half := time.Duration(cfg.seconds) * time.Second / 2
	rng := rand.New(rand.NewSource(cfg.seed))
	m := o.metrics

	// Untraced stretch: latency, the load generator's lag, the
	// process-level counters and the sustained rate.
	s, _, err := setupWeb(nil)
	if err != nil {
		return nil, err
	}
	c := newWebClient(s.base, runtime.NumCPU(), nil)
	c.load(rng, httpRate, time.Second, 1<<30, nil)
	pool0 := snet.PoolStats()
	ph := startPhase()
	res := c.load(rng, httpRate, half, 0, o)
	pr := ph.end()
	pool1 := snet.PoolStats()
	u := summarizeLoad(res, httpWindow)
	o.attempted += int64(u.Attempted)
	o.failed += int64(u.Failed)
	httpLatency(o, u)
	m["loadgen.lag_p99_ms"] = u.LagP99Ms
	o.notes["loadgen.lag_p99_ms"] = fmt.Sprintf("p%g", u.LagPct)
	m["go.allocs_per_op"] = pr.Allocs / float64(u.Attempted)
	m["go.gc_cpu_frac"] = pr.GCCPUFrac
	m["go.goroutines_peak"] = pr.Goroutines
	if acq := pool1.Acquired - pool0.Acquired; acq > 0 {
		m["core.record.recycle_ratio"] = float64(pool1.Recycled-pool0.Recycled) / float64(acq)
	}
	m["loadgen.sustained_rps"] = sustainedRate(c, rng, o)
	c.close()
	s.close()

	// Mixed stretch: odd requests go to the traced copy of the network, even
	// ones to the plain one, on the same server and connections; the
	// overhead compares their median service times (send to response).
	rec := newRecorder(1<<20, func(_ string, _ uint8, r *snet.Record) int64 {
		id, _ := r.Tag("id")
		return int64(id)
	})
	ts, _, err := setupWeb(rec)
	if err != nil {
		return nil, err
	}
	tc := newWebClient(ts.base, runtime.NumCPU(), rec)
	rec.on.Store(false)
	tc.load(rng, httpRate, time.Second, 1<<30, nil)
	rec.on.Store(true)
	tres := tc.load(rng, httpRate, half, 0, o)
	rec.on.Store(false)
	tc.close()
	ts.close()
	t := summarizeLoad(tres, httpWindow)
	o.attempted += int64(t.Attempted)
	o.failed += int64(t.Failed)
	var svcTime [2][]float64 // by parity: untraced, traced
	for i, r := range tres {
		if r.OK {
			svcTime[i%2] = append(svcTime[i%2], ms(r.End-r.Start))
		}
	}
	m["trace.overhead_frac"] = median(svcTime[1])/median(svcTime[0]) - 1
	o.notes["trace.overhead_frac"] = fmt.Sprintf("median service time, %d traced vs %d untraced requests interleaved",
		len(svcTime[1]), len(svcTime[0]))

	ev := rec.events()
	spans := deriveSpans(rec, ev, func(name string) string {
		if name == "codec.decode" || name == "codec.encode" {
			return "http"
		}
		return ""
	})
	httpResidual(m, o, rec, ev, spans)
	o.samples["trace.events"] = len(ev)
	if err := writeTrace(cfg, spans, o); err != nil {
		return nil, err
	}
	if err := runLadder(ctx, m, o, cfg.seed, workloads.WebPipeNet); err != nil {
		return nil, err
	}
	return o, nil
}

// httpResidual derives the service layer's self time and the residual of
// the traced requests.  The http span's self time is the handler's time
// outside the codec spans and outside the record's path through the plan
// (edge tap to edge tap); it includes session open and release.  The
// residual is the share of the client's median request time that the
// medians of the http span's self time, the codec spans and the plan path
// leave unexplained: the loopback transport and the client.
func httpResidual(m map[string]float64, o *outcome, r *recorder, ev []event, spans []span) {
	pts := pointsByKey(r, ev)
	in, out := pts["edge.in"], pts["edge.out"]
	type parts struct{ http, decode, encode, client int64 }
	byKey := map[int64]*parts{}
	for _, s := range spans {
		p := byKey[s.Key]
		if p == nil {
			p = &parts{}
			byKey[s.Key] = p
		}
		switch s.Name {
		case "http":
			p.http = s.dur()
		case "codec.decode":
			p.decode = s.dur()
		case "codec.encode":
			p.encode = s.dur()
		case "client":
			p.client = s.dur()
		}
	}
	var self, dec, enc, path, client []float64
	for key, p := range byKey {
		t0, ok0 := in[key]
		t1, ok1 := out[key]
		if p.http == 0 || p.client == 0 || !ok0 || !ok1 {
			continue
		}
		plan := t1 - t0
		self = append(self, float64(p.http-p.decode-p.encode-plan)/1e3)
		dec = append(dec, float64(p.decode)/1e3)
		enc = append(enc, float64(p.encode)/1e3)
		path = append(path, float64(plan)/1e3)
		client = append(client, float64(p.client)/1e3)
	}
	if len(self) == 0 {
		return
	}
	m["service.http.self_us_p50"] = median(self)
	o.samples["service.http.self_us_p50"] = len(self)
	explained := median(self) + median(dec) + median(enc) + median(path)
	m["trace.residual_frac"] = 1 - explained/median(client)
}

// sustainedRate steps the offered rate up from the fixed rate and returns
// the highest step at which every request succeeded, the windowed tail
// stayed within httpLimitMs and the send backlog did not grow.
func sustainedRate(c *webClient, rng *rand.Rand, o *outcome) float64 {
	best := 0.0
	for _, f := range []float64{1, 1.25, 1.5, 1.75, 2, 2.25, 2.5} {
		rate := httpRate * f
		res := c.load(rng, rate, 2*time.Second, 1<<29, nil)
		s := summarizeLoad(res, httpWindow)
		ok := s.Failed == 0 && s.Latency.Tail <= httpLimitMs && !s.Backlogged
		o.notes[fmt.Sprintf("loadgen.ladder.%05.0f", rate)] = fmt.Sprintf("p%g=%.2fms failed=%d backlog=%v",
			s.Latency.TailPct, s.Latency.Tail, s.Failed, s.Backlogged)
		if !ok {
			break
		}
		best = rate
	}
	return best
}
