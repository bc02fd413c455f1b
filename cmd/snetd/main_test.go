package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/snet/service"
	"repro/sudoku"
)

// TestDemo50ConcurrentSessions is the service acceptance scenario: 50
// concurrent HTTP sessions solving sudoku records through the shared
// networks (each running the concurrent box engine at W=4), verified
// solutions, and non-zero /stats counters.
func TestDemo50ConcurrentSessions(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 12
	}
	svc, err := newService(config{workers: 1, boxWorkers: 4, buffer: 8, throttle: 4, level: 40})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runDemo(svc, n, &out); err != nil {
		t.Fatalf("demo: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Fatalf("demo output missing OK:\n%s", out.String())
	}
}

// TestDemoSharedMode runs the demo scenario with every network in shared
// session mode: concurrent HTTP clients churning sessions over one warm
// engine per network, and the replica gauge back at zero afterwards.
func TestDemoSharedMode(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 8
	}
	svc, err := newService(config{workers: 1, boxWorkers: 4, buffer: 8, throttle: 4, level: 40,
		sessionMode: service.Shared})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runDemo(svc, n, &out); err != nil {
		t.Fatalf("shared demo: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Fatalf("demo output missing OK:\n%s", out.String())
	}
}

// TestGracefulSigtermDrain is the shutdown smoke test: after SIGTERM the
// daemon refuses new sessions immediately but keeps serving a live session
// until it finishes, then exits cleanly.
func TestGracefulSigtermDrain(t *testing.T) {
	svc, err := newService(config{workers: 1, throttle: 4, level: 40})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	var out bytes.Buffer
	served := make(chan error, 1)
	go func() { served <- serve(svc, "127.0.0.1:0", stop, 10*time.Second, ready, &out) }()
	base := "http://" + <-ready

	// A live session with a record already fed, not yet drained.
	var opened struct {
		Session string `json:"session"`
	}
	if err := postJSON(base+"/api/sessions", map[string]string{"net": "fig1"}, &opened); err != nil {
		t.Fatalf("open: %v", err)
	}
	puzzle := sudoku.Fixed9x9()["easy"]
	feed := map[string]any{
		"records": []service.RecordJSON{{Fields: map[string]string{"board": boardString(puzzle)}}},
		"close":   true,
	}
	if err := postJSON(base+"/api/sessions/"+opened.Session+"/records", feed, nil); err != nil {
		t.Fatalf("feed: %v", err)
	}

	stop <- syscall.SIGTERM

	// New opens must be refused promptly (503 via ErrShutdown).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf bytes.Buffer
		_ = json.NewEncoder(&buf).Encode(map[string]string{"net": "fig1"})
		resp, err := http.Post(base+"/api/sessions", "application/json", &buf)
		if err != nil {
			t.Fatalf("post during drain: %v", err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("opens still accepted during drain: status %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The live session still drains over the open HTTP surface.
	var res struct {
		Records []service.RecordJSON `json:"records"`
		Done    bool                 `json:"done"`
	}
	if err := getJSON(base+"/api/sessions/"+opened.Session+"/results?wait=20s", &res); err != nil {
		t.Fatalf("drain during shutdown: %v", err)
	}
	solved := false
	for _, rec := range res.Records {
		b, err := sudoku.Parse(rec.Fields["board"])
		if err == nil && b.IsSolved() {
			solved = true
		}
	}
	if !solved {
		t.Fatalf("no solution during drain: %+v", res)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/api/sessions/"+opened.Session, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("serve did not return after drain:\n%s", out.String())
	}
	for _, want := range []string{"refusing new sessions", "all sessions drained", "shut down"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("shutdown log missing %q:\n%s", want, out.String())
		}
	}
	if n := svc.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survived shutdown", n)
	}
}

// TestGracefulDrainDeadline: a session that never finishes is cancelled
// once the drain deadline passes — serve still returns.
func TestGracefulDrainDeadline(t *testing.T) {
	svc, err := newService(config{workers: 1, throttle: 4, level: 40})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	var out bytes.Buffer
	served := make(chan error, 1)
	go func() { served <- serve(svc, "127.0.0.1:0", stop, 200*time.Millisecond, ready, &out) }()
	base := "http://" + <-ready
	// A session nobody ever drains or releases.
	if err := postJSON(base+"/api/sessions", map[string]string{"net": "fig2"}, nil); err != nil {
		t.Fatalf("open: %v", err)
	}
	stop <- syscall.SIGTERM
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("serve wedged past the drain deadline:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drain deadline passed") {
		t.Fatalf("missing deadline log:\n%s", out.String())
	}
	if n := svc.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survived forced shutdown", n)
	}
}

func TestBoardCodecRoundTrip(t *testing.T) {
	puzzle := sudoku.Fixed9x9()["easy"]
	wire := service.RecordJSON{
		Fields: map[string]string{"board": boardString(puzzle)},
		Tags:   map[string]int{"k": 3},
	}
	rec, err := boardCodec{}.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := rec.Field("board")
	if !ok || !v.(*sudoku.Board).Equal(puzzle) {
		t.Fatalf("decoded board mismatch")
	}
	back := boardCodec{}.Encode(rec)
	if back.Fields["board"] != boardString(puzzle) || back.Tags["k"] != 3 {
		t.Fatalf("round trip: %+v", back)
	}
}

// TestLangNetworkOverHTTP serves a textual S-Net program and runs a record
// through it via the one-shot endpoint.
func TestLangNetworkOverHTTP(t *testing.T) {
	svc, err := newService(config{workers: 1, throttle: 4, level: 40,
		snetFile: "testdata/countdown.snet"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	sess, err := svc.Open("countdown")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Release()
	rec, err := service.GenericCodec{}.Decode(service.RecordJSON{Tags: map[string]int{"n": 3}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	if err := sess.Send(ctx, rec); err != nil {
		t.Fatal(err)
	}
	sess.CloseInput()
	recs, done, err := sess.Drain(ctx, 0)
	if err != nil || !done || len(recs) != 1 {
		t.Fatalf("drain: %d records done=%v err=%v", len(recs), done, err)
	}
	if n, _ := recs[0].Tag("n"); n != 0 {
		t.Fatalf("countdown result: %v", recs[0])
	}
	if d, ok := recs[0].Tag("done"); !ok || d != 1 {
		t.Fatalf("countdown result missing <done>: %v", recs[0])
	}
}

func TestNewServiceRegistersNetworks(t *testing.T) {
	svc, err := newService(config{workers: 1, throttle: 4, level: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	var names []string
	for _, n := range svc.Networks() {
		names = append(names, n.Name())
	}
	want := []string{"fig1", "fig2", "fig3", "wavefront", "webpipe"}
	if len(names) != len(want) {
		t.Fatalf("networks: %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("networks: %v, want %v", names, want)
		}
	}
}

// A client that sends half a request header and stalls must not hold its
// connection (and the server goroutine behind it) open: serve's header
// deadline closes it.
func TestServeClosesStalledHeader(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	svc, err := newService(config{workers: 1, throttle: 4, level: 40})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- serve(svc, "127.0.0.1:0", stop, time.Second, ready, io.Discard) }()
	defer func() {
		stop <- syscall.SIGTERM
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	conn, err := net.Dial("tcp", <-ready)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /api/run HTTP/1.1\r\nHost: snetd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open after the header deadline: %v", err)
	}
}
