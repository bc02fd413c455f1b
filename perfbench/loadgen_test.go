package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told: a request's service time and the
// sleeper's oversleep are explicit.
type fakeClock struct {
	mu        sync.Mutex
	t         time.Duration
	oversleep time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t + c.oversleep
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
}

const msec = time.Millisecond

// Latency runs from the due time, so a request queued behind a slow one is
// charged the wait; lag counts only the generator's own lateness.
func TestOpenLoopTimesFromDue(t *testing.T) {
	c := &fakeClock{}
	due := []time.Duration{0, 10 * msec, 20 * msec, 60 * msec}
	res := openLoop(c, due, 1, time.Second, func(int) bool {
		c.advance(15 * msec)
		return true
	})
	want := []struct{ start, lat time.Duration }{
		{0, 15 * msec},         // on time
		{15 * msec, 20 * msec}, // due 10, connection free at 15
		{30 * msec, 25 * msec}, // due 20, free at 30
		{60 * msec, 15 * msec}, // idle connection waits for the due time
	}
	for i, w := range want {
		r := res[i]
		if !r.Sent || !r.OK || r.Start != w.start || r.Latency() != w.lat || r.Lag != 0 {
			t.Errorf("request %d: %+v latency %v; want start %v latency %v lag 0", i, r, r.Latency(), w.start, w.lat)
		}
	}
}

func TestOpenLoopReportsLag(t *testing.T) {
	c := &fakeClock{oversleep: 2 * msec}
	res := openLoop(c, []time.Duration{10 * msec, 50 * msec}, 1, time.Second, func(int) bool {
		c.advance(msec)
		return true
	})
	for i, r := range res {
		if r.Lag != 2*msec || r.Latency() != 3*msec {
			t.Errorf("request %d: lag %v latency %v; want 2ms and 3ms", i, r.Lag, r.Latency())
		}
	}
	s := summarizeLoad(res, 1100)
	if s.LagP99Ms != 2 {
		t.Errorf("lag tail = %vms, want 2", s.LagP99Ms)
	}
}

// Requests still unsent at the cutoff, and requests whose response was
// wrong, count as attempted and failed.
func TestOpenLoopCountsFailures(t *testing.T) {
	c := &fakeClock{}
	due := []time.Duration{0, 10 * msec, 20 * msec, 30 * msec}
	res := openLoop(c, due, 1, 25*msec, func(i int) bool {
		c.advance(20 * msec)
		return i != 1
	})
	s := summarizeLoad(res, 1100)
	// 0 ok; 1 sent at 20, wrong; 2 and 3 find the connection free only at
	// 40ms, past the cutoff: unsent.
	if s.Attempted != 4 || s.Failed != 3 {
		t.Fatalf("attempted %d failed %d; want 4 and 3 (%+v)", s.Attempted, s.Failed, res)
	}
	if res[2].Sent || res[3].Sent {
		t.Errorf("requests past the cutoff were sent: %+v", res)
	}
	if s.Latency.N != 1 {
		t.Errorf("latency samples = %d, want only the successful request", s.Latency.N)
	}
}

func TestBacklogDetected(t *testing.T) {
	var res []sent
	for i := 0; i < 100; i++ {
		d := time.Duration(i) * msec
		delay := time.Duration(i) * msec / 4 // send delay grows through the run
		res = append(res, sent{Due: d, Start: d + delay, End: d + delay + msec, OK: true, Sent: true})
	}
	if !summarizeLoad(res, 1100).Backlogged {
		t.Error("growing send delay not reported as backlog")
	}
	for i := range res {
		res[i].Start, res[i].End = res[i].Due, res[i].Due+msec
	}
	if summarizeLoad(res, 1100).Backlogged {
		t.Error("steady run reported as backlogged")
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("schedule lengths %d, %d; want equal and near 1000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= time.Second {
			t.Fatalf("schedule not seeded, ordered and in range at %d", i)
		}
	}
}
