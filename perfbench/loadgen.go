package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the due offsets of a Poisson arrival process at
// rate per second over [0, dur): exponential gaps drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// clock abstracts time for the generator so its timing rules can be tested
// without sleeping: now is the offset from the generator's start.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// sent is what the generator recorded about one scheduled request.
type sent struct {
	Due   time.Duration // when the request was due
	Start time.Duration // when it was actually sent
	End   time.Duration // when its response was complete
	// Lag is how late the generator itself ran: the send time minus the
	// later of the due time and the moment a connection became free to
	// send it.  Waiting for a busy connection is the system's delay, not
	// the generator's, and shows in Latency instead.
	Lag  time.Duration
	OK   bool // response received and correct
	Sent bool // false: the run ended before the request could be sent
}

// Latency is the request's time from when it was due to its response, so a
// stall also charges the requests queued behind it.
func (s sent) Latency() time.Duration { return s.End - s.Due }

// openLoop sends one request per scheduled due offset over conns
// connections, each driven by one goroutine taking the next request in due
// order.  The schedule does not slow down when the system does: a request
// whose connection is busy at its due time waits, and that wait counts in
// its latency.  Requests not sent by the cutoff are recorded as failed.
// do sends request i and reports whether the response was correct.
func openLoop(c clock, due []time.Duration, conns int, cutoff time.Duration, do func(i int) bool) []sent {
	out := make([]sent, len(due))
	for i, d := range due {
		out[i].Due = d
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				free := c.now()
				if free > cutoff {
					continue // run over: the rest stay unsent, counted failed
				}
				c.sleepUntil(due[i])
				start := c.now()
				ok := do(i)
				end := c.now()
				out[i] = sent{Due: due[i], Start: start, End: end,
					Lag: start - max(due[i], free), OK: ok, Sent: true}
			}
		}()
	}
	wg.Wait()
	return out
}

// loadSummary reduces an open-loop run to its reported figures.
type loadSummary struct {
	Attempted  int
	Failed     int
	Latency    latencySummary // ms, over successful requests, windowed
	LagP99Ms   float64
	LagPct     float64
	Backlogged bool // the send delay grew over the run: offered rate not sustained
}

// summarizeLoad reports latency in milliseconds over windows of `window`
// consecutive successful requests in due order (res is in due order).  A
// failed or unsent request counts as attempted and failed; it has no
// latency sample, and the caller treats any failure as missing the latency
// limit.
func summarizeLoad(res []sent, window int) loadSummary {
	s := loadSummary{Attempted: len(res)}
	var windows [][]float64
	var lags []float64
	var early, late []float64 // send delay in the first and last fifth of the run
	last := time.Duration(0)
	for _, r := range res {
		last = max(last, r.Due)
	}
	for _, r := range res {
		if !r.OK {
			s.Failed++
			continue
		}
		if n := len(windows); n == 0 || len(windows[n-1]) == window {
			windows = append(windows, make([]float64, 0, window))
		}
		windows[len(windows)-1] = append(windows[len(windows)-1], ms(r.Latency()))
		lags = append(lags, ms(r.Lag))
		delay := ms(r.Start - r.Due)
		switch {
		case r.Due < last/5:
			early = append(early, delay)
		case r.Due >= last-last/5:
			late = append(late, delay)
		}
	}
	// A last partial window would support a lower tail percentile than the
	// full ones and drag every window down to it; fold it into its
	// predecessor.
	if n := len(windows); n > 1 && len(windows[n-1]) < window {
		windows[n-2] = append(windows[n-2], windows[n-1]...)
		windows = windows[:n-1]
	}
	s.Latency = summarizeWindows(windows)
	if len(lags) > 0 {
		l := summarize(lags)
		s.LagP99Ms, s.LagPct = l.Tail, l.TailPct
	}
	// Growing backlog: requests at the end of the run wait for a
	// connection markedly longer than those at its start.
	if len(early) > 0 && len(late) > 0 {
		s.Backlogged = median(late) > 2*median(early)+1
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
