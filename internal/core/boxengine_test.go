package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// The concurrent box engine (boxengine.go) must overlap invocations while
// keeping the output stream byte-identical to sequential execution.

// gateBox blocks every invocation until `need` of them are in flight at
// once, proving genuine overlap without depending on timing.
func gateBox(name string, need int) (Node, *atomic.Int32) {
	var inflight atomic.Int32
	n := NewBox(name, MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			inflight.Add(1)
			deadline := time.Now().Add(5 * time.Second)
			for inflight.Load() < int32(need) {
				if time.Now().After(deadline) {
					return errors.New("gate never filled: no overlap")
				}
				select {
				case <-out.Done():
					return ErrCancelled
				case <-time.After(100 * time.Microsecond):
				}
			}
			return out.Out(1, args[0].(int))
		})
	return n, &inflight
}

func TestBoxEngineOverlapsInvocations(t *testing.T) {
	box, _ := gateBox("olap", 3)
	out, stats := runNet(t, box, seqInputs(6, func(i int, r *Record) { r.SetTag("n", i) }),
		WithBoxWorkers(4))
	if len(out) != 6 {
		t.Fatalf("got %d records", len(out))
	}
	if hw := stats.Max("box.olap.inflight"); hw < 3 {
		t.Fatalf("inflight high-water = %d, want >= 3", hw)
	}
	if stats.Max("box.olap.concurrency") != 4 {
		t.Fatalf("concurrency = %d, want 4", stats.Max("box.olap.concurrency"))
	}
	if stats.Counter("box.olap.calls") != 6 {
		t.Fatalf("calls = %d", stats.Counter("box.olap.calls"))
	}
}

func TestBoxEnginePreservesOrder(t *testing.T) {
	// Each input <seq> emits (seq,0)..(seq,2) after a seq-dependent delay;
	// a concurrent engine that released invocations as they finish would
	// interleave them.  The reorder stage must restore input order exactly.
	multi := NewBox("ord", MustParseSignature("(<seq>) -> (<seq>,<part>)"),
		func(args []any, out *Emitter) error {
			seq := args[0].(int)
			time.Sleep(time.Duration((seq%5)*300) * time.Microsecond)
			for part := 0; part < 3; part++ {
				if err := out.Out(1, seq, part); err != nil {
					return err
				}
			}
			return nil
		})
	const n = 30
	out, _ := runNet(t, multi, seqInputs(n, nil), WithBoxWorkers(8))
	if len(out) != 3*n {
		t.Fatalf("got %d records", len(out))
	}
	for i, r := range out {
		if tagOf(t, r, "seq") != i/3 || tagOf(t, r, "part") != i%3 {
			t.Fatalf("position %d: got seq=%d part=%d", i,
				tagOf(t, r, "seq"), tagOf(t, r, "part"))
		}
	}
}

func TestBoxEngineMarkerBarrier(t *testing.T) {
	// A concurrent jittery box inside deterministic combinators: the sort
	// markers crossing the box must still delimit exactly the records routed
	// before them, or the det merge falls apart.
	n := SplitDet(jitterBox("mb", 91), "k")
	inputs := seqInputs(detN, func(i int, r *Record) { r.SetTag("k", i%4) })
	out, _ := runNet(t, n, inputs, WithBoxWorkers(8))
	assertOrdered(t, collectSeqs(t, out), detN)
}

func TestBoxEnginePanicIsolation(t *testing.T) {
	var errs int32
	out, stats := func() ([]*Record, *Stats) {
		out, stats, err := RunAll(context.Background(), poisonBox("pc", 7),
			seqInputs(20, func(i int, r *Record) { r.SetTag("n", i) }),
			WithBoxWorkers(4),
			WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}()
	if len(out) != 19 {
		t.Fatalf("got %d records, want 19 survivors", len(out))
	}
	if errs != 1 || stats.Counter("box.pc.panics") != 1 {
		t.Fatalf("errs=%d panics=%d", errs, stats.Counter("box.pc.panics"))
	}
}

func TestBoxEngineRejectsUnbindable(t *testing.T) {
	var errs int32
	out, stats, err := RunAll(context.Background(), incBox("rj", 1),
		[]*Record{recN(1), NewRecord().SetField("other", 1), recN(2)},
		WithBoxWorkers(4),
		WithErrorHandler(func(error) { atomic.AddInt32(&errs, 1) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || errs != 1 || stats.Counter("box.rj.rejected") != 1 {
		t.Fatalf("out=%d errs=%d rejected=%d", len(out), errs,
			stats.Counter("box.rj.rejected"))
	}
}

func TestNewBoxConcurrentOverridesRunDefault(t *testing.T) {
	// The run default is sequential, but the box pins its own width.
	var inflight atomic.Int32
	box := NewBoxConcurrent("own", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			inflight.Add(1)
			deadline := time.Now().Add(5 * time.Second)
			for inflight.Load() < 2 {
				if time.Now().After(deadline) {
					return errors.New("no overlap despite NewBoxConcurrent")
				}
				time.Sleep(100 * time.Microsecond)
			}
			return out.Out(1, args[0].(int))
		}, 4)
	out, stats := runNet(t, box, seqInputs(4, func(i int, r *Record) { r.SetTag("n", i) }),
		WithBoxWorkers(1))
	if len(out) != 4 {
		t.Fatalf("got %d records", len(out))
	}
	if stats.Max("box.own.concurrency") != 4 {
		t.Fatalf("concurrency = %d, want 4", stats.Max("box.own.concurrency"))
	}
}

func TestNewBoxConcurrentPinsSequential(t *testing.T) {
	// Width 1 pins the box to the sequential path even when the run default
	// is wide: at no point may two invocations overlap.
	var inflight, overlapped atomic.Int32
	box := NewBoxConcurrent("pin", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			if inflight.Add(1) > 1 {
				overlapped.Store(1)
			}
			time.Sleep(200 * time.Microsecond)
			inflight.Add(-1)
			return out.Out(1, args[0].(int))
		}, 1)
	out, stats := runNet(t, box, seqInputs(10, func(i int, r *Record) { r.SetTag("n", i) }),
		WithBoxWorkers(16))
	if len(out) != 10 {
		t.Fatalf("got %d records", len(out))
	}
	if overlapped.Load() != 0 {
		t.Fatal("pinned-sequential box overlapped invocations")
	}
	if stats.Max("box.pin.concurrency") != 1 {
		t.Fatalf("concurrency = %d, want 1", stats.Max("box.pin.concurrency"))
	}
}

// Satellite audit: a stopped emitter must refuse further emissions without
// counting them, and cancelled invocations must not count as completed
// calls — "box.<name>.calls" and "box.<name>.emitted" describe what
// actually reached the box's output stream.
func TestEmitterStoppedStopsCounting(t *testing.T) {
	var sawStopped, emittedAfterStop, calls int32
	blocker := NewBox("stop", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			atomic.AddInt32(&calls, 1)
			for i := 0; ; i++ {
				before := out.Emitted()
				if err := out.Out(1, i); err != nil {
					if !errors.Is(err, ErrCancelled) {
						return err
					}
					atomic.StoreInt32(&sawStopped, 1)
					// Emitter is stopped: another Out must fail fast
					// and not advance the emission count.
					if err2 := out.Out(1, i); !errors.Is(err2, ErrCancelled) {
						return errors.New("second Out after stop did not fail")
					}
					if out.Emitted() != before {
						atomic.StoreInt32(&emittedAfterStop, 1)
					}
					return ErrCancelled
				}
			}
		})
	h := Start(context.Background(), blocker, WithBuffer(0))
	if err := h.Send(recN(1)); err != nil {
		t.Fatal(err)
	}
	// The box is now looping emissions nobody consumes; cancel mid-stream.
	time.Sleep(2 * time.Millisecond)
	h.Cancel()
	h.Wait()
	// Wait waits for the output adapter, not the node goroutine; the box
	// settles its accounting just before exiting, so poll the (locked)
	// stats until the cancelled invocation has been counted.
	stats := h.Stats()
	deadline := time.Now().Add(5 * time.Second)
	for stats.Counter("box.stop.cancelled") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if atomic.LoadInt32(&calls) != 1 || atomic.LoadInt32(&sawStopped) != 1 {
		t.Fatalf("calls=%d sawStopped=%d", calls, sawStopped)
	}
	if atomic.LoadInt32(&emittedAfterStop) != 0 {
		t.Fatal("Emitted() advanced after the emitter was stopped")
	}
	if stats.Counter("box.stop.calls") != 0 {
		t.Fatalf("cancelled invocation counted as completed call: %d",
			stats.Counter("box.stop.calls"))
	}
	if stats.Counter("box.stop.cancelled") != 1 {
		t.Fatalf("cancelled = %d, want 1", stats.Counter("box.stop.cancelled"))
	}
}

func TestBoxEmittedCounterMatchesOutput(t *testing.T) {
	fan := NewBox("cnt", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			for i := 0; i < args[0].(int); i++ {
				if err := out.Out(1, i); err != nil {
					return err
				}
			}
			return nil
		})
	for _, w := range []int{1, 4} {
		out, stats := runNet(t, fan, []*Record{recN(2), recN(3), recN(4)}, WithBoxWorkers(w))
		if len(out) != 9 {
			t.Fatalf("W=%d: got %d records", w, len(out))
		}
		if got := stats.Counter("box.cnt.emitted"); got != 9 {
			t.Fatalf("W=%d: emitted = %d, want 9", w, got)
		}
		if got := stats.Counter("box.cnt.calls"); got != 3 {
			t.Fatalf("W=%d: calls = %d, want 3", w, got)
		}
	}
}

// The engine's bounds, driven white-box at W ∈ {2, 4, 16} with a box that
// blocks until released: the records it has taken from its input and not
// yet released downstream stay within the verifier's BoxEngineHold(W), its
// live reorder slots stay within W+1, and the invocations still overlap W
// wide (E12).  Both streams are unbuffered, so a send completes only when
// the engine takes the record and a receive only when the engine releases
// one.
func TestBoxEngineHoldAndSlotBound(t *testing.T) {
	for _, w := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			env, cancel := newTestEnv(0, 1)
			defer cancel()
			gate := make(chan struct{})
			var started atomic.Int32
			box := NewBoxConcurrent("hold", MustParseSignature("(<n>) -> (<n>)"),
				func(args []any, out *Emitter) error {
					started.Add(1)
					select {
					case <-gate:
					case <-out.Done():
						return ErrCancelled
					}
					return out.Out(1, args[0].(int))
				}, w).(*boxNode)
			preregisterHotStats(box, env.stats)
			inR, inW := newStream(env)
			outR, outW := newStream(env)
			e := newBoxEngine(box, env, outW, w)
			go e.run(inR)

			n := 3*w + 8
			var taken atomic.Int64
			go func() {
				for i := 0; i < n; i++ {
					if !inW.send(item{rec: NewRecord().SetTag("n", i)}) {
						return
					}
					taken.Add(1)
				}
				inW.close()
			}()
			hold := BoxEngineHold(w)
			check := func(released int64) {
				t.Helper()
				if held := taken.Load() - released; held > hold {
					t.Fatalf("%d records taken and not released, BoxEngineHold(%d) = %d", held, w, hold)
				}
				if live := e.live.Load(); live > int64(w)+1 {
					t.Fatalf("%d live slots, want <= W+1 = %d", live, w+1)
				}
			}

			// Saturate: every worker blocked, then let the feeder stall.
			deadline := time.Now().Add(5 * time.Second)
			for started.Load() < int32(w) {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d invocations overlap", started.Load(), w)
				}
				time.Sleep(100 * time.Microsecond)
			}
			for prev := int64(-1); taken.Load() != prev; {
				prev = taken.Load()
				time.Sleep(20 * time.Millisecond)
			}
			check(0)
			if got := env.stats.Max("box.hold.inflight"); got != int64(w) {
				t.Fatalf("inflight high-water = %d, want W = %d", got, w)
			}

			close(gate)
			var released int64
			for {
				it, ok := outR.recv()
				if !ok {
					break
				}
				if got := tagOf(t, it.rec, "n"); got != int(released) {
					t.Fatalf("output %d carries n=%d", released, got)
				}
				releaseRecord(it.rec)
				released++
				check(released)
			}
			if released != int64(n) {
				t.Fatalf("released %d of %d records", released, n)
			}
			if got := env.stats.Counter("box.hold.calls"); got != int64(n) {
				t.Fatalf("calls = %d, want %d", got, n)
			}
		})
	}
}

// Teardown: cancelling a W=4 engine while its non-head slots hold parked
// emissions must drain those slots — every dropped record released to the
// arena and counted under "stream.discarded" — and stop every goroutine
// the run started.
func TestBoxEngineTeardownDrainsSlots(t *testing.T) {
	const parts = 3
	base := goroutineCount()
	live := PoolStats().Live()
	box := NewBoxConcurrent("td", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error {
			n := args[0].(int)
			if n == 0 {
				// The head holds the queue until the run is cancelled.
				<-out.Done()
				return ErrCancelled
			}
			for i := 0; i < parts; i++ {
				if err := out.Out(1, n); err != nil {
					return err
				}
			}
			return nil
		}, 4)
	h := Start(context.Background(), box)
	for i := 0; i < 4; i++ {
		if err := h.Send(recN(i)); err != nil {
			t.Fatal(err)
		}
	}
	stats := h.Stats()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Each non-head invocation folds its stream tallies as it ends, so
	// this waits until all three have parked their emissions.
	waitFor("parked emissions", func() bool { return stats.Counter("stream.records") == 3*parts })
	h.Cancel()
	h.Wait()
	waitFor("cancelled invocations", func() bool { return stats.Counter("box.td.cancelled") == 4 })
	waitFor("slot drain", func() bool { return stats.Counter("stream.discarded") == 3*parts })
	waitFor("arena ledger", func() bool { return PoolStats().Live() == live })
	if got := stats.Counter("box.td.calls") + stats.Counter("box.td.emitted"); got != 0 {
		t.Fatalf("calls+emitted = %d after cancellation, want 0", got)
	}
	waitForGoroutines(t, base)
}
