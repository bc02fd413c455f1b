package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the concurrent box execution engine.  Box functions are
// stateless by contract (§4: "it is the concern of the box implementation
// to exploit concurrency internally, and of S-Net to exploit it between
// boxes"), so one box node may run many invocations at a time.  What the
// engine must preserve is the stream abstraction around that concurrency:
//
//   - Order: the output stream must be indistinguishable from sequential
//     invocation.  Every accepted input is assigned a slot in a FIFO
//     reorder queue; invocation i's emissions are released downstream
//     strictly before invocation i+1's, whatever order the invocations
//     finish in.  Deterministic combinators fed by the box therefore see
//     exactly the W=1 interleaving.
//   - Marker barriers: a sort record ("marker") of the deterministic-merge
//     protocol occupies its own slot in the reorder queue, so it is
//     forwarded only after every invocation dispatched before it has
//     flushed, and before anything dispatched after it — in-flight
//     invocations never leak emissions across a marker.
//   - Panic isolation: an invocation that panics loses only its own
//     record; its slot ends and the stream continues (invoke recovers).
//   - Backpressure: each slot's emission buffer is a stream (emitStream)
//     with the run's frame capacity; a fast invocation far from the head
//     of the queue blocks on its own buffer rather than ballooning memory.
//     Ending the invocation flushes any batched tail, so a worker never
//     parks between calls with emissions still pending.
//
// The engine allocates nothing per invocation.  It owns a ring of at most
// W+1 reorder slots, each carrying a recycled emission stream, emitter and
// argument buffer; the dispatcher, the workers and the releaser pass slot
// pointers only, and a slot returns to the dispatcher once the releaser has
// seen its end-of-invocation item.  Holding W+1 slots bounds the records
// the engine has taken from its input and not yet released to W in flight
// plus one dispatched, within the verifier's BoxEngineHold(W) = 2W-1.
// Slots do not outlive a busy period: when the engine goes quiet they are
// parked in a process-wide pool, so an idle engine — wavefront keeps
// thousands of cell replicas alive — holds no emission buffers.

// boxSlot is one reorder slot: either a forwarded marker or one invocation
// with its input record, bound arguments, emitter and emission stream.
type boxSlot struct {
	mk   *marker
	rec  *Record
	args []any
	em   Emitter
	emit *emitStream
}

// slotPool holds parked slots between busy periods, shared by all engines.
var slotPool sync.Pool

// boxEngine is one concurrent instance of a box node.  The dispatcher runs
// on the node's own goroutine; workers spawn lazily, one per observed need
// up to width, and the releaser starts with the first record.
type boxEngine struct {
	b        *boxNode
	env      *runEnv
	out      *streamWriter
	width    int
	consumed Variant

	queue    chan *boxSlot // the FIFO reorder queue: dispatcher → releaser
	calls    chan *boxSlot // dispatched invocations: dispatcher → idle worker
	free     chan *boxSlot // slots the releaser finished: releaser → dispatcher
	released chan struct{} // closed when the releaser returns
	dead     []*boxSlot    // slots overtaken by cancellation (releaser-owned)

	live     atomic.Int64 // slots owned by the engine, at most width+1
	inflight atomic.Int64 // invocations currently running
	spawned  int          // workers started (dispatcher-owned)
	wg       sync.WaitGroup
}

func newBoxEngine(b *boxNode, env *runEnv, out *streamWriter, width int) *boxEngine {
	return &boxEngine{b: b, env: env, out: out, width: width,
		consumed: NewVariant(b.boxSig.In...)}
}

// run is the dispatch loop.  A saturated engine waits for a slot before it
// takes a record, leaving further input upstream, and the loop parks its
// slots whenever the input goes quiet.
func (e *boxEngine) run(in *streamReader) {
	defer e.out.close()
	b, env := e.b, e.env
	env.stats.Add(b.keys.instances, 1)
	env.stats.SetMax(b.keys.concurrency, int64(e.width))
	var s *boxSlot
	for {
		if s == nil && e.live.Load() > int64(e.width) {
			if s = e.acquire(); s == nil {
				break
			}
		}
		if !in.ready() {
			e.quiesce(s)
			s = nil
		}
		it, ok := in.recv()
		if !ok {
			break
		}
		if s == nil {
			// The engine owns at most width slots now (only this loop adds
			// any), so this cannot block.
			s = e.acquire()
		}
		if it.mk != nil {
			s.mk = it.mk
			e.enqueue(s)
			s = nil
			continue
		}
		rec := it.rec
		env.trace(b.label, "in", rec)
		args, ok := b.bindArgs(rec, s.args)
		if !ok {
			env.error(fmt.Errorf("core: box %s: input record %s does not match signature %s",
				b.label, rec, b.boxSig))
			env.stats.Add(b.keys.rejected, 1)
			releaseRecord(rec)
			continue
		}
		s.rec, s.args = rec, args
		e.enqueue(s)
		if !e.dispatch(s) {
			// Cancelled between queueing the slot and handing it to a
			// worker; the releaser's recv is cancellation-aware, so the
			// never-filled slot cannot wedge it.
			s.rec, s = nil, nil
			releaseRecord(rec)
			break
		}
		s = nil
	}
	in.Discard()
	e.shutdown(s)
}

// acquire returns a slot for the next input: a recycled one, a new one while
// the engine owns fewer than width+1, or else the next one the releaser
// frees.  It returns nil when the run is cancelled.
func (e *boxEngine) acquire() *boxSlot {
	select {
	case s := <-e.free:
		return s
	default:
	}
	if e.live.Load() <= int64(e.width) {
		// Only the dispatcher adds slots, so the bound holds; the releaser
		// retires a slot only when the queue is empty, which leaves the
		// others in free for the wait below.
		e.live.Add(1)
		return e.newSlot()
	}
	select {
	case s := <-e.free:
		return s
	case <-e.env.ctx.Done():
		return nil
	}
}

// newSlot takes a parked slot from the pool, or builds one, and binds it to
// this engine.
func (e *boxEngine) newSlot() *boxSlot {
	s, _ := slotPool.Get().(*boxSlot)
	if s == nil || !s.emit.fits(e.env) {
		s = &boxSlot{emit: newEmitStream(e.env), args: make([]any, 0, len(e.b.boxSig.In))}
	}
	s.emit.bind(e.env, e.out)
	s.em = Emitter{env: e.env, out: &s.emit.w, box: e.b, consumed: e.consumed}
	return s
}

// retire parks an empty slot the engine no longer needs in the pool,
// dropping its references to the run.
func (e *boxEngine) retire(s *boxSlot) {
	e.live.Add(-1)
	s.emit.unbind()
	s.em = Emitter{}
	clear(s.args)
	s.args = s.args[:0]
	slotPool.Put(s)
}

// quiesce parks the dispatcher's slot, if it holds one, and every free one
// before the dispatcher blocks on a quiet input.
func (e *boxEngine) quiesce(s *boxSlot) {
	if s != nil {
		e.retire(s)
	}
	for {
		select {
		case s := <-e.free:
			e.retire(s)
		default:
			return
		}
	}
}

// enqueue appends a slot to the reorder queue, starting the engine's
// channels and releaser with the first one.  The queue holds every live
// slot, so the send never blocks.
func (e *boxEngine) enqueue(s *boxSlot) {
	if e.queue == nil {
		n := e.width + 1
		e.queue = make(chan *boxSlot, n)
		e.free = make(chan *boxSlot, n)
		e.calls = make(chan *boxSlot)
		e.released = make(chan struct{})
		go e.release()
	}
	e.queue <- s
}

// dispatch hands a queued invocation to a worker, spawning one if none is
// idle and fewer than width run.  It reports false when the run is
// cancelled first.
func (e *boxEngine) dispatch(s *boxSlot) bool {
	if e.spawned < e.width {
		select {
		case e.calls <- s: // an idle worker was already waiting
			return true
		default:
			e.spawned++
			e.wg.Add(1)
			go e.work()
		}
	}
	select {
	case e.calls <- s:
		return true
	case <-e.env.ctx.Done():
		return false
	}
}

// work runs invocations.  Everything it does to a slot happens before the
// end-of-invocation item is handed off: from then on the releaser owns it.
func (e *boxEngine) work() {
	defer e.wg.Done()
	for s := range e.calls {
		e.env.stats.SetMax(e.b.keys.inflight, e.inflight.Add(1))
		s.em.src, s.em.stopped, s.em.emitted = s.rec, false, 0
		e.b.invoke(e.env, s.args, &s.em)
		e.inflight.Add(-1)
		s.em.src = nil
		releaseRecord(s.rec) // the invocation consumed its input
		s.rec = nil
		clear(s.args)
		s.emit.end()
	}
}

// release walks the reorder queue in FIFO order, streaming each slot's
// emissions (or marker) to out.  Head-of-queue emissions stream through as
// their frames are flushed; later invocations buffer until they become the
// head.  It also settles the per-invocation counters: an invocation counts
// under "calls"/"emitted" only for what its slot actually delivered
// downstream.  Once the run is cancelled every remaining slot — including
// invocations still buffered or never dispatched — is overtaken; shutdown
// counts those under "cancelled" after their workers have returned,
// matching the sequential path's contract.
func (e *boxEngine) release() {
	defer close(e.released)
	b, env, out := e.b, e.env, e.out
	aborted := false
	for {
		s, ok := e.next()
		if !ok {
			return
		}
		if s.mk != nil {
			if !aborted && !out.send(item{mk: s.mk}) {
				aborted = true
			}
			s.mk = nil
			e.recycle(s, false) // no worker touches a marker slot
			continue
		}
		delivered := 0
		for !aborted {
			it, end, ok := s.emit.next()
			if !ok || end && ctxDone(env.ctx) {
				aborted = true
				break
			}
			if end {
				// The run is live, so the emitter never stopped.
				env.stats.Add(b.keys.calls, 1)
				break
			}
			if out.send(it) {
				delivered++
				continue
			}
			aborted = true
		}
		if delivered > 0 {
			env.stats.Add(b.keys.emitted, int64(delivered))
		}
		e.recycle(s, aborted)
	}
}

// next dequeues the next reorder slot, flushing out's pending batch before
// blocking so released emissions never wait on an idle reorder queue.
func (e *boxEngine) next() (*boxSlot, bool) {
	select {
	case s, ok := <-e.queue:
		return s, ok
	default:
	}
	e.out.flush() // cancellation is handled by the send loop
	s, ok := <-e.queue
	return s, ok
}

// recycle hands a finished slot back.  After a cancellation a worker may
// still be writing into it, so it waits for shutdown; a slot that ends a
// busy period (nothing queued behind it) is parked; otherwise the
// dispatcher reuses it.
func (e *boxEngine) recycle(s *boxSlot, aborted bool) {
	switch {
	case aborted:
		e.dead = append(e.dead, s)
	case len(e.queue) == 0:
		e.retire(s)
	default:
		e.free <- s
	}
}

// shutdown stops the workers and the releaser and settles every slot the
// engine still owns: slots overtaken by cancellation count under
// "cancelled" and are drained — their buffered emissions count under
// "stream.discarded" — and all are parked.
func (e *boxEngine) shutdown(held *boxSlot) {
	if held != nil {
		e.retire(held)
	}
	if e.queue == nil {
		return // never started
	}
	close(e.calls)
	e.wg.Wait()
	close(e.queue)
	<-e.released
	if n := len(e.dead); n > 0 {
		e.env.stats.Add(e.b.keys.cancelled, int64(n))
	}
	for _, s := range e.dead {
		s.emit.drain()
		e.retire(s)
	}
	for len(e.free) > 0 {
		e.retire(<-e.free)
	}
}
