package core

import (
	"context"
	"sync/atomic"
	"time"
)

// This file is the record plane's transport layer.  Nodes do not exchange
// items over raw channels: they communicate through a streamReader /
// streamWriter pair moving frames — batches of items — over one buffered
// channel, so a hot stream costs one channel synchronization per frame
// instead of one per record.  The batch size B (WithStreamBatch) bounds how
// many items a writer may coalesce; flushing is adaptive so latency stays
// flat when traffic is light:
//
//   - Batch-full flush: the pending batch reaches B → blocking flush.
//   - Idle flush: a node about to block on its input reader first flushes
//     the writers it owns (streamReader.autoFlush), so a record never waits
//     on traffic that is not coming.
//   - Barrier flush: a sort marker of the deterministic-merge protocol, and
//     close, flush immediately.  Markers delimit merge regions; holding one
//     back would stall every merger waiting on it, so the marker-barrier
//     rule is what keeps the determinism protocol live at any B.
//
// Because pending items are flushed in FIFO position, a marker's barrier
// flush also delivers every record buffered before it — mergers always see
// a region's data before the marker that closes it, exactly as with
// unbatched streams.
//
// Ownership rule: a streamWriter is single-goroutine — only the goroutine
// that writes a stream may send, flush or close it (sendDirect is the one
// exception: it bypasses the pending batch entirely so the network boundary
// can accept records from many client goroutines).  autoFlush registrations
// must respect this: only register writers owned by the goroutine that
// reads the stream.

// item is one element on a stream: either a data record or a control marker
// ("sort record") of the deterministic-merge protocol.  Exactly one of rec
// and mk is non-nil — except on an emitStream, where the zero item is the
// in-band end-of-invocation item.
type item struct {
	rec *Record
	mk  *marker
}

// marker is a sort record: deterministic combinators emit one after every
// routed data record, broadcast to all live branches.  Mergers use the
// per-branch arrival order of markers to reassemble the deterministic output
// order (see merge.go).  level identifies the issuing combinator instance:
// a merger drops its own markers after use and forwards foreign ones.
type marker struct {
	level  int
	ticket uint64
}

// frame is one transport unit: either a single inline item (the common case
// under light load, and always at B=1 — no per-record allocation) or a batch
// of items handed off by a writer's flush.
type frame struct {
	single item
	batch  []item // nil: the payload is single
}

// newStream creates one connected reader/writer pair with the run's frame
// buffer capacity and batch size.
func newStream(env *runEnv) (*streamReader, *streamWriter) {
	ch := make(chan frame, env.buf)
	r := &streamReader{env: env, ch: ch}
	w := &streamWriter{env: env, ch: ch, batch: env.batch}
	return r, w
}

// streamWriter is the producing end of a stream.  All methods except
// sendDirect must be called from the single goroutine that owns the writer.
type streamWriter struct {
	env     *runEnv
	ch      chan frame
	batch   int    // flush threshold B (>= 1)
	pending []item // items accumulated since the last flush
	closed  bool

	// Transport counters, kept local (no locks on the hot path) and folded
	// into the run's Stats by close: frames/records delivered and the
	// per-stream frame-size high-water mark.  directRecords is atomic —
	// sendDirect accepts concurrent boundary senders.
	frames        int64
	records       int64
	hwm           int
	directRecords int64
	directFrames  int64
}

// send appends one item to the stream, flushing per the adaptive policy.
// It reports false when the run has been cancelled.
func (w *streamWriter) send(it item) bool {
	if it.rec != nil {
		w.records++
	}
	if w.batch <= 1 && len(w.pending) == 0 {
		// Unbatched stream: ship the item inline, no allocation.
		return w.ship(frame{single: it})
	}
	if w.pending == nil {
		w.pending = acquireFrameSlab(w.batch)
	}
	w.pending = append(w.pending, it)
	if it.mk != nil || len(w.pending) >= w.batch {
		return w.flush()
	}
	return true
}

// sendRecord is send for data records.
func (w *streamWriter) sendRecord(r *Record) bool {
	return w.send(item{rec: r})
}

// flush delivers the pending batch downstream (blocking); it is a no-op
// with nothing pending and reports false when the run has been cancelled.
func (w *streamWriter) flush() bool {
	n := len(w.pending)
	if n == 0 {
		return true
	}
	var f frame
	if n == 1 {
		// Single-item batch: ship inline and reuse the buffer, so light
		// traffic over a batched stream does not allocate per record.
		f = frame{single: w.pending[0]}
		w.pending = w.pending[:0]
	} else {
		f = frame{batch: w.pending}
		w.pending = nil
	}
	return w.ship(f)
}

// ship performs the channel handoff of one frame.  The transport counters
// settle here, on delivery: a frame dropped by cancellation retracts its
// records so "stream.records" reflects only what reached the channel.
func (w *streamWriter) ship(f frame) bool {
	select {
	case w.ch <- f:
		n := len(f.batch)
		if n == 0 {
			n = 1
		}
		if n > w.hwm {
			w.hwm = n
		}
		w.frames++
		return true
	case <-w.env.ctx.Done():
		// The frame never reached the channel: retract its records from the
		// transport counters and return what the writer owned to the arena.
		w.records -= discardFrame(f)
		return false
	}
}

// sendDirect delivers one record immediately, bypassing the pending batch,
// honouring both the run context and an additional caller context.  It is
// safe for concurrent use as long as no goroutine uses the batched send on
// the same writer — the network boundary's contract (net.go).  The returned
// error is nil, ErrCancelled (run cancelled) or the caller context's error.
func (w *streamWriter) sendDirect(ctx context.Context, it item) error {
	if it.rec != nil {
		atomic.AddInt64(&w.directRecords, 1)
	}
	select {
	case w.ch <- frame{single: it}:
		atomic.AddInt64(&w.directFrames, 1)
		return nil
	case <-w.env.ctx.Done():
		return ErrCancelled
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sendBatchDirect ships a burst of records as frames of up to batch items,
// bypassing the pending buffer (so, like sendDirect, it tolerates
// concurrent callers).  It returns how many records were delivered — on
// error that is a frame-aligned prefix of recs.
func (w *streamWriter) sendBatchDirect(ctx context.Context, recs []*Record) (int, error) {
	b := w.batch
	if b < 1 {
		b = 1
	}
	sent := 0
	for sent < len(recs) {
		n := b
		if n > len(recs)-sent {
			n = len(recs) - sent
		}
		var f frame
		if n == 1 {
			f = frame{single: item{rec: recs[sent]}}
		} else {
			batch := acquireFrameSlab(n)
			for _, r := range recs[sent : sent+n] {
				batch = append(batch, item{rec: r})
			}
			f = frame{batch: batch}
		}
		select {
		case w.ch <- f:
		case <-w.env.ctx.Done():
			releaseFrameSlab(f.batch)
			return sent, ErrCancelled
		case <-ctx.Done():
			releaseFrameSlab(f.batch)
			return sent, ctx.Err()
		}
		atomic.AddInt64(&w.directRecords, int64(n))
		atomic.AddInt64(&w.directFrames, 1)
		sent += n
	}
	return sent, nil
}

// close flushes pending items, closes the channel, and folds the writer's
// transport counters into the run's Stats.  Idempotent.
func (w *streamWriter) close() {
	if w.closed {
		return
	}
	w.closed = true
	w.flush()
	if w.pending != nil && len(w.pending) == 0 {
		releaseFrameSlab(w.pending)
		w.pending = nil
	}
	close(w.ch)
	foldTransport(w.env, w.frames+atomic.LoadInt64(&w.directFrames),
		w.records+atomic.LoadInt64(&w.directRecords), w.hwm)
}

// foldTransport adds one writer's transport tallies to the run's Stats.
func foldTransport(env *runEnv, frames, records int64, hwm int) {
	if frames > 0 {
		env.stats.Add(statStreamFrames, frames)
		env.stats.Add(statStreamRecords, records)
		env.stats.SetMax(statFrameHWM, int64(hwm))
	}
}

// streamReader is the consuming end of a stream.  All methods must be
// called from the single goroutine that owns the reader — until Discard,
// which detaches ownership to a background drainer.
type streamReader struct {
	env *runEnv
	ch  chan frame
	cur []item // remainder of the current multi-item frame
	pos int

	// onIdle holds the writers this reader's goroutine owns; recv flushes
	// them before blocking, which is the adaptive policy's idle flush.
	onIdle     []*streamWriter
	discarding atomic.Bool
}

// autoFlush registers a writer to be flushed whenever recv is about to
// block.  The writer must be owned by the same goroutine that reads from r.
func (r *streamReader) autoFlush(ws ...*streamWriter) {
	r.onIdle = append(r.onIdle, ws...)
}

// recv returns the next item; ok is false when the stream is closed and
// drained or the run cancelled.
func (r *streamReader) recv() (item, bool) {
	if r.pos < len(r.cur) {
		it := r.cur[r.pos]
		r.pos++
		return it, true
	}
	r.finishFrame()
	// Fast path: a frame is already waiting.
	select {
	case f, ok := <-r.ch:
		return r.accept(f, ok)
	default:
	}
	// The input is momentarily idle: flush owned writers so downstream
	// never waits on our buffered output, then block.
	for _, w := range r.onIdle {
		if !w.flush() {
			return item{}, false
		}
	}
	select {
	case f, ok := <-r.ch:
		return r.accept(f, ok)
	case <-r.env.ctx.Done():
		return item{}, false
	}
}

// recvTimeout is recv with an idle deadline: after d of input silence it
// returns timedOut=true (and ok=false) so the caller can run periodic
// housekeeping — the split combinator's replica idle reaper — without
// owning a timer goroutine or violating the reader's single-goroutine
// ownership rule.  Like recv, it flushes owned writers before blocking.
func (r *streamReader) recvTimeout(d time.Duration) (it item, ok bool, timedOut bool) {
	if r.pos < len(r.cur) {
		it := r.cur[r.pos]
		r.pos++
		return it, true, false
	}
	r.finishFrame()
	select {
	case f, fok := <-r.ch:
		it, ok = r.accept(f, fok)
		return it, ok, false
	default:
	}
	for _, w := range r.onIdle {
		if !w.flush() {
			return item{}, false, false
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case f, fok := <-r.ch:
		it, ok = r.accept(f, fok)
		return it, ok, false
	case <-t.C:
		return item{}, false, true
	case <-r.env.ctx.Done():
		return item{}, false, false
	}
}

// finishFrame returns the consumed frame's slab to the arena.  Called only
// once the frame is exhausted; the items were handed out by value, so the
// slab holds no live state.
func (r *streamReader) finishFrame() {
	if r.cur != nil {
		releaseFrameSlab(r.cur)
		r.cur = nil
		r.pos = 0
	}
}

func (r *streamReader) accept(f frame, ok bool) (item, bool) {
	if !ok {
		return item{}, false
	}
	if f.batch == nil {
		return f.single, true
	}
	r.cur, r.pos = f.batch, 1
	return f.batch[0], true
}

// Discard detaches a background consumer for the remainder of the stream.
// Every node that stops consuming its input early — whether it hit a
// cancelled send or finished a dispatch loop — uses this one call so
// upstream senders can never stay blocked on a stream nobody reads.  The
// drainer returns on close or cancellation and counts the data records it
// threw away under "stream.discarded".  Idempotent; the reader must not be
// used after calling it.
func (r *streamReader) Discard() {
	if r.discarding.Swap(true) {
		return
	}
	go func() {
		n := r.discardCurrent()
		defer func() {
			if n > 0 {
				r.env.stats.Add("stream.discarded", n)
			}
		}()
		for {
			// Prefer frames already delivered over the cancellation signal
			// so the discard count is deterministic for everything that
			// reached the stream before the early exit.
			select {
			case f, ok := <-r.ch:
				if !ok {
					return
				}
				n += discardFrame(f)
				continue
			default:
			}
			select {
			case f, ok := <-r.ch:
				if !ok {
					return
				}
				n += discardFrame(f)
			case <-r.env.ctx.Done():
				return
			}
		}
	}()
}

// ready reports whether recv would return without blocking: an item is
// left in the current frame or a frame is waiting in the channel.
func (r *streamReader) ready() bool {
	return r.pos < len(r.cur) || len(r.ch) > 0
}

// emitStream is a recycled stream carrying the emissions of one box
// invocation at a time — a reorder slot's buffer in the concurrent box
// engine (boxengine.go).  The writer ends each invocation with an in-band
// end-of-invocation item (the zero item) instead of closing the channel, so
// the same channel, reader and writer serve invocation after invocation.
// The writer is owned by the worker running the current invocation, the
// reader by the engine's releaser; the end-of-invocation handoff passes the
// whole stream back, so neither end may be touched by its old owner after
// it.
type emitStream struct {
	r streamReader
	w streamWriter
}

func newEmitStream(env *runEnv) *emitStream {
	ch := make(chan frame, env.buf)
	return &emitStream{
		r: streamReader{env: env, ch: ch},
		w: streamWriter{env: env, ch: ch, batch: env.batch},
	}
}

// fits reports whether the stream has env's frame capacity, i.e. whether a
// parked stream may serve env's run.
func (s *emitStream) fits(env *runEnv) bool { return cap(s.r.ch) == env.buf }

// bind attaches the stream to a run; out is the writer the reader's
// goroutine owns and flushes whenever it waits for emissions.
func (s *emitStream) bind(env *runEnv, out *streamWriter) {
	s.r.env, s.w.env, s.w.batch = env, env, env.batch
	s.r.onIdle = append(s.r.onIdle[:0], out)
}

// unbind detaches an empty stream from its run before it is parked, so a
// parked stream pins neither the run nor a frame slab.
func (s *emitStream) unbind() {
	s.r.env, s.w.env = nil, nil
	clear(s.r.onIdle)
	s.r.onIdle = s.r.onIdle[:0]
	if s.w.pending != nil {
		releaseFrameSlab(s.w.pending)
		s.w.pending = nil
	}
}

// end closes the current invocation: the pending emissions and the
// end-of-invocation item go downstream in one frame.  The writer's
// transport tallies settle into the run's Stats exactly as close would
// settle them (the end item is neither a record nor a frame of its own);
// the writer is reset before the handoff, because the reader may recycle
// the stream the moment the item lands.  Under cancellation the
// undelivered emissions are released.
func (s *emitStream) end() {
	w := &s.w
	env := w.env
	frames, records, hwm := w.frames, w.records, w.hwm
	w.frames, w.records, w.hwm = 0, 0, 0
	var f frame // the zero frame carries the end item inline
	if len(w.pending) > 0 {
		f.batch = append(w.pending, item{})
		w.pending = nil
	}
	select {
	case w.ch <- f:
		if n := len(f.batch) - 1; n > 0 {
			frames++
			hwm = max(hwm, n)
		}
	case <-env.ctx.Done():
		records -= discardFrame(f)
	}
	foldTransport(env, frames, records, hwm)
}

// next returns the current invocation's next emission; end reports the
// end-of-invocation item, after which the stream is ready for the next
// invocation.  ok is false when the run has been cancelled.
func (s *emitStream) next() (it item, end, ok bool) {
	it, ok = s.r.recv()
	if ok && it.rec == nil && it.mk == nil {
		// The end item is always the last of its frame.
		s.r.finishFrame()
		return it, true, true
	}
	return it, false, ok
}

// drain empties the stream once no writer is active on it — the engine's
// exit after a cancellation — releasing the buffered emissions and counting
// them under "stream.discarded", as Discard would.
func (s *emitStream) drain() {
	n := s.r.discardCurrent()
	for len(s.r.ch) > 0 {
		n += discardFrame(<-s.r.ch)
	}
	if n > 0 {
		s.r.env.stats.Add("stream.discarded", n)
	}
}

// discardCurrent releases the data records left in the current frame and
// returns how many there were.
func (r *streamReader) discardCurrent() int64 {
	var n int64
	for ; r.pos < len(r.cur); r.pos++ {
		if rec := r.cur[r.pos].rec; rec != nil {
			n++
			releaseRecord(rec)
		}
	}
	r.finishFrame()
	return n
}

// discardFrame releases the data records of one undelivered frame (and its
// slab) and returns how many there were.
func discardFrame(f frame) int64 {
	if f.batch == nil {
		if f.single.rec != nil {
			releaseRecord(f.single.rec)
			return 1
		}
		return 0
	}
	var n int64
	for _, it := range f.batch {
		if it.rec != nil {
			n++
			releaseRecord(it.rec)
		}
	}
	releaseFrameSlab(f.batch)
	return n
}

// ctxDone reports whether the run has been cancelled.
func ctxDone(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
