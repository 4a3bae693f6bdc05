// Package replay implements a capture-once, fan-out simulation engine.
//
// Every uncached arm of a sweep used to re-execute the full instrumented
// workload just to regenerate the identical (PC, taken) stream; for the
// paper's grid the workload cost is pure replication. This package records
// a workload's branch stream once — into compact, self-contained encoded
// chunks (delta-encoded PCs plus outcome bits, see trace/chunk.go) — and
// feeds any number of predictor arms from that buffer. Chunks are published
// as they are sealed, so arms replay concurrently *with* the capture, not
// after it; a bounded worker pool caps how many replays decode at once.
//
// Memory is bounded: once the engine's budget of in-memory encoded bytes is
// exhausted, further chunks spill to a temp file written through
// trace.FileWriter, and replay cursors read them back with ReadAt at the
// payload offsets it reports. Because every chunk is self-contained, a
// spill file (or a full export via Trace.WriteTo) is itself a valid trace
// file for trace.NewReader — byte for byte what trace.Writer records from
// the same stream, since both seal chunks at trace.ChunkTarget.
//
// Durability is policy, not best-effort: every sealed chunk carries its
// capture-time CRC32C, verified (by default) on every replay. A chunk that
// fails verification — or fails structurally during decode — is never
// partially trusted: the engine quarantines the evidence, drops the trace,
// and the waiting arms transparently recapture the stream from the
// workload, exactly as they do when a capturer panics. A spill write that
// fails (ENOSPC, I/O error) downgrades the capture to in-memory chunks:
// correctness over the memory budget, with the downgrade counted and
// logged.
//
// The resilience semantics of the experiment pipeline are preserved: every
// capture and replay runs under the caller's context, a panicking arm fails
// alone (a panic during capture fails the trace, waiting arms rebuild their
// recorders and recapture), and cancellation drains cleanly.
package replay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"branchsim/internal/fsx"
	"branchsim/internal/trace"
)

// ErrCaptureFailed reports that the goroutine recording a shared trace
// failed before sealing it. Replayers receiving it (wrapped around the
// capture's own error) rebuild their recorder and recapture; Engine.Run
// does this automatically.
var ErrCaptureFailed = errors.New("replay: capture failed")

// chunk is one sealed span of the encoded stream.
type chunk struct {
	data []byte // encoded records; nil once spilled
	off  int64  // offset of the records in the spill file, when spilled
	size int
	crc  uint32   // capture-time CRC32C of the encoded records
	dec  *decoded // decoded-block cache; nil when spilled or over budget
}

// decoded is one chunk's event stream in decoded block form: parallel
// arrays ready for a BlockSink, populated by the capture as it encodes.
// Replay cursors whose recorder consumes blocks feed straight from it,
// skipping the per-replay chunk decode; the arrays are shared and read-only.
// The encoded chunk stays the source of truth — spilled chunks (the engine
// is under memory pressure) and streams past the cache budget carry no
// decoded form and replay through the decoder as usual.
type decoded struct {
	pcs    []uint64
	taken  []bool
	ops    []uint64 // ops[i] straight-line instructions precede branch i
	opsSum uint64   // sum(ops), accumulated as the capture appends
	tail   uint64   // trailing straight-line run after the last branch
}

// bytes is the cache accounting size of the decoded form.
func (d *decoded) bytes() int64 {
	return int64(len(d.pcs))*17 + 8
}

// feed replays the decoded chunk into a block sink. Sinks that accept a
// presummed block (sim.Runner) get the capture-time instruction total and
// skip their own pass over the ops array.
func (d *decoded) feed(sink trace.BlockSink) {
	if len(d.pcs) > 0 {
		if ss, ok := sink.(trace.SummedBlockSink); ok {
			ss.RunBlockSummed(d.pcs, d.taken, d.ops, d.opsSum)
		} else {
			sink.RunBlock(d.pcs, d.taken, d.ops)
		}
	}
	if d.tail > 0 {
		sink.Ops(d.tail)
	}
}

// decodedCacheBudget bounds the decoded-block bytes cached per engine.
// Decoded form is ~7x the encoded size, so the cache is the first thing to
// give up under pressure: streams past the budget replay through the chunk
// decoder exactly as spilled ones do.
const decodedCacheBudget = 256 << 20

// Trace is one captured branch stream: a sequence of self-contained encoded
// chunks plus the stream totals. Chunks appear while the capture is still
// running, so replays overlap it.
type Trace struct {
	e   *Engine
	key string

	// capture-side state, touched only by the capturing goroutine
	spill       fsx.File
	spillW      *trace.FileWriter
	spillBroken bool

	mu          sync.Mutex
	notify      chan struct{} // closed and replaced on every state change
	chunks      []chunk
	done        bool
	err         error        // capture failure, wrapped in ErrCaptureFailed
	counts      trace.Counts // stream totals, valid once done with nil err
	memBytes    int64        // in-memory chunk bytes, counted against e.mem
	decBytes    int64        // decoded-cache bytes, counted against e.decMem
	readers     int
	dropped     bool
	capturing   bool // the capture goroutine may still write the spill file
	quarantined bool // a corrupt chunk was found; preserve the spill file
}

func newTrace(e *Engine) *Trace {
	return &Trace{e: e, notify: make(chan struct{})}
}

// broadcastLocked wakes every goroutine waiting for a state change.
func (t *Trace) broadcastLocked() {
	close(t.notify)
	t.notify = make(chan struct{})
}

// captureRec is the Recorder the capture drives: it counts the stream and
// encodes it into sealed chunks. On the batch self-feed path (captureBatch)
// it additionally accumulates each chunk's decoded form, hands it to the
// capturing arm's kernel as the chunk seals, and offers it to the decoded
// cache for the replaying arms.
type captureRec struct {
	trace.Counts
	t *Trace
	w trace.ChunkWriter

	sink    trace.BlockSink // the capturing arm's kernel; nil on the tee path
	dec     decoded         // decoded form of the chunk being collected
	pending uint64          // straight-line run awaiting its branch
}

// Branch implements trace.Recorder.
func (c *captureRec) Branch(pc uint64, taken bool) {
	c.Counts.Branch(pc, taken)
	c.w.Branch(pc, taken)
	if c.sink != nil {
		c.dec.pcs = append(c.dec.pcs, pc)
		c.dec.taken = append(c.dec.taken, taken)
		c.dec.ops = append(c.dec.ops, c.pending)
		c.dec.opsSum += c.pending
		c.pending = 0
	}
	if c.w.Len() >= trace.ChunkTarget {
		c.cut()
	}
}

// Ops implements trace.Recorder.
func (c *captureRec) Ops(n uint64) {
	c.Counts.Ops(n)
	c.w.Ops(n)
	if c.sink != nil {
		c.pending += n
	}
}

// RunBlock implements trace.BlockSink: the bulk form of Branch/Ops used when
// the workload records through a trace.Batcher. The encoded bytes, the
// counts, the chunk cut points and the decoded cache contents are identical
// to per-event delivery — the decoded arrays are split at exactly the events
// where the encoder crosses the chunk threshold — only the per-event call
// overhead goes away.
func (c *captureRec) RunBlock(pcs []uint64, taken []bool, ops []uint64) {
	taken = taken[:len(pcs)]
	ops = ops[:len(pcs)]
	var ins, tk uint64
	for i, o := range ops {
		ins += o
		if taken[i] {
			tk++
		}
	}
	c.Counts.Instructions += ins + uint64(len(pcs))
	c.Counts.Branches += uint64(len(pcs))
	c.Counts.TakenCount += tk
	start := 0
	for i, pc := range pcs {
		if o := ops[i]; o != 0 {
			c.w.Ops(o)
		}
		c.w.Branch(pc, taken[i])
		if c.w.Len() >= trace.ChunkTarget {
			c.bulkDecoded(pcs[start:i+1], taken[start:i+1], ops[start:i+1])
			start = i + 1
			c.cut()
		}
	}
	c.bulkDecoded(pcs[start:], taken[start:], ops[start:])
}

// bulkDecoded appends one cut-aligned run of events to the chunk's decoded
// form, folding any straight-line run delivered before it (c.pending) into
// the first event's charge — exactly the arrays per-event Branch would have
// built.
func (c *captureRec) bulkDecoded(pcs []uint64, taken []bool, ops []uint64) {
	if c.sink == nil || len(pcs) == 0 {
		return
	}
	c.dec.pcs = append(c.dec.pcs, pcs...)
	c.dec.taken = append(c.dec.taken, taken...)
	n := len(c.dec.ops)
	c.dec.ops = append(c.dec.ops, ops...)
	c.dec.ops[n] += c.pending
	var sum uint64
	for _, o := range ops {
		sum += o
	}
	c.dec.opsSum += sum + c.pending
	c.pending = 0
}

// takeDecoded detaches the accumulated decoded form — nil on the tee path —
// stamping the trailing straight-line run the encoder flushes on Cut. The
// returned arrays are never touched again by the capture, so they are safe
// to share with concurrent replay cursors.
func (c *captureRec) takeDecoded() *decoded {
	if c.sink == nil {
		return nil
	}
	d := c.dec
	d.tail = c.pending
	c.pending = 0
	c.dec = decoded{}
	// Pre-size the next chunk's arrays from this one: chunks seal at a fixed
	// encoded size, so consecutive event counts track closely and the appends
	// above stop paying growth copies after the first chunk.
	if n := len(d.pcs); n > 0 {
		n += n / 8
		c.dec.pcs = make([]uint64, 0, n)
		c.dec.taken = make([]bool, 0, n)
		c.dec.ops = make([]uint64, 0, n)
	}
	return &d
}

// cut seals the chunk collected so far; on the batch self-feed path the
// decoded form goes to the cache and then straight to the capturing arm's
// kernel.
func (c *captureRec) cut() {
	data := c.w.Cut()
	d := c.takeDecoded()
	c.t.seal(data, d)
	if d != nil {
		d.feed(c.sink)
	}
}

// seal publishes one finished chunk, spilling it to disk when the engine's
// in-memory budget is exhausted. A failed spill write degrades to keeping
// the chunk in memory — correctness over the budget — and is counted and
// logged once per capture. d, when non-nil, is the chunk's decoded form; it
// is cached for replay cursors while the chunk stays in memory and the
// engine's decoded budget lasts.
func (t *Trace) seal(data []byte, d *decoded) {
	if len(data) == 0 {
		return
	}
	ck := chunk{size: len(data), crc: trace.Checksum(data)}
	spilled := false
	if t.e.wantSpill(int64(len(data))) && !t.spillBroken {
		if off, err := t.writeSpill(data, ck.crc); err != nil {
			t.spillBroken = true
			t.e.obsSpillErrors.Add(1)
			t.e.logef("replay: spill write failed (%v); capture continues in memory over budget", err)
		} else {
			ck.off = off
			spilled = true
		}
	}
	if !spilled {
		ck.data = data
	}
	t.e.obsChunksCaptured.Add(1)
	if spilled {
		t.e.obsChunksSpilled.Add(1)
	}
	t.mu.Lock()
	if ck.data != nil && !t.dropped {
		t.memBytes += int64(len(ck.data))
		t.e.mem.Add(int64(len(ck.data)))
		t.e.obsMem.Set(t.e.mem.Load())
	}
	if d != nil && !spilled && !t.dropped && t.e.decMem.Load()+d.bytes() <= decodedCacheBudget {
		ck.dec = d
		t.decBytes += d.bytes()
		t.e.decMem.Add(d.bytes())
	}
	t.chunks = append(t.chunks, ck)
	t.broadcastLocked()
	t.mu.Unlock()
}

// writeSpill appends one framed chunk to the spill file, creating it on
// first use, and returns the offset of the chunk's payload — the file is a
// valid, verifiable trace file end to end, while ReadAt cursors address the
// bare payload.
func (t *Trace) writeSpill(data []byte, crc uint32) (int64, error) {
	fs := t.e.fs
	if t.spill == nil {
		if err := fs.MkdirAll(t.e.spillDir, 0o755); err != nil {
			return 0, err
		}
		f, err := fs.CreateTemp(t.e.spillDir, "bpreplay-*.btrc")
		if err != nil {
			return 0, err
		}
		w, err := trace.NewFileWriter(f)
		if err != nil {
			f.Close()
			fs.Remove(f.Name())
			return 0, err
		}
		t.spill, t.spillW = f, w
	}
	return t.spillW.WriteChunk(data, crc)
}

// finish seals the final chunk and marks the capture complete. On the batch
// self-feed path the final chunk reaches the capturing arm's kernel only
// after the trace is published complete, so a kernel panic there (e.g.
// cooperative cancellation) fails that arm alone, not the shared capture.
func (t *Trace) finish(cr *captureRec) {
	data := cr.w.Cut()
	d := cr.takeDecoded()
	t.seal(data, d)
	t.mu.Lock()
	t.counts = cr.Counts
	t.done = true
	t.captureEndedLocked()
	t.broadcastLocked()
	t.mu.Unlock()
	if d != nil {
		d.feed(cr.sink)
	}
}

// fail marks the capture failed, wakes every waiter with the wrapped cause,
// and unregisters the trace so the next caller recaptures.
func (t *Trace) fail(cause error) {
	t.mu.Lock()
	t.done = true
	if t.err == nil {
		t.err = fmt.Errorf("%w: %w", ErrCaptureFailed, cause)
	}
	t.captureEndedLocked()
	t.broadcastLocked()
	t.mu.Unlock()
	t.e.drop(t)
}

// captureEndedLocked marks the spill file safe to close and performs any
// close that was deferred because the capture goroutine could still be
// writing (a reader quarantining a corrupt chunk mid-capture).
func (t *Trace) captureEndedLocked() {
	t.capturing = false
	if t.dropped && t.readers == 0 {
		t.closeSpillLocked()
	}
}

// failCorrupt is the reader-side counterpart of fail: a replay found a
// chunk whose bytes no longer match their capture-time checksum (or no
// longer decode). The trace is failed with the corruption wrapped in
// ErrCaptureFailed, so every arm — including the finder — rebuilds its
// recorder and recaptures via the same path that recovers a dead capturer;
// the spill file is preserved for quarantine instead of deleted.
func (t *Trace) failCorrupt(cause error) error {
	err := fmt.Errorf("%w: %w", ErrCaptureFailed, cause)
	t.mu.Lock()
	t.quarantined = true
	if t.err == nil {
		t.err = err
	}
	t.broadcastLocked()
	t.mu.Unlock()
	t.e.drop(t)
	return err
}

// quarantine records one corrupt chunk: counts it, preserves its bytes as
// a standalone framed trace file in the engine's quarantine directory (when
// one is configured), and logs the event. data holds the corrupt bytes as
// read; crc is the capture-time checksum they failed.
func (t *Trace) quarantine(i int, data []byte, crc uint32, cause error) {
	e := t.e
	e.obsChunksQuarantined.Add(1)
	e.logef("replay: chunk %d of %q corrupt (%v); quarantining and recapturing", i, t.key, cause)
	if e.quarDir == "" {
		return
	}
	if err := e.fs.MkdirAll(e.quarDir, 0o755); err != nil {
		e.logef("replay: quarantine dir: %v", err)
		return
	}
	// The evidence file is a valid trace file carrying the capture-time
	// checksum over the corrupt bytes, so reading it back reproduces
	// exactly the verification failure seen here.
	var body bytes.Buffer
	w, _ := trace.NewFileWriter(&body) // a bytes.Buffer write cannot fail
	w.WriteChunk(data, crc)
	name := filepath.Join(e.quarDir, fmt.Sprintf("chunk-%06d.btrc", e.quarSeq.Add(1)))
	if err := e.fs.WriteFile(name, body.Bytes(), 0o644); err != nil {
		e.logef("replay: writing quarantined chunk: %v", err)
	}
}

// capture runs produce once, teeing its stream into sealed chunks and —
// when rec is non-nil — into the capturing arm's own recorder, so the
// capturer simulates while it records. On any failure, including a panic
// unwinding through produce, the trace is failed first so no waiter hangs.
func (t *Trace) capture(produce func(trace.Recorder) error, rec trace.Recorder) (trace.Counts, error) {
	cr := &captureRec{t: t}
	var target trace.Recorder = cr
	if rec != nil {
		target = trace.Tee(cr, rec)
	}
	return t.runCapture(produce, cr, target)
}

// captureBatch is capture for an arm with a devirtualized batch kernel:
// instead of a per-event tee into the arm's recorder, the capture
// accumulates each chunk's decoded form alongside its encoding and feeds it
// to the arm's kernel as the chunk seals. The instrumented execution records
// through a trace.Batcher into the bulk capture path, the simulation runs
// block-wise, and the decoded chunks are cached so replaying arms skip the
// decode too.
func (t *Trace) captureBatch(produce func(trace.Recorder) error, sink trace.BlockSink) (trace.Counts, error) {
	cr := &captureRec{t: t, sink: sink}
	b := trace.NewBatcher(cr, 0)
	run := func(target trace.Recorder) error {
		if err := produce(target); err != nil {
			return err
		}
		b.Flush()
		return nil
	}
	return t.runCapture(run, cr, b)
}

// runCapture drives one capture attempt through target, failing the trace
// on any error or panic so no waiter hangs.
func (t *Trace) runCapture(produce func(trace.Recorder) error, cr *captureRec, target trace.Recorder) (c trace.Counts, err error) {
	t.mu.Lock()
	t.capturing = true
	t.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			t.fail(fmt.Errorf("capture panicked: %v", r))
			panic(r)
		}
		if err != nil {
			t.fail(err)
			return
		}
		t.finish(cr)
	}()
	err = produce(target)
	return cr.Counts, err
}

// retain registers a replay cursor; the spill file stays alive until every
// cursor released.
func (t *Trace) retain() {
	t.mu.Lock()
	t.readers++
	t.mu.Unlock()
}

func (t *Trace) release() {
	t.mu.Lock()
	t.readers--
	if t.dropped && t.readers == 0 {
		t.closeSpillLocked()
	}
	t.mu.Unlock()
}

// markDropped detaches the trace from the engine's accounting and removes
// its spill file once the last cursor is done.
func (t *Trace) markDropped() {
	t.mu.Lock()
	if !t.dropped {
		t.dropped = true
		t.e.mem.Add(-t.memBytes)
		t.e.obsMem.Set(t.e.mem.Load())
		t.memBytes = 0
		t.e.decMem.Add(-t.decBytes)
		t.decBytes = 0
	}
	if t.readers == 0 {
		t.closeSpillLocked()
	}
	t.mu.Unlock()
}

// closeSpillLocked releases the spill file: normally deleted, but renamed
// into the quarantine directory when a corrupt chunk was found in it. While
// the capture goroutine may still be appending (capturing), the close is
// deferred to captureEndedLocked.
func (t *Trace) closeSpillLocked() {
	if t.spill == nil || t.capturing {
		return
	}
	fs := t.e.fs
	name := t.spill.Name()
	t.spill.Close()
	t.spill = nil
	if t.quarantined && t.e.quarDir != "" {
		if err := fs.MkdirAll(t.e.quarDir, 0o755); err == nil {
			dst := filepath.Join(t.e.quarDir, filepath.Base(name))
			if err := fs.Rename(name, dst); err == nil {
				t.e.logef("replay: spill file quarantined as %s", dst)
				return
			}
		}
	}
	fs.Remove(name)
}

// chunkAt returns chunk i's encoded bytes, capture-time checksum and cached
// decoded form (nil when uncached), waiting until the capture seals it.
// Spilled chunks are read into *buf, which is reused across calls. The
// second-to-last result is true when the stream ended before chunk i.
func (t *Trace) chunkAt(done <-chan struct{}, i int, buf *[]byte) ([]byte, uint32, *decoded, bool, error) {
	for {
		t.mu.Lock()
		if t.err != nil {
			err := t.err
			t.mu.Unlock()
			return nil, 0, nil, true, err
		}
		if i < len(t.chunks) {
			ck := t.chunks[i]
			t.mu.Unlock()
			if ck.data != nil {
				return ck.data, ck.crc, ck.dec, false, nil
			}
			if cap(*buf) < ck.size {
				*buf = make([]byte, ck.size)
			}
			b := (*buf)[:ck.size]
			if _, err := t.spill.ReadAt(b, ck.off); err != nil {
				return nil, 0, nil, false, fmt.Errorf("replay: reading spilled chunk: %w", err)
			}
			return b, ck.crc, nil, false, nil
		}
		if t.done {
			t.mu.Unlock()
			return nil, 0, nil, true, nil
		}
		ch := t.notify
		t.mu.Unlock()
		select {
		case <-ch:
		case <-done:
			return nil, 0, nil, false, errCancelled
		}
	}
}

// errCancelled is an internal marker: chunkAt observed the caller's context
// expire. Replay converts it to the context's error.
var errCancelled = errors.New("replay: cancelled")

// Counts returns the captured stream's totals; valid once the capture
// finished successfully.
func (t *Trace) Counts() trace.Counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// Replay feeds the captured stream into rec, chunk by chunk, waiting for
// the capture to seal chunks it has not reached yet. It holds one of the
// engine's worker slots for its whole duration. A Stop panic raised by rec
// (cooperative cancellation, e.g. a sim.Runner built WithContext) is
// recovered and returned as its error; other panics propagate to the
// caller's guard.
func (t *Trace) Replay(ctx context.Context, rec trace.Recorder) (c trace.Counts, err error) {
	if err := t.e.acquireSlot(ctx); err != nil {
		return trace.Counts{}, err
	}
	defer t.e.releaseSlot()
	t.retain()
	defer t.release()
	defer func() {
		if r := recover(); r != nil {
			if stopErr, ok := trace.AsStop(r); ok {
				err = stopErr
				return
			}
			panic(r)
		}
	}()
	// Feed block-capable recorders through the batch decoder: same events,
	// same order, no per-event dispatch. The engine's batch switch is the
	// -no-batch escape hatch back to the scalar per-event decode.
	sink, blocks := rec.(trace.BlockSink)
	blocks = blocks && t.e.batch
	var bbuf trace.BlockBuf
	var buf []byte
	for i := 0; ; i++ {
		data, crc, dec, ended, err := t.chunkAt(ctx.Done(), i, &buf)
		if err != nil {
			if errors.Is(err, errCancelled) {
				err = ctx.Err()
			}
			return trace.Counts{}, err
		}
		if ended {
			// The capture finished cleanly, so the stream this replay fed
			// is the full one and the shared totals are its totals.
			return t.Counts(), nil
		}
		if blocks && dec != nil {
			// Decoded-cache hit: the capture already decoded this chunk,
			// and the cache exists only for chunks that never left memory —
			// their bytes were checksummed at capture and not re-read from
			// disk, so there is nothing new for verification to catch.
			dec.feed(sink)
			t.e.obsChunksReplayed.Add(1)
			if err := ctx.Err(); err != nil {
				return trace.Counts{}, err
			}
			continue
		}
		if t.e.verify {
			if verr := trace.Verify(data, crc); verr != nil {
				t.quarantine(i, data, crc, verr)
				return trace.Counts{}, t.failCorrupt(verr)
			}
		}
		decode := func(data []byte) error {
			if blocks {
				return trace.DecodeChunkBlocks(data, sink, &bbuf)
			}
			return trace.DecodeChunk(data, rec)
		}
		d0 := time.Now()
		if err := decode(data); err != nil {
			if errors.Is(err, trace.ErrCorrupt) {
				// The checksum passed (or was skipped) but the records no
				// longer parse: same corruption policy, same recovery.
				t.quarantine(i, data, crc, err)
				return trace.Counts{}, t.failCorrupt(err)
			}
			return trace.Counts{}, err
		}
		t.e.obsChunkDecode.Observe(time.Since(d0))
		t.e.obsChunksReplayed.Add(1)
		// Chunks are a few tens of thousands of events, the same order as
		// the simulator's own cancellation cadence — checking here keeps a
		// recorder without its own context responsive to the caller's.
		if err := ctx.Err(); err != nil {
			return trace.Counts{}, err
		}
	}
}

// WriteTo exports the captured stream as a trace file readable by
// trace.NewReader, waiting for the capture to finish if it is still
// running. Chunks are verified before export when the engine verifies, so a
// corrupt spill surfaces here as an error, never as a silently poisoned
// file. It implements io.WriterTo.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	t.retain()
	defer t.release()
	fw, err := trace.NewFileWriter(w)
	if err != nil {
		return 0, err
	}
	var buf []byte
	for i := 0; ; i++ {
		data, crc, _, ended, err := t.chunkAt(nil, i, &buf)
		if err != nil || ended {
			return fw.Size(), err
		}
		if t.e.verify {
			if verr := trace.Verify(data, crc); verr != nil {
				return fw.Size(), verr
			}
		}
		if _, err := fw.WriteChunk(data, crc); err != nil {
			return fw.Size(), err
		}
	}
}
