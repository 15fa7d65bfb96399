package core

import (
	"sync"
	"time"

	"nvmcache/internal/trace"
)

// This file is the asynchronous batched flush pipeline: the seam that turns
// "FlushLine runs on the mutator" into "FlushLine enqueues; a background
// worker persists in batches". The paper's premise is that eviction
// write-backs overlap with computation while only FASE-end drains stall the
// mutator; FlushPipeline realizes that overlap in wall-clock time instead of
// only in the hwsim cycle model.

// BatchSink is the batched extension of FlushSink: FlushBatch persists a
// group of lines in one call, letting the sink amortize per-call costs
// (pmem takes each stripe lock once per batch; hwsim retires the batch in
// one scheduling pass). Counting semantics match len(lines) FlushLine calls.
type BatchSink interface {
	FlushSink
	FlushBatch(lines []trace.LineAddr)
}

// CaptureSink is the capture extension of FlushSink, required for a sink to
// be drained from a goroutine other than the mutator. CaptureLine snapshots
// a line's current volatile contents into dst (len ≥ trace.LineSize) on the
// mutator; ApplyBatch and DrainCaptured later persist those snapshots from
// any goroutine without reading the volatile plane. data holds len(lines)
// consecutive trace.LineSize-byte images. DrainCaptured additionally counts
// the FASE-end barrier (like Drain, a barrier only when lines is empty).
type CaptureSink interface {
	FlushSink
	CaptureLine(line trace.LineAddr, dst []byte)
	ApplyBatch(lines []trace.LineAddr, data []byte)
	DrainCaptured(lines []trace.LineAddr, data []byte)
}

// Epoch identifies one published drain point of a FlushPipeline. Epoch e is
// persisted once every flush enqueued before its publication has reached
// the inner sink and the inner sink's drain barrier has completed.
type Epoch uint64

// PipelineConfig configures a FlushPipeline. Whether a pipeline exists at
// all is the caller's choice (atlas.Options.Pipeline is a pointer whose nil
// keeps the plain synchronous sink); the zero value is a valid
// configuration with every field defaulted.
type PipelineConfig struct {
	// Depth is the ring capacity in pending line flushes. A full ring
	// applies backpressure: the mutator blocks until the worker frees a
	// slot (the paper's bounded-stall property, made explicit). Default 256.
	Depth int
	// BatchSize caps how many async lines the worker hands to the inner
	// sink per FlushBatch/ApplyBatch call. Default 64.
	BatchSize int
	// Synchronous runs the pipeline without a background worker: entries
	// are processed inline on the mutator with identical batching. The
	// fault-injection explorer uses this mode so site numbering stays
	// deterministic; it is also the degenerate mode for single-goroutine
	// equivalence tests.
	Synchronous bool
	// OnEnqueue, if set, runs on the mutator for every line handed to the
	// pipeline (async and drain entries alike) before it is enqueued. The
	// fault injector numbers pipeline hand-off sites here. The hook runs
	// outside the pipeline lock and may panic (injected crashes).
	OnEnqueue func(line trace.LineAddr)
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Depth <= 0 {
		c.Depth = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.BatchSize > c.Depth {
		c.BatchSize = c.Depth
	}
	return c
}

// pipeline entry kinds.
const (
	peAsync = iota // a mid-FASE flush (eviction / eager store)
	peDrain        // a FASE-end drain line
	peEpoch        // epoch marker: everything before it must persist
)

type pipeEntry struct {
	line trace.LineAddr
	kind uint8
	data [trace.LineSize]byte // volatile snapshot (capture sinks only)
}

// pipeBatchBuckets is the number of power-of-two batch-size histogram
// buckets: bucket i counts batches of 2^i .. 2^(i+1)-1 lines.
const pipeBatchBuckets = 8

// FlushPipeline is a bounded ring of pending line flushes drained by a
// background worker, with monotonically increasing epochs. It implements
// FlushSink so it slots between a policy and any inner sink:
//
//	policy → FlushPipeline → pmem.Sink / hwsim.Sink / CountingSink
//
// FlushLine enqueues (blocking only on a full ring); Drain publishes an
// epoch and awaits its persistence. When the inner sink implements
// CaptureSink the line's volatile contents are snapshotted at enqueue time
// on the mutator, so the worker never races mutator stores; otherwise the
// worker forwards addresses only, which is safe only for sinks that never
// read the data (counting/device sinks) or in Synchronous mode.
//
// One pipeline serves one mutator goroutine (the single-writer-per-line
// discipline of the runtime); Stats and Await may be called from others.
type FlushPipeline struct {
	inner FlushSink
	capt  CaptureSink // non-nil iff inner captures
	batch BatchSink   // non-nil iff inner batches (and capt is nil)
	cfg   PipelineConfig

	mu        sync.Mutex
	notFull   sync.Cond
	notEmpty  sync.Cond
	epochCond sync.Cond
	ring      []pipeEntry
	effDepth  int // backpressure bound ≤ len(ring); see SetDepth
	head      int // index of oldest entry
	count     int
	published uint64
	persisted uint64
	closed    bool
	aborted   bool

	// deferMode redirects the next Drain into publish-without-await; only
	// the owning mutator touches these (see DeferNextDrain).
	deferMode  bool
	deferEpoch Epoch
	deferSet   bool

	// instrumentation, guarded by mu.
	pstats    pipeStats
	batchHist [pipeBatchBuckets]int64

	// worker scratch, reused across batches (worker-only).
	batchLines []trace.LineAddr
	batchData  []byte
	drainLines []trace.LineAddr
	drainData  []byte

	workerDone chan struct{}
}

type pipeStats struct {
	batches    int64
	batchLines int64
	batchMax   int64
	epochs     int64
	depthMax   int64
	stalls     int64
	stallNanos int64
	awaitNanos int64
}

// NewFlushPipeline wraps inner in a pipeline. Unless cfg.Synchronous, a
// background worker goroutine starts immediately; Close (or Abort) stops it.
func NewFlushPipeline(inner FlushSink, cfg PipelineConfig) *FlushPipeline {
	cfg = cfg.withDefaults()
	p := &FlushPipeline{
		inner:    inner,
		cfg:      cfg,
		ring:     make([]pipeEntry, cfg.Depth),
		effDepth: cfg.Depth,
	}
	if cs, ok := inner.(CaptureSink); ok {
		p.capt = cs
	} else if bs, ok := inner.(BatchSink); ok {
		p.batch = bs
	}
	p.notFull.L = &p.mu
	p.notEmpty.L = &p.mu
	p.epochCond.L = &p.mu
	p.batchLines = make([]trace.LineAddr, 0, cfg.BatchSize)
	if p.capt != nil {
		p.batchData = make([]byte, 0, cfg.BatchSize*trace.LineSize)
	}
	if !cfg.Synchronous {
		p.workerDone = make(chan struct{})
		go p.worker()
	}
	return p
}

// FlushLine implements FlushSink: enqueue an async write-back. Blocks only
// when the ring is full (backpressure).
func (p *FlushPipeline) FlushLine(line trace.LineAddr) {
	if p.cfg.OnEnqueue != nil {
		p.cfg.OnEnqueue(line)
	}
	p.mu.Lock()
	p.enqueueLocked(line, peAsync)
	p.mu.Unlock()
}

// Drain implements FlushSink: publish an epoch covering lines and every
// previously enqueued flush, then await its persistence. Under
// DeferNextDrain the await is skipped and the epoch recorded instead.
func (p *FlushPipeline) Drain(lines []trace.LineAddr) {
	e := p.Publish(lines)
	if p.deferMode {
		p.deferEpoch, p.deferSet = e, true
		return
	}
	p.Await(e)
}

// Publish enqueues lines as drain entries followed by an epoch marker and
// returns the new epoch without waiting. The marker orders after every
// entry enqueued so far: awaiting the epoch guarantees all of them reached
// the inner sink and its drain barrier completed.
func (p *FlushPipeline) Publish(lines []trace.LineAddr) Epoch {
	if p.cfg.OnEnqueue != nil {
		for _, l := range lines {
			p.cfg.OnEnqueue(l)
		}
	}
	p.mu.Lock()
	for _, l := range lines {
		p.enqueueLocked(l, peDrain)
	}
	p.published++
	e := Epoch(p.published)
	p.enqueueLocked(0, peEpoch)
	p.pstats.epochs++
	if p.cfg.Synchronous {
		p.processAllLocked()
	}
	p.mu.Unlock()
	return e
}

// Await blocks until epoch e is persisted (or the pipeline is aborted).
func (p *FlushPipeline) Await(e Epoch) {
	p.mu.Lock()
	if p.persisted < uint64(e) && !p.aborted {
		start := time.Now()
		for p.persisted < uint64(e) && !p.aborted {
			p.epochCond.Wait()
		}
		p.pstats.awaitNanos += time.Since(start).Nanoseconds()
	}
	p.mu.Unlock()
}

// Persisted returns the newest persisted epoch.
func (p *FlushPipeline) Persisted() Epoch {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Epoch(p.persisted)
}

// Aborted reports whether the pipeline was torn down by Abort (the crash
// path): pending epochs will never persist and enqueues are dropped.
func (p *FlushPipeline) Aborted() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.aborted
}

// DeferNextDrain arms defer mode: the next Drain publishes its epoch but
// does not await it. TakeDeferred disarms and returns that epoch. The pair
// lets a caller (atlas FASEPublish) route a policy's FASE-end Drain into an
// overlap-friendly publish without changing the policy interface. Owner
// goroutine only.
func (p *FlushPipeline) DeferNextDrain() {
	p.deferMode = true
	p.deferSet = false
}

// TakeDeferred disarms defer mode. If no Drain happened while armed (a
// policy with nothing to drain), it publishes a bare epoch so the caller
// still gets a persistence point covering all earlier flushes.
func (p *FlushPipeline) TakeDeferred() Epoch {
	p.deferMode = false
	if p.deferSet {
		p.deferSet = false
		return p.deferEpoch
	}
	return p.Publish(nil)
}

// Stats implements FlushSink: the inner sink's counts plus pipeline
// instrumentation.
func (p *FlushPipeline) Stats() FlushStats {
	s := p.inner.Stats()
	p.mu.Lock()
	s.PipeBatches += p.pstats.batches
	s.PipeBatchLines += p.pstats.batchLines
	if p.pstats.batchMax > s.PipeBatchMax {
		s.PipeBatchMax = p.pstats.batchMax
	}
	s.PipeEpochs += p.pstats.epochs
	if p.pstats.depthMax > s.PipeDepthMax {
		s.PipeDepthMax = p.pstats.depthMax
	}
	s.PipeStalls += p.pstats.stalls
	s.PipeStallNanos += p.pstats.stallNanos
	s.PipeAwaitNanos += p.pstats.awaitNanos
	p.mu.Unlock()
	return s
}

// SetDepth retargets the backpressure bound: enqueues block once d entries
// are pending. The ring's storage stays at its construction capacity, so d
// is clamped to [1, cfg.Depth]; raising the bound releases any mutator
// blocked on backpressure. Safe from any goroutine — the adaptive
// controller calls it while the owning mutator is storing.
func (p *FlushPipeline) SetDepth(d int) {
	if d < 1 {
		d = 1
	}
	p.mu.Lock()
	if d > len(p.ring) {
		d = len(p.ring)
	}
	p.effDepth = d
	p.notFull.Broadcast()
	p.mu.Unlock()
}

// Depth returns the backpressure bound currently in effect.
func (p *FlushPipeline) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.effDepth
}

// BatchSizes returns the batch-size histogram: bucket i counts worker
// batches of 2^i ≤ lines < 2^(i+1) (last bucket open-ended).
func (p *FlushPipeline) BatchSizes() [pipeBatchBuckets]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.batchHist
}

// Close drains every pending entry through the inner sink, then stops the
// worker. The pipeline must not be used afterwards.
func (p *FlushPipeline) Close() {
	p.mu.Lock()
	if p.closed || p.aborted {
		p.mu.Unlock()
		p.waitWorker()
		return
	}
	p.closed = true
	if p.cfg.Synchronous {
		p.processAllLocked()
		p.mu.Unlock()
		return
	}
	p.notEmpty.Broadcast()
	p.mu.Unlock()
	p.waitWorker()
}

// Abort discards every pending entry and stops the worker without flushing:
// the crash path. Blocked enqueuers and awaiters are released. Safe to call
// from any goroutine once the mutator has stopped issuing flushes.
func (p *FlushPipeline) Abort() {
	p.mu.Lock()
	if p.aborted {
		p.mu.Unlock()
		p.waitWorker()
		return
	}
	p.aborted = true
	p.head, p.count = 0, 0
	p.notEmpty.Broadcast()
	p.notFull.Broadcast()
	p.epochCond.Broadcast()
	p.mu.Unlock()
	p.waitWorker()
}

func (p *FlushPipeline) waitWorker() {
	if p.workerDone != nil {
		<-p.workerDone
	}
}

// enqueueLocked appends one entry, capturing the line image when the inner
// sink supports it. Blocks while the ring is full (async mode) or processes
// inline to make room (synchronous mode).
func (p *FlushPipeline) enqueueLocked(line trace.LineAddr, kind uint8) {
	if p.aborted {
		return // crash path: flushes after abort are dropped
	}
	if p.count >= p.effDepth {
		if p.cfg.Synchronous {
			for p.count >= p.effDepth {
				p.processChunkLocked()
			}
		} else {
			p.pstats.stalls++
			start := time.Now()
			for p.count >= p.effDepth && !p.aborted {
				p.notFull.Wait()
			}
			p.pstats.stallNanos += time.Since(start).Nanoseconds()
			if p.aborted {
				return
			}
		}
	}
	slot := (p.head + p.count) % len(p.ring)
	e := &p.ring[slot]
	e.line, e.kind = line, kind
	if p.capt != nil && kind != peEpoch {
		p.capt.CaptureLine(line, e.data[:])
	}
	p.count++
	if int64(p.count) > p.pstats.depthMax {
		p.pstats.depthMax = int64(p.count)
	}
	if !p.cfg.Synchronous {
		p.notEmpty.Signal()
	}
}

// worker is the background drain loop.
func (p *FlushPipeline) worker() {
	defer close(p.workerDone)
	p.mu.Lock()
	for {
		for p.count == 0 && !p.closed && !p.aborted {
			p.notEmpty.Wait()
		}
		if p.aborted || (p.closed && p.count == 0) {
			p.mu.Unlock()
			return
		}
		p.processChunkLocked()
	}
}

// processChunkLocked pops and applies one contiguous run from the ring
// head: either an async batch (≤ BatchSize lines → one FlushBatch /
// ApplyBatch), or a drain group ending in its epoch marker (→ one Drain /
// DrainCaptured + epoch advance). The inner sink runs with mu released;
// freed slots are signalled before the flush so a backpressured mutator
// overlaps with it. Returns with mu held.
func (p *FlushPipeline) processChunkLocked() {
	// Async run first.
	for p.count > 0 && p.ring[p.head].kind == peAsync && len(p.batchLines) < p.cfg.BatchSize {
		p.popLocked(&p.batchLines, &p.batchData)
	}
	if n := len(p.batchLines); n > 0 {
		p.pstats.batches++
		p.pstats.batchLines += int64(n)
		if int64(n) > p.pstats.batchMax {
			p.pstats.batchMax = int64(n)
		}
		p.batchHist[batchBucket(n)]++
		p.notFull.Broadcast()
		p.mu.Unlock()
		p.applyAsync()
		p.mu.Lock()
		p.batchLines = p.batchLines[:0]
		p.batchData = p.batchData[:0]
		return
	}
	// Drain group: accumulate lines until the epoch marker arrives (the
	// publisher enqueues lines and marker atomically, but the ring may be
	// smaller than the group, in which case we pop what is here, free the
	// space, and come back for the rest).
	popped := false
	for p.count > 0 && p.ring[p.head].kind == peDrain {
		p.popLocked(&p.drainLines, &p.drainData)
		popped = true
	}
	if p.count > 0 && p.ring[p.head].kind == peEpoch {
		p.head = (p.head + 1) % len(p.ring)
		p.count--
		p.notFull.Broadcast()
		p.mu.Unlock()
		p.applyDrain()
		p.mu.Lock()
		p.drainLines = p.drainLines[:0]
		p.drainData = p.drainData[:0]
		if !p.aborted {
			p.persisted++
			p.epochCond.Broadcast()
		}
		return
	}
	if popped {
		p.notFull.Broadcast()
	}
}

// popLocked moves the head entry's line (and captured image) into the
// worker scratch.
func (p *FlushPipeline) popLocked(lines *[]trace.LineAddr, data *[]byte) {
	e := &p.ring[p.head]
	*lines = append(*lines, e.line)
	if p.capt != nil {
		*data = append(*data, e.data[:]...)
	}
	p.head = (p.head + 1) % len(p.ring)
	p.count--
}

func (p *FlushPipeline) applyAsync() {
	switch {
	case p.capt != nil:
		p.capt.ApplyBatch(p.batchLines, p.batchData)
	case p.batch != nil:
		p.batch.FlushBatch(p.batchLines)
	default:
		for _, l := range p.batchLines {
			p.inner.FlushLine(l)
		}
	}
}

func (p *FlushPipeline) applyDrain() {
	if p.capt != nil {
		p.capt.DrainCaptured(p.drainLines, p.drainData)
		return
	}
	p.inner.Drain(p.drainLines)
}

// processAllLocked (synchronous mode) runs the ring dry.
func (p *FlushPipeline) processAllLocked() {
	for p.count > 0 {
		p.processChunkLocked()
	}
}

func batchBucket(n int) int {
	b := 0
	for n > 1 && b < pipeBatchBuckets-1 {
		n >>= 1
		b++
	}
	return b
}
