// Package atlas is a Go reimplementation of the runtime half of Atlas
// (Chakrabarti, Boehm, Bhandari, OOPSLA'14), the system the paper's
// software cache plugs into: failure-atomic sections (FASEs) with nesting,
// word-granularity undo logging for failure atomicity, crash recovery, and
// per-thread persistence policies that decide when dirty cache lines are
// written back to NVRAM.
//
// The paper instruments stores with an LLVM pass; here workloads call the
// Thread API explicitly (Store64/StoreBytes inside FASEBegin/FASEEnd),
// which delivers the identical event stream to the policy. Each Thread
// also records its events as a trace.ThreadSeq so a workload executed once
// can be replayed under every policy and cost model.
//
// Concurrency: each Thread owns its heap lines (single-writer-per-line;
// see the pmem package comment), its undo log, its policy and its flush
// sink, so the store hot path touches only thread-local state plus at most
// one of the heap's dirty-state stripes. Runtime keeps its thread registry
// in a copy-on-write slice behind an atomic pointer: FlushStats and Trace
// walk a snapshot and never take a lock a mutator could be holding.
package atlas

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
	"nvmcache/internal/trace"
)

// Options configures a Runtime.
type Options struct {
	// Policy selects the persistence technique for every thread.
	Policy core.PolicyKind
	// Config tunes the policies (cache sizes, burst length, ...).
	Config core.Config
	// LogEntries is the per-thread undo log capacity in entries; it bounds
	// the number of distinct words written per FASE. Default 4096 (64 KiB
	// of log per thread).
	LogEntries int
	// RecordTrace enables per-thread trace recording (default on).
	DisableTrace bool
	// WrapSink, when non-nil, wraps each new thread's flush sink before the
	// persistence policy is attached. internal/faultinject interposes its
	// numbered crash points here; the wrapped sink must preserve FlushSink
	// semantics (a drain durably persists its lines before returning).
	WrapSink func(thread int32, sink core.FlushSink) core.FlushSink
	// StoreTap, when non-nil, builds a per-thread observer of the
	// persistent-store line stream (the adaptive control plane's sampling
	// tap). The runtime calls TapStore for every line the thread stores and
	// TapFASEEnd at every outermost FASE close; a nil return leaves the
	// thread untapped. Taps see the same event stream as the policy but
	// cannot affect it.
	StoreTap func(thread int32) core.StoreTap
	// UndoHook, when non-nil, is called at each undo-log persistence point
	// (see UndoOp) on the mutating goroutine, before the corresponding
	// durable write. A hook may panic to simulate a power failure at that
	// exact boundary; internal/faultinject drives crash-point exploration
	// through it.
	UndoHook func(op UndoOp)
	// Pipeline, when non-nil, wraps every thread's flush sink in a
	// core.FlushPipeline: evictions become background write-backs and
	// FASE-end drains become epoch publish/await. Each thread additionally
	// gets a second undo log so FASEPublish/FASEAwait can overlap one
	// FASE's drain with the next FASE's stores. The pipeline wraps *above*
	// WrapSink, so fault-injection middleware observes the batched calls
	// the worker makes against the real sink. A wrapped sink that is not a
	// core.CaptureSink cannot be drained off the mutator (the worker would
	// read the volatile plane while the mutator stores to it), so such a
	// thread's pipeline runs Synchronous. Nil keeps the plain synchronous
	// sink.
	Pipeline *core.PipelineConfig
}

// DefaultOptions uses the adaptive software cache with paper constants.
func DefaultOptions() Options {
	return Options{Policy: core.SoftCacheOnline, Config: core.DefaultConfig(), LogEntries: 1 << 12}
}

// Runtime owns a persistent heap and its threads. A heap has at most one
// live Runtime: NewThread reuses registered undo logs that are committed
// and empty, which is only sound when no other runtime's thread could be
// between FASEs on one of them. Reattaching after a crash or a Close (the
// previous runtime is dead) is the intended use.
type Runtime struct {
	heap *pmem.Heap
	opts Options

	// threads is a copy-on-write registry: readers (FlushStats, Trace,
	// Close) load the pointer and walk an immutable slice; NewThread copies
	// under mu and swaps the pointer. Mutator threads never touch it.
	threads atomic.Pointer[[]*Thread]
	mu      sync.Mutex          // serializes NewThread and Close
	claimed map[uint64]struct{} // undo logs owned by this runtime's threads
	nextID  int32
}

// NewRuntime wraps an existing heap. Call Recover first when reattaching to
// a heap that may have crashed mid-FASE.
func NewRuntime(heap *pmem.Heap, opts Options) *Runtime {
	if opts.LogEntries <= 0 {
		opts.LogEntries = 1 << 12
	}
	rt := &Runtime{heap: heap, opts: opts, claimed: make(map[uint64]struct{})}
	rt.threads.Store(&[]*Thread{})
	return rt
}

// Heap returns the underlying persistent heap.
func (rt *Runtime) Heap() *pmem.Heap { return rt.heap }

// snapshot returns the current immutable thread slice.
func (rt *Runtime) snapshot() []*Thread { return *rt.threads.Load() }

// NewThread registers a new mutator thread with its own software cache,
// undo log, flush sink and trace recorder. Threads are independent (no
// shared policy state), mirroring the paper's per-thread, lock-free cache
// design. The thread's undo logs are registered logs reclaimed from earlier
// runtimes on this heap when any fit (see claimUndoLog), so reattaching
// after any number of crashes does not grow the heap.
func (rt *Runtime) NewThread() (*Thread, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	id := rt.nextID
	rt.nextID++
	nlogs := 1
	if rt.opts.Pipeline != nil {
		// A second log lets FASEPublish leave one FASE draining while the
		// next FASE records into the other log.
		nlogs = 2
	}
	logs := make([]*undoLog, 0, nlogs)
	for len(logs) < nlogs {
		log, err := claimUndoLog(rt.heap, rt.opts.LogEntries, rt.opts.UndoHook, rt.claimed)
		if err != nil {
			return nil, fmt.Errorf("atlas: creating undo log for thread %d: %w", id, err)
		}
		logs = append(logs, log)
	}
	var sink core.FlushSink = pmem.NewSink(rt.heap)
	if rt.opts.WrapSink != nil {
		sink = rt.opts.WrapSink(id, sink)
	}
	t := &Thread{
		id:   id,
		rt:   rt,
		heap: rt.heap,
		logs: logs,
		sink: sink,
	}
	if rt.opts.Pipeline != nil {
		cfg := *rt.opts.Pipeline
		if _, ok := sink.(core.CaptureSink); !ok {
			cfg.Synchronous = true
		}
		t.pipeline = core.NewFlushPipeline(sink, cfg)
		t.sink = t.pipeline
	}
	t.policy = core.NewPolicy(rt.opts.Policy, rt.opts.Config, t.sink)
	if rt.opts.StoreTap != nil {
		t.tap = rt.opts.StoreTap(id)
	}
	if !rt.opts.DisableTrace {
		t.builder = trace.NewBuilder(id)
		t.recording = true
	}
	old := rt.snapshot()
	next := make([]*Thread, len(old)+1)
	copy(next, old)
	next[len(old)] = t
	rt.threads.Store(&next)
	return t, nil
}

// Close finishes every thread: residual dirty state is drained so a clean
// shutdown is durable. The threads themselves must have stopped mutating.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.snapshot() {
		t.finish()
	}
}

// CrashAbort stops every thread's flush pipeline, discarding queued
// flushes and releasing any goroutine blocked on backpressure or an epoch
// await: the crash path. Mutators must have stopped issuing stores. Call
// this *before* pmem.Heap.Crash so no pipeline worker writes the durable
// view after the simulated power cut; afterwards the runtime accepts no
// more work (Close becomes a no-op on pipelined threads).
func (rt *Runtime) CrashAbort() {
	for _, t := range rt.snapshot() {
		if t.pipeline != nil {
			t.pipeline.Abort()
		}
	}
}

// Trace returns the recorded multi-thread trace (nil sequences are skipped
// for threads created after DisableTrace). Each call returns an
// independent snapshot of everything recorded so far — a FASE still open
// at the call is included as a sealed section of the snapshot — and
// recording continues unaffected, so Trace may be called repeatedly
// (mid-session or after Close). The threads must be quiescent (between
// stores) during the call; Trace itself takes no lock a mutator could
// contend on.
func (rt *Runtime) Trace() *trace.Trace {
	threads := rt.snapshot()
	seqs := make([]*trace.ThreadSeq, 0, len(threads))
	for _, t := range threads {
		if t.builder != nil {
			seqs = append(seqs, t.builder.Snapshot())
		}
	}
	return trace.NewTrace(seqs...)
}

// FlushStats sums the flush counters of all threads. Safe to call at any
// time, including while mutators are storing: sink counters are atomic and
// the registry walk is lock-free.
func (rt *Runtime) FlushStats() core.FlushStats {
	var total core.FlushStats
	for _, t := range rt.snapshot() {
		total = total.Add(t.sink.Stats())
	}
	return total
}

// Thread is one mutator's handle: all persistent stores of one goroutine
// go through exactly one Thread. A Thread is not safe for concurrent use,
// and distinct Threads must write disjoint cache lines (the
// single-writer-per-line discipline pmem's lock-free data plane relies
// on).
type Thread struct {
	id        int32
	rt        *Runtime
	heap      *pmem.Heap
	policy    core.Policy
	tap       core.StoreTap  // optional store-stream observer; may be nil
	sink      core.FlushSink // the policy's sink; the pipeline when enabled
	pipeline  *core.FlushPipeline
	builder   *trace.Builder
	recording bool
	logs      []*undoLog // one log, or two when the pipeline overlaps FASEs
	cur       int        // index of the log recording the current FASE
	depth     int
	stores    int64
	finished  bool

	// outstanding tracks FASEs published but not yet awaited, oldest
	// first. Their logs stay active until FASEAwait commits them in FIFO
	// order (committing out of order would let recovery's rollback of an
	// older FASE clobber a newer committed one).
	outstanding []pendingFASE
	pubSeq      uint64
	committed   uint64 // id of the newest published FASE whose log committed
}

// pendingFASE is one published-but-not-durable FASE.
type pendingFASE struct {
	id    uint64
	log   *undoLog
	epoch core.Epoch
}

// FASETicket identifies a FASE closed with FASEPublish, to be passed to
// FASEAwait. The zero ticket (from a nested or non-overlapping publish) is
// already durable and awaits as a no-op.
type FASETicket struct {
	id      uint64
	pending bool
}

// Durable reports whether the ticket's FASE was already durable when the
// ticket was issued (no await needed).
func (tk FASETicket) Durable() bool { return !tk.pending }

// ID returns the thread id.
func (t *Thread) ID() int32 { return t.id }

// Heap returns the runtime's persistent heap.
func (t *Thread) Heap() *pmem.Heap { return t.heap }

// curLog returns the undo log recording the current FASE.
func (t *Thread) curLog() *undoLog { return t.logs[t.cur] }

// canOverlap reports whether this thread can leave a published FASE
// draining in the background (pipeline plus a spare undo log).
func (t *Thread) canOverlap() bool { return t.pipeline != nil && len(t.logs) > 1 }

// FASEBegin enters a failure-atomic section. Sections nest; only the
// outermost pair delimits the atomicity and flush boundary, as in Atlas.
// If the log about to record this FASE still guards a published FASE, that
// FASE is awaited first (the overlap depth is bounded by the spare logs).
func (t *Thread) FASEBegin() {
	t.depth++
	if t.depth == 1 {
		for _, p := range t.outstanding {
			if p.log == t.curLog() {
				t.FASEAwait(FASETicket{id: p.id, pending: true})
				break
			}
		}
		t.curLog().begin()
		t.policy.FASEBegin()
		if t.recording {
			t.builder.Begin()
		}
	}
}

// FASEEnd leaves a section. Closing the outermost level drains the policy
// (persisting every line written in the FASE) and then commits and clears
// the undo log, making the FASE durable. With the pipeline enabled this is
// exactly FASEAwait(FASEPublish()): publish the epoch, wait for it.
func (t *Thread) FASEEnd() {
	if t.depth == 0 {
		return
	}
	if t.depth == 1 && t.canOverlap() {
		t.FASEAwait(t.FASEPublish())
		return
	}
	t.depth--
	if t.depth > 0 {
		return
	}
	t.policy.FASEEnd()
	if t.tap != nil {
		t.tap.TapFASEEnd()
	}
	t.curLog().commit()
	if t.recording {
		t.builder.End()
	}
}

// FASEPublish closes the current section like FASEEnd but, for the
// outermost level with overlap available, does not wait for the FASE's
// writes to persist: the policy's FASE-end drain is routed into an epoch
// publication, the undo log stays active, and the thread switches to its
// spare log so the next FASE can begin immediately. The returned ticket
// must eventually be passed to FASEAwait, which makes the FASE durable
// (commits its log) — until then a crash rolls the published FASE back, so
// its effects must not be acknowledged externally. Without overlap
// capability (or for a nested level) it behaves exactly like FASEEnd and
// returns an already-durable ticket.
func (t *Thread) FASEPublish() FASETicket {
	if t.depth == 0 {
		return FASETicket{}
	}
	if t.depth > 1 || !t.canOverlap() {
		t.FASEEnd()
		return FASETicket{}
	}
	t.depth--
	t.pipeline.DeferNextDrain()
	t.policy.FASEEnd()
	if t.tap != nil {
		t.tap.TapFASEEnd()
	}
	epoch := t.pipeline.TakeDeferred()
	t.pubSeq++
	t.outstanding = append(t.outstanding, pendingFASE{id: t.pubSeq, log: t.curLog(), epoch: epoch})
	t.cur = (t.cur + 1) % len(t.logs)
	if t.recording {
		t.builder.End()
	}
	return FASETicket{id: t.pubSeq, pending: true}
}

// FASEAwait blocks until the published FASE identified by tk is durable,
// then commits its undo log. Outstanding FASEs older than tk are awaited
// and committed first — commits are strictly FIFO, because recovery rolls
// back *active* logs and an out-of-order commit would let an older FASE's
// rollback clobber a newer committed FASE's writes. It reports whether the
// FASE is durable: false when the pipeline was aborted (the crash path)
// before its log committed, in which case recovery rolls the FASE back.
func (t *Thread) FASEAwait(tk FASETicket) (durable bool) {
	if !tk.pending {
		return true
	}
	for len(t.outstanding) > 0 && t.outstanding[0].id <= tk.id {
		p := t.outstanding[0]
		t.outstanding = t.outstanding[1:]
		t.pipeline.Await(p.epoch)
		if !t.pipeline.Aborted() {
			p.log.commit()
			t.committed = p.id
		}
	}
	return t.committed >= tk.id
}

// awaitOutstanding awaits and commits every published FASE.
func (t *Thread) awaitOutstanding() {
	if n := len(t.outstanding); n > 0 {
		t.FASEAwait(FASETicket{id: t.outstanding[n-1].id, pending: true})
	}
}

// FASEAbort abandons the current FASE (all nesting levels) and rolls the
// heap back to its state at the outermost FASEBegin, using the same undo
// entries crash recovery would apply. The persistence policy is drained
// first so the rollback's persists land last and the durable view also
// reflects the pre-FASE state. It returns an error when the undo log
// overflowed during the FASE, in which case the rollback is incomplete
// (exactly as it would be after a crash; see LogEntries).
func (t *Thread) FASEAbort() error {
	if t.depth == 0 {
		return nil
	}
	t.depth = 0
	// Older published FASEs must become durable before this one's rollback
	// writes land (the rollback persists directly, bypassing the pipeline).
	t.awaitOutstanding()
	t.policy.FASEEnd()
	if t.tap != nil {
		t.tap.TapFASEEnd()
	}
	dropped := t.curLog().rollback()
	if t.recording {
		t.builder.End()
	}
	if dropped > 0 {
		return fmt.Errorf("atlas: abort rollback incomplete: %d undo entries were dropped", dropped)
	}
	return nil
}

// InFASE reports whether the thread is inside a section.
func (t *Thread) InFASE() bool { return t.depth > 0 }

// FlushStats returns this thread's flush counters (async, drained,
// barriers). The counters are atomic, so concurrent observers may read
// them while the thread is mutating.
func (t *Thread) FlushStats() core.FlushStats { return t.sink.Stats() }

// Stores returns the number of persistent stores issued.
func (t *Thread) Stores() int64 { return t.stores }

// Store64 performs a persistent store of one 64-bit word as a single-entry
// protocol: one bounds check, the volatile write (returning the old value
// in the same heap access), the undo record, and the policy notify — at
// most one striped heap lock on the whole path, and no lock is ever
// re-acquired between steps.
//
// Ordering note: the volatile write lands before the undo record is
// durable, which is safe in this model because the new value can only
// reach the durable view through a line flush, and every flush of this
// line is issued by this thread's policy at or after the notify below —
// by which point the undo record (written through by record) is already
// durable. A store outside any FASE is treated as a singleton FASE (Atlas
// flushes such "durable by next barrier" stores promptly).
func (t *Thread) Store64(addr uint64, v uint64) {
	implicit := t.depth == 0
	if implicit {
		t.FASEBegin()
	}
	old := t.heap.Store64(addr, v)
	t.curLog().record(addr, old)
	t.noteStore(addr, 8)
	if implicit {
		t.FASEEnd()
	}
}

// StoreBytes performs a persistent store of an arbitrary byte range:
// bounds-checked once up front, old contents write-ahead-logged word by
// word, then the byte write and the policy notify. The logged word range
// is clamped to the heap (ReadWordClamped), so a store ending in the
// heap's final bytes does not read past the end.
func (t *Thread) StoreBytes(addr uint64, b []byte) {
	if len(b) == 0 {
		return
	}
	t.heap.CheckRange(addr, uint64(len(b)))
	implicit := t.depth == 0
	if implicit {
		t.FASEBegin()
	}
	// Log the covered words (8-byte granules aligned down; the final word
	// may overhang the stored range but never the heap).
	start := addr &^ 7
	end := addr + uint64(len(b))
	for w := start; w < end; w += 8 {
		t.curLog().record(w, t.heap.ReadWordClamped(w))
	}
	t.heap.WriteBytes(addr, b)
	t.noteStore(addr, uint64(len(b)))
	if implicit {
		t.FASEEnd()
	}
}

// Load64 reads a word (reads are not instrumented; the write-combining
// cache considers only writes, Section III-A).
func (t *Thread) Load64(addr uint64) uint64 { return t.heap.ReadUint64(addr) }

// LoadBytes reads a byte range.
func (t *Thread) LoadBytes(addr, n uint64) []byte { return t.heap.ReadBytes(addr, n) }

func (t *Thread) noteStore(addr, size uint64) {
	first := addr >> trace.LineShift
	last := (addr + size - 1) >> trace.LineShift
	for l := first; l <= last; l++ {
		t.stores++
		t.policy.Store(trace.LineAddr(l))
		if t.tap != nil {
			t.tap.TapStore(trace.LineAddr(l))
		}
		if t.recording {
			t.builder.Store(trace.LineAddr(l))
		}
	}
}

func (t *Thread) finish() {
	if t.finished {
		return
	}
	if t.pipeline != nil && t.pipeline.Aborted() {
		// Crash path: the heap took a simulated power cut after CrashAbort;
		// write nothing more to it.
		t.finished = true
		return
	}
	for t.depth > 0 {
		t.FASEEnd()
	}
	t.awaitOutstanding()
	t.policy.Finish()
	if t.pipeline != nil {
		t.pipeline.Close()
	}
	t.finished = true
}

// Policy exposes the thread's policy (for AdaptReport inspection).
func (t *Thread) Policy() core.Policy { return t.policy }

// Pipeline returns the thread's flush pipeline, or nil when
// Options.Pipeline is nil (for batch-size histogram inspection).
func (t *Thread) Pipeline() *core.FlushPipeline { return t.pipeline }

// SetRecording toggles trace recording mid-run, outside any FASE. Workload
// warm-up phases (for example pre-populating a store before the measured
// run) switch recording off so the trace reflects steady-state behaviour.
// It has no effect on threads created with DisableTrace.
func (t *Thread) SetRecording(on bool) {
	if t.builder == nil || t.depth > 0 {
		return
	}
	t.recording = on
}
