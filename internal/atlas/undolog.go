package atlas

import (
	"fmt"
	"sort"
	"sync/atomic"

	"nvmcache/internal/pmem"
	"nvmcache/internal/trace"
)

// Undo logging gives FASEs their all-or-nothing guarantee: before a word
// of persistent data is overwritten inside a FASE, its old value is
// appended to a write-ahead log and persisted; at FASE end, after the
// persistence policy has drained the data writes, the log is truncated
// (commit). Recovery finds logs whose status is still active — the crash
// hit mid-FASE — and applies their entries backwards, restoring the
// pre-FASE state.
//
// Log layout in the persistent heap (all words little-endian):
//
//	base+0:  status (1 = active FASE, 0 = committed)
//	base+8:  entry count
//	base+16: begin sequence (global order of FASE begins; see below)
//	base+24: capacity in entries (0 in logs written before it was recorded)
//	base+64: entries, 16 bytes each: data address, old value
//
// Logs are registered in a registry block pointed to by the heap's Meta
// slot, so recovery can find them without any volatile state:
//
//	reg+0:  number of registered logs
//	reg+8:  log base addresses, 8 bytes each
//
// The begin sequence exists for the flush pipeline's FASE overlap: a
// thread alternating between two logs can crash with both active, and a
// word touched by both FASEs must be rolled back newest-first to restore
// the oldest pre-image. Recover therefore applies active logs in
// descending begin order (logs from heaps predating this word read
// sequence 0 and keep their registry order).
//
// The capacity word lets a later runtime reuse a registered log instead
// of allocating a new one (claimUndoLog): after Recover every log is
// committed and empty, so a store can crash and reattach indefinitely in a
// fixed heap. A log whose capacity is not recorded is never reused.
const (
	logHeaderSize = trace.LineSize
	logEntrySize  = 16
	registryCap   = 1024
	registrySize  = 8 + 8*registryCap
	logStatusOff  = 0
	logCountOff   = 8
	logSeqOff     = 16
	logCapOff     = 24
)

// undoSeq numbers FASE begins globally (content only matters relative to
// other logs of the same heap; a process-wide counter is the simplest
// source that is still strictly monotonic per thread).
var undoSeq atomic.Uint64

// CurrentSeq returns the current FASE begin-sequence high-water mark — the
// heap's log epoch. A checkpoint published at epoch E is ordered after
// every FASE that began at sequence ≤ E on the shard that took it (the
// shard checkpoints only at settled points), which is what lets recovery
// treat the checkpoint plus the post-E journal suffix as the whole truth.
func CurrentSeq() uint64 { return undoSeq.Load() }

// UndoOp names an undo-log persistence point for Options.UndoHook. Each is
// a boundary at which a crash leaves the log in a distinct intermediate
// state, which is why fault injection enumerates them separately.
type UndoOp uint8

const (
	// UndoBegin fires before the log is marked active at the outermost
	// FASEBegin (a crash here leaves the previous, committed log state).
	UndoBegin UndoOp = iota
	// UndoRecord fires before an entry's address/old-value words are
	// written (a crash here loses the entry entirely; the data write it
	// would guard has not reached NVRAM either).
	UndoRecord
	// UndoPublish fires after an entry's words are durable but before the
	// count that makes it visible to recovery (a crash here must be
	// tolerated by write-ahead ordering: the entry is durable, invisible).
	UndoPublish
	// UndoCommit fires before the log's status word is cleared at FASE end
	// (a crash here finds data fully drained but the FASE still active, so
	// recovery rolls it back).
	UndoCommit
)

// String names the op.
func (op UndoOp) String() string {
	switch op {
	case UndoBegin:
		return "undo-begin"
	case UndoRecord:
		return "undo-record"
	case UndoPublish:
		return "undo-publish"
	case UndoCommit:
		return "undo-commit"
	default:
		return fmt.Sprintf("undo-op(%d)", uint8(op))
	}
}

type undoLog struct {
	heap        *pmem.Heap
	base        uint64
	cap         int
	count       int
	dedup       map[uint64]struct{} // words already logged in this FASE
	dropped     int64               // records beyond capacity (reported, not fatal)
	droppedFASE int                 // records dropped since the last begin
	hook        func(UndoOp)        // fault-injection instrumentation (may be nil)
}

// at invokes the instrumentation hook, if any.
func (l *undoLog) at(op UndoOp) {
	if l.hook != nil {
		l.hook(op)
	}
}

// ensureRegistry finds or creates the heap's log registry.
func ensureRegistry(h *pmem.Heap) (uint64, error) {
	if m := h.Meta(); m != 0 {
		return m, nil
	}
	reg, err := h.AllocLines(registrySize)
	if err != nil {
		return 0, fmt.Errorf("atlas: allocating log registry: %w", err)
	}
	h.WriteUint64(reg, 0)
	h.Persist(reg, 8)
	h.SetMeta(reg)
	return reg, nil
}

// claimUndoLog returns an undo log of at least entries capacity for a new
// thread: the first registered log that is committed, empty, has a
// recorded capacity that large and is not in claimed — or, when none is,
// a newly allocated and registered one. The log's base is added to
// claimed.
func claimUndoLog(h *pmem.Heap, entries int, hook func(UndoOp), claimed map[uint64]struct{}) (*undoLog, error) {
	reg, err := ensureRegistry(h)
	if err != nil {
		return nil, err
	}
	n := h.ReadUint64(reg)
	if n > registryCap {
		return nil, fmt.Errorf("atlas: corrupt registry count %d", n)
	}
	base := uint64(0)
	for i := uint64(0); i < n && base == 0; i++ {
		b := h.ReadUint64(reg + 8 + 8*i)
		if _, taken := claimed[b]; !taken &&
			h.ReadUint64(b+logStatusOff) == 0 && h.ReadUint64(b+logCountOff) == 0 &&
			h.ReadUint64(b+logCapOff) >= uint64(entries) {
			base = b
		}
	}
	if base == 0 {
		if n == registryCap {
			return nil, fmt.Errorf("atlas: log registry full (%d logs)", n)
		}
		if base, err = h.AllocLines(uint64(logHeaderSize + entries*logEntrySize)); err != nil {
			return nil, fmt.Errorf("atlas: allocating undo log: %w", err)
		}
		h.WriteUint64(base+logStatusOff, 0)
		h.WriteUint64(base+logCountOff, 0)
		h.WriteUint64(base+logCapOff, uint64(entries))
		h.Persist(base, logHeaderSize)
		h.WriteUint64(reg+8+8*n, base)
		h.WriteUint64(reg, n+1)
		h.Persist(reg, 8+8*(n+1))
	}
	claimed[base] = struct{}{}
	return &undoLog{
		heap:  h,
		base:  base,
		cap:   entries,
		dedup: make(map[uint64]struct{}, 256),
		hook:  hook,
	}, nil
}

// begin opens a FASE: mark the log active before any data write. Log
// writes are write-through (Write64Through): the log's lines belong to
// this thread alone, the words are durable the instant they are written,
// and the store hot path acquires no heap stripe for logging.
func (l *undoLog) begin() {
	l.at(UndoBegin)
	l.count = 0
	l.droppedFASE = 0
	clear(l.dedup)
	l.heap.Write64Through(l.base+logCountOff, 0)
	l.heap.Write64Through(l.base+logSeqOff, undoSeq.Add(1))
	l.heap.Write64Through(l.base+logStatusOff, 1)
}

// record write-ahead-logs one word's old value. Each word is logged once
// per FASE (the first old value is the one recovery must restore). The
// entry is written through before the count that makes it visible to
// recovery, preserving write-ahead ordering.
func (l *undoLog) record(addr uint64, old uint64) {
	word := addr &^ 7
	if _, ok := l.dedup[word]; ok {
		return
	}
	l.dedup[word] = struct{}{}
	if l.count >= l.cap {
		l.dropped++
		l.droppedFASE++
		return
	}
	l.at(UndoRecord)
	e := l.base + logHeaderSize + uint64(l.count)*logEntrySize
	l.heap.Write64Through(e, word)
	l.heap.Write64Through(e+8, old)
	l.at(UndoPublish)
	l.count++
	l.heap.Write64Through(l.base+logCountOff, uint64(l.count))
}

// commit closes the FASE after the policy drained the data writes.
func (l *undoLog) commit() {
	l.at(UndoCommit)
	l.heap.Write64Through(l.base+logStatusOff, 0)
	l.heap.Write64Through(l.base+logCountOff, 0)
	l.count = 0
	clear(l.dedup)
}

// rollback undoes the current FASE in place: entries are applied backwards
// (exactly what Recover would do after a crash) and the log is then
// committed empty. It reports how many entries were dropped beyond the log's
// capacity — a non-zero count means the rollback is incomplete.
func (l *undoLog) rollback() int {
	for j := l.count - 1; j >= 0; j-- {
		e := l.base + logHeaderSize + uint64(j)*logEntrySize
		addr := l.heap.ReadUint64(e)
		old := l.heap.ReadUint64(e + 8)
		l.heap.WriteUint64(addr, old)
		l.heap.Persist(addr, 8)
	}
	dropped := l.droppedFASE
	l.commit()
	return dropped
}

// RecoverOp names a recovery persistence point for RecoverOptions.Hook.
// Crash-during-recovery exploration arms these: recovery must be
// idempotent, so a crash at either point followed by a second Recover has
// to converge to the same state.
type RecoverOp uint8

const (
	// RecoverReplay fires before a unit of restoration work is applied —
	// in atlas, before an active log's entries are rolled back; in layers
	// above (the kv checkpoint rebuild), before a replay batch.
	RecoverReplay RecoverOp = iota
	// RecoverInstall fires before the restoration is made authoritative —
	// in atlas, before an active log's status word is cleared; above,
	// before a rebuilt root is installed.
	RecoverInstall
)

// String names the op.
func (op RecoverOp) String() string {
	switch op {
	case RecoverReplay:
		return "recover-replay"
	case RecoverInstall:
		return "recover-install"
	default:
		return fmt.Sprintf("recover-op(%d)", uint8(op))
	}
}

// RecoverOptions instrument Recover; the zero value recovers silently.
type RecoverOptions struct {
	// Hook fires at each recovery persistence point (fault injection). A
	// panic out of it abandons recovery mid-flight; rerunning Recover is
	// always safe because every restore is durable word-by-word and the
	// log stays active until RecoverInstall completes.
	Hook func(RecoverOp)
}

// RecoveryReport summarises what Recover did.
type RecoveryReport struct {
	// LogsScanned is the number of registered undo logs.
	LogsScanned int
	// FASEsRolledBack counts logs that were active at the crash.
	FASEsRolledBack int
	// WordsRestored counts undo entries applied.
	WordsRestored int
	// MaxSeq is the highest FASE begin sequence found across all logs,
	// active or committed — the heap's log epoch at the crash. Recover
	// advances the process-wide sequence to at least this value so epochs
	// recorded by later checkpoints stay comparable across restarts.
	MaxSeq uint64
}

// Recover must be called after reattaching to a heap that may have crashed.
// It rolls back every FASE that was in flight, restoring the heap to a
// state in which every FASE is either completely applied (it committed
// before the crash and its policy drained its writes) or completely absent.
func Recover(h *pmem.Heap) (RecoveryReport, error) {
	return RecoverWith(h, RecoverOptions{})
}

// RecoverWith is Recover with instrumentation options.
func RecoverWith(h *pmem.Heap, opts RecoverOptions) (RecoveryReport, error) {
	var rep RecoveryReport
	reg := h.Meta()
	if reg == 0 {
		return rep, nil // never ran: nothing to recover
	}
	n := h.ReadUint64(reg)
	if n > registryCap {
		return rep, fmt.Errorf("atlas: corrupt registry count %d", n)
	}
	at := func(op RecoverOp) {
		if opts.Hook != nil {
			opts.Hook(op)
		}
	}
	// Collect active logs, then roll them back newest-begin-first: with
	// pipelined FASE overlap the same thread can leave two active logs, and
	// a word both touched must end at the older FASE's pre-image.
	type activeLog struct {
		base uint64
		seq  uint64
	}
	var active []activeLog
	for i := uint64(0); i < n; i++ {
		base := h.ReadUint64(reg + 8 + 8*i)
		rep.LogsScanned++
		if seq := h.ReadUint64(base + logSeqOff); seq > rep.MaxSeq {
			rep.MaxSeq = seq
		}
		if h.ReadUint64(base+logStatusOff) == 0 {
			continue
		}
		active = append(active, activeLog{base: base, seq: h.ReadUint64(base + logSeqOff)})
	}
	sort.SliceStable(active, func(i, j int) bool { return active[i].seq > active[j].seq })
	for _, al := range active {
		base := al.base
		count := h.ReadUint64(base + logCountOff)
		rep.FASEsRolledBack++
		at(RecoverReplay)
		for j := int64(count) - 1; j >= 0; j-- {
			e := base + logHeaderSize + uint64(j)*logEntrySize
			addr := h.ReadUint64(e)
			old := h.ReadUint64(e + 8)
			h.WriteUint64(addr, old)
			h.Persist(addr, 8)
			rep.WordsRestored++
		}
		at(RecoverInstall)
		h.WriteUint64(base+logStatusOff, 0)
		h.WriteUint64(base+logCountOff, 0)
		h.Persist(base, logHeaderSize)
	}
	// Epoch floor: keep begin sequences monotone across in-process restarts
	// of the same heap, so a checkpoint's recorded epoch never compares
	// against a recycled (smaller) sequence.
	for {
		cur := undoSeq.Load()
		if cur >= rep.MaxSeq || undoSeq.CompareAndSwap(cur, rep.MaxSeq) {
			break
		}
	}
	return rep, nil
}
