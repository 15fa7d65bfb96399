package kv

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"nvmcache/internal/core"
	"nvmcache/internal/hwsim"
	"nvmcache/internal/pmem"
)

// latRingCap bounds the per-shard commit-latency sample buffer: percentiles
// reflect the most recent ~4k commits.
const latRingCap = 4096

// counters is the shard's instrumentation. The writer goroutine updates
// the atomics at batch boundaries (flush counters are snapshots of the
// thread's totals, published after each commit so observers never race the
// mutating thread); gets is bumped by reader goroutines directly.
type counters struct {
	puts, dels   atomic.Uint64
	incrs, decrs atomic.Uint64
	gets         atomic.Uint64
	scans        atomic.Uint64
	batches      atomic.Uint64
	batchedOps   atomic.Uint64
	aborts       atomic.Uint64

	// Absorption accounting over acked mutations: committed is the
	// physical op count the FASEs executed, absorbed the logical ops folded
	// away before reaching one; absorbed+committed == acked mutations.
	// The *C counters tally accumulator commits by trigger.
	absorbed, committed               atomic.Uint64
	absorbThresholdC, absorbDeadlineC atomic.Uint64
	flushAsync                        atomic.Int64
	flushDrained                      atomic.Int64
	flushBarriers                     atomic.Int64

	// Checkpoint/journal accounting (all zero while checkpointing is off).
	// ckpts/ckptSkipped count publish attempts by outcome; ckptPairs and
	// ckptLastGen are gauges describing the newest image; jrnOps counts
	// sealed redo entries, jrnTruncated entries released by truncation, and
	// jrnOverflows trips of the overflow protocol.
	ckpts, ckptSkipped     atomic.Uint64
	ckptPairs, ckptLastGen atomic.Uint64
	jrnOps, jrnTruncated   atomic.Uint64
	jrnOverflows           atomic.Uint64

	// Recovery gauges, set once when the store is built by Recover: the
	// mode the shard recovered by (RecoveryMode*), images skipped to reach
	// a usable source, pairs restored from the image, and journal entries
	// replayed behind it.
	recMode, recFallbacks    atomic.Uint64
	recReplayed, recRestored atomic.Uint64

	// Flush-pipeline snapshots, published like the flush counters above.
	// The snapshot is taken at the batch's publish, so gauges lag the live
	// pipeline by at most one batch.
	pipeBatches  atomic.Int64
	pipeLines    atomic.Int64
	pipeBatchMax atomic.Int64
	pipeEpochs   atomic.Int64
	pipeDepthMax atomic.Int64
	pipeStalls   atomic.Int64
	pipeStallNs  atomic.Int64
	pipeAwaitNs  atomic.Int64

	latMu   sync.Mutex
	lats    []float64 // ring of recent commit latencies, simulated cycles
	latNext int
}

// note records one committed batch: operation mix, absorption accounting
// (applied is the physical op count the FASE executed; the remainder of
// the batch was absorbed), flush-counter snapshot, and the commit's drain
// latency in simulated cycles.
func (sh *shard) note(batch []request, applied int, pre, post core.FlushStats) {
	sh.noteOps(batch)
	sh.batches.Add(1)
	sh.batchesSince++
	logical := logicalOps(batch)
	sh.batchedOps.Add(uint64(logical))
	sh.committed.Add(uint64(applied))
	if n := logical - applied; n > 0 {
		sh.absorbed.Add(uint64(n))
	}
	sh.flushAsync.Store(post.Async)
	sh.flushDrained.Store(post.Drained)
	sh.flushBarriers.Store(post.Barriers)
	sh.pipeBatches.Store(post.PipeBatches)
	sh.pipeLines.Store(post.PipeBatchLines)
	sh.pipeBatchMax.Store(post.PipeBatchMax)
	sh.pipeEpochs.Store(post.PipeEpochs)
	sh.pipeDepthMax.Store(post.PipeDepthMax)
	sh.pipeStalls.Store(post.PipeStalls)
	sh.pipeStallNs.Store(post.PipeStallNanos)
	sh.pipeAwaitNs.Store(post.PipeAwaitNanos)
	sh.recordLatency(commitCycles(post.Drained - pre.Drained))
}

// noteOps counts acked operations by kind (shared by the FASE and the
// net-null no-FASE ack paths).
func (sh *shard) noteOps(batch []request) {
	var nput, ndel, nincr, ndecr uint64
	for i := range batch {
		switch batch[i].op {
		case opPut:
			nput++
		case opPuts:
			nput += uint64(len(batch[i].pairs))
		case opDel:
			ndel++
		case opIncr:
			nincr++
		case opDecr:
			ndecr++
		}
	}
	sh.puts.Add(nput)
	sh.dels.Add(ndel)
	sh.incrs.Add(nincr)
	sh.decrs.Add(ndecr)
}

func (sh *shard) recordLatency(cycles float64) {
	sh.latMu.Lock()
	if len(sh.lats) < latRingCap {
		sh.lats = append(sh.lats, cycles)
	} else {
		sh.lats[sh.latNext] = cycles
		sh.latNext = (sh.latNext + 1) % latRingCap
	}
	sh.latMu.Unlock()
}

// commitCycles converts a commit's FASE-end drain into simulated cycles
// using the repository's calibrated cost model: every drained line pays
// its issue cost, and write-back waves of MaxOutstanding lines proceed in
// parallel but cannot overlap with computation (the drain is the stall the
// paper's Section II-A describes).
func commitCycles(drained int64) float64 {
	if drained < 0 {
		drained = 0
	}
	cm := hwsim.DefaultCostModel()
	waves := math.Ceil(float64(drained) / float64(cm.MaxOutstanding))
	return cm.FASEOverhead + float64(drained)*cm.FlushIssue + waves*cm.FlushLatency
}

// ShardStats is one shard's instrumentation snapshot.
type ShardStats struct {
	Shard int
	// Operation counts (committed mutations and served reads/scans).
	Puts, Deletes, Gets, Scans uint64
	// Counter mutations (acked Incr/Decr).
	Incrs, Decrs uint64
	// Group-commit shape.
	Batches, BatchedOps uint64
	// Absorption accounting: Committed physical ops executed by FASEs vs
	// Absorbed logical ops folded away before reaching one
	// (Absorbed+Committed == acked mutations), plus accumulator commits by
	// trigger. All zero-ratio when Options.Absorb is disabled (Committed
	// then equals the acked mutation count).
	Absorbed, Committed                           uint64
	AbsorbThresholdCommits, AbsorbDeadlineCommits uint64
	// Aborted batches (shed load, e.g. pool exhaustion).
	Aborts uint64
	// Flush counters of the shard's persistence policy: async (overlapped,
	// mid-FASE evictions), drained (FASE-end stalls), barriers (empty
	// drains).
	AsyncFlushes, DrainedFlushes, Barriers int64
	// Commit drain latency percentiles over recent batches, in simulated
	// cycles.
	CommitP50, CommitP99 float64
	// Flush-pipeline instrumentation: worker batches handed to the inner
	// sink and their total / largest line count, epochs published, the
	// ring-depth high-water mark, backpressure stall events with their
	// cumulative wall time, and the wall time the writer spent awaiting
	// epoch persistence at settle.
	PipeBatches, PipeBatchLines, PipeBatchMax int64
	PipeEpochs, PipeDepthMax                  int64
	PipeStalls, PipeStallNanos                int64
	PipeAwaitNanos                            int64
	// Adaptive control-plane gauges (all zero when Options.Adaptive is
	// disabled): the write-cache capacity currently in effect, the sequence
	// number of the shard's newest control decision, capacity retargets
	// requested so far, and total line writes recorded into completed
	// sampling bursts.
	AdaptiveCap, AdaptiveLast       int64
	AdaptiveResizes, AdaptiveSample int64
	// Checkpoint/journal instrumentation (all zero when
	// Options.Checkpoint is disabled): images published and attempts
	// skipped, the newest image's pair count and generation, redo-journal
	// entries sealed / released by truncation, and overflow-protocol trips.
	Checkpoints, CheckpointSkipped     uint64
	CheckpointPairs, CheckpointLastGen uint64
	JournalOps, JournalTruncated       uint64
	JournalOverflows                   uint64
	// Recovery gauges, set by Recover and constant for the store's life:
	// the mode the shard recovered by (RecoveryMode*), images skipped to
	// reach a usable one, pairs restored from it, and journal entries
	// replayed behind it.
	RecoveryMode, RecoveryFallbacks    uint64
	RecoveryRestored, RecoveryReplayed uint64
}

// AvgBatch returns the mean committed batch size.
func (st ShardStats) AvgBatch() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.BatchedOps) / float64(st.Batches)
}

// AbsorbRatio returns the fraction of acked mutations absorbed before
// reaching a FASE (0 with absorption off or no mutations yet).
func (st ShardStats) AbsorbRatio() float64 {
	if st.Absorbed+st.Committed == 0 {
		return 0
	}
	return float64(st.Absorbed) / float64(st.Absorbed+st.Committed)
}

// Flushes returns all line flushes (async + drained).
func (st ShardStats) Flushes() int64 { return st.AsyncFlushes + st.DrainedFlushes }

// FlushRatio returns line flushes per committed mutation — the service-
// level analogue of the paper's Table III flush ratio; group commit lowers
// it by amortizing page copies and the FASE-end drain across the batch.
func (st ShardStats) FlushRatio() float64 {
	if st.BatchedOps == 0 {
		return 0
	}
	return float64(st.Flushes()) / float64(st.BatchedOps)
}

// Pairs returns every field as a `key=value` token with the keys in
// sorted order. The key set is fixed (every subsystem's keys are present
// whether or not it is enabled), so STATS output is a stable,
// machine-diffable schema: internal/nvclient parses these tokens and
// internal/loadgen diffs two snapshots to report per-run server-side
// deltas in BENCH_*.json, taking the keys IsGauge names as levels rather
// than counts. Values are plain decimals; units live in the key name
// (_cyc, _ms).
func (st ShardStats) Pairs() []string {
	pairs := []string{
		fmt.Sprintf("aborts=%d", st.Aborts),
		fmt.Sprintf("absorb_commits_deadline=%d", st.AbsorbDeadlineCommits),
		fmt.Sprintf("absorb_commits_threshold=%d", st.AbsorbThresholdCommits),
		fmt.Sprintf("absorb_ratio=%.3f", st.AbsorbRatio()),
		fmt.Sprintf("absorbed_ops=%d", st.Absorbed),
		fmt.Sprintf("committed_ops=%d", st.Committed),
		fmt.Sprintf("decrs=%d", st.Decrs),
		fmt.Sprintf("incrs=%d", st.Incrs),
		fmt.Sprintf("adaptive_cap=%d", st.AdaptiveCap),
		fmt.Sprintf("adaptive_last=%d", st.AdaptiveLast),
		fmt.Sprintf("adaptive_resizes=%d", st.AdaptiveResizes),
		fmt.Sprintf("adaptive_sampled=%d", st.AdaptiveSample),
		fmt.Sprintf("avg_batch=%.2f", st.AvgBatch()),
		fmt.Sprintf("batches=%d", st.Batches),
		fmt.Sprintf("checkpoint_last_gen=%d", st.CheckpointLastGen),
		fmt.Sprintf("checkpoint_pairs=%d", st.CheckpointPairs),
		fmt.Sprintf("checkpoint_skipped=%d", st.CheckpointSkipped),
		fmt.Sprintf("checkpoints=%d", st.Checkpoints),
		fmt.Sprintf("commit_p50_cyc=%.0f", st.CommitP50),
		fmt.Sprintf("commit_p99_cyc=%.0f", st.CommitP99),
		fmt.Sprintf("dels=%d", st.Deletes),
		fmt.Sprintf("flush_async=%d", st.AsyncFlushes),
		fmt.Sprintf("flush_barriers=%d", st.Barriers),
		fmt.Sprintf("flush_drained=%d", st.DrainedFlushes),
		fmt.Sprintf("flush_ratio=%.3f", st.FlushRatio()),
		fmt.Sprintf("flushes=%d", st.Flushes()),
		fmt.Sprintf("gets=%d", st.Gets),
		fmt.Sprintf("journal_ops=%d", st.JournalOps),
		fmt.Sprintf("journal_overflows=%d", st.JournalOverflows),
		fmt.Sprintf("journal_truncated=%d", st.JournalTruncated),
		fmt.Sprintf("ops=%d", st.BatchedOps),
		fmt.Sprintf("pipe_await_ms=%.3f", float64(st.PipeAwaitNanos)/1e6),
		fmt.Sprintf("pipe_batch_max=%d", st.PipeBatchMax),
		fmt.Sprintf("pipe_batches=%d", st.PipeBatches),
		fmt.Sprintf("pipe_depth_max=%d", st.PipeDepthMax),
		fmt.Sprintf("pipe_epochs=%d", st.PipeEpochs),
		fmt.Sprintf("pipe_lines=%d", st.PipeBatchLines),
		fmt.Sprintf("pipe_stall_ms=%.3f", float64(st.PipeStallNanos)/1e6),
		fmt.Sprintf("pipe_stalls=%d", st.PipeStalls),
		fmt.Sprintf("puts=%d", st.Puts),
		fmt.Sprintf("recovery_fallbacks=%d", st.RecoveryFallbacks),
		fmt.Sprintf("recovery_mode=%d", st.RecoveryMode),
		fmt.Sprintf("recovery_replayed=%d", st.RecoveryReplayed),
		fmt.Sprintf("recovery_restored=%d", st.RecoveryRestored),
		fmt.Sprintf("scans=%d", st.Scans),
	}
	sort.Strings(pairs) // belt and braces: keys above are already sorted
	return pairs
}

// gaugeKeys are the STATS keys (Pairs and the stripe line from
// Store.StripeSummary) whose values are levels — ratios, percentiles,
// maxima, the newest image, the recovery outcome — not running counts.
var gaugeKeys = map[string]bool{
	"absorb_ratio": true, "adaptive_cap": true, "adaptive_last": true, "avg_batch": true,
	"checkpoint_last_gen": true, "checkpoint_pairs": true, "commit_p50_cyc": true,
	"commit_p99_cyc": true, "flush_ratio": true, "pipe_batch_max": true, "pipe_depth_max": true,
	"recovery_fallbacks": true, "recovery_mode": true, "recovery_replayed": true,
	"recovery_restored": true, "stripes": true, "contention": true, "hot_stripe": true,
	"hot_acquired": true,
}

// IsGauge reports whether a STATS key (a Pairs key or a stripe-line key)
// is a gauge; every other key is a monotone counter.
func IsGauge(key string) bool { return gaugeKeys[key] }

// String renders one STATS line: the row identifier (shard=N, or `total`
// for the aggregate) followed by the sorted Pairs.
func (st ShardStats) String() string {
	id := fmt.Sprintf("shard=%d", st.Shard)
	if st.Shard < 0 {
		id = "total"
	}
	return id + " " + strings.Join(st.Pairs(), " ")
}

func (sh *shard) stats() ShardStats {
	st := ShardStats{
		Shard:      sh.id,
		Puts:       sh.puts.Load(),
		Deletes:    sh.dels.Load(),
		Incrs:      sh.incrs.Load(),
		Decrs:      sh.decrs.Load(),
		Gets:       sh.gets.Load(),
		Scans:      sh.scans.Load(),
		Batches:    sh.batches.Load(),
		BatchedOps: sh.batchedOps.Load(),
		Aborts:     sh.aborts.Load(),
		Absorbed:   sh.absorbed.Load(),
		Committed:  sh.committed.Load(),

		AbsorbThresholdCommits: sh.absorbThresholdC.Load(),
		AbsorbDeadlineCommits:  sh.absorbDeadlineC.Load(),
		AsyncFlushes:           sh.flushAsync.Load(),
		DrainedFlushes:         sh.flushDrained.Load(),
		Barriers:               sh.flushBarriers.Load(),
		PipeBatches:            sh.pipeBatches.Load(),
		PipeBatchLines:         sh.pipeLines.Load(),
		PipeBatchMax:           sh.pipeBatchMax.Load(),
		PipeEpochs:             sh.pipeEpochs.Load(),
		PipeDepthMax:           sh.pipeDepthMax.Load(),
		PipeStalls:             sh.pipeStalls.Load(),
		PipeStallNanos:         sh.pipeStallNs.Load(),
		PipeAwaitNanos:         sh.pipeAwaitNs.Load(),

		Checkpoints:       sh.ckpts.Load(),
		CheckpointSkipped: sh.ckptSkipped.Load(),
		CheckpointPairs:   sh.ckptPairs.Load(),
		CheckpointLastGen: sh.ckptLastGen.Load(),
		JournalOps:        sh.jrnOps.Load(),
		JournalTruncated:  sh.jrnTruncated.Load(),
		JournalOverflows:  sh.jrnOverflows.Load(),
		RecoveryMode:      sh.recMode.Load(),
		RecoveryFallbacks: sh.recFallbacks.Load(),
		RecoveryRestored:  sh.recRestored.Load(),
		RecoveryReplayed:  sh.recReplayed.Load(),
	}
	if ctrl := sh.st.ctrl; ctrl != nil {
		g := ctrl.Gauges(sh.id)
		st.AdaptiveCap = g.Capacity
		st.AdaptiveLast = g.LastSeq
		st.AdaptiveResizes = g.Resizes
		st.AdaptiveSample = g.Sampled
	}
	sh.latMu.Lock()
	lats := append([]float64(nil), sh.lats...)
	sh.latMu.Unlock()
	if len(lats) > 0 {
		sort.Float64s(lats)
		st.CommitP50 = percentile(lats, 0.50)
		st.CommitP99 = percentile(lats, 0.99)
	}
	return st
}

// percentile reads the p-quantile from sorted samples (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Stats snapshots every shard's instrumentation.
func (s *Store) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.stats()
	}
	return out
}

// StripeStats snapshots the heap's per-stripe lock counters: the residual
// cross-shard serialization of the sharded dirty-state control plane
// (shard writers own disjoint lines, so contention here is hash collisions
// on stripes, not data conflicts). Exported through the server's STATS
// verb.
func (s *Store) StripeStats() []pmem.StripeStat { return s.heap.StripeStats() }

// StripeSummary aggregates the heap's stripe counters.
func (s *Store) StripeSummary() pmem.StripeSummary {
	return pmem.SummarizeStripes(s.heap.StripeStats())
}

// Totals aggregates shard stats (percentiles are the max across shards —
// the service-level tail).
func Totals(stats []ShardStats) ShardStats {
	var t ShardStats
	t.Shard = -1
	for _, st := range stats {
		t.Puts += st.Puts
		t.Deletes += st.Deletes
		t.Incrs += st.Incrs
		t.Decrs += st.Decrs
		t.Gets += st.Gets
		t.Scans += st.Scans
		t.Batches += st.Batches
		t.BatchedOps += st.BatchedOps
		t.Aborts += st.Aborts
		t.Absorbed += st.Absorbed
		t.Committed += st.Committed
		t.AbsorbThresholdCommits += st.AbsorbThresholdCommits
		t.AbsorbDeadlineCommits += st.AbsorbDeadlineCommits
		t.AsyncFlushes += st.AsyncFlushes
		t.DrainedFlushes += st.DrainedFlushes
		t.Barriers += st.Barriers
		t.PipeBatches += st.PipeBatches
		t.PipeBatchLines += st.PipeBatchLines
		t.PipeEpochs += st.PipeEpochs
		t.PipeStalls += st.PipeStalls
		t.PipeStallNanos += st.PipeStallNanos
		t.PipeAwaitNanos += st.PipeAwaitNanos
		if st.PipeBatchMax > t.PipeBatchMax {
			t.PipeBatchMax = st.PipeBatchMax
		}
		if st.PipeDepthMax > t.PipeDepthMax {
			t.PipeDepthMax = st.PipeDepthMax
		}
		t.AdaptiveCap += st.AdaptiveCap
		t.AdaptiveResizes += st.AdaptiveResizes
		t.AdaptiveSample += st.AdaptiveSample
		if st.AdaptiveLast > t.AdaptiveLast {
			t.AdaptiveLast = st.AdaptiveLast
		}
		t.Checkpoints += st.Checkpoints
		t.CheckpointSkipped += st.CheckpointSkipped
		t.CheckpointPairs += st.CheckpointPairs
		t.JournalOps += st.JournalOps
		t.JournalTruncated += st.JournalTruncated
		t.JournalOverflows += st.JournalOverflows
		t.RecoveryFallbacks += st.RecoveryFallbacks
		t.RecoveryRestored += st.RecoveryRestored
		t.RecoveryReplayed += st.RecoveryReplayed
		if st.CheckpointLastGen > t.CheckpointLastGen {
			t.CheckpointLastGen = st.CheckpointLastGen
		}
		if st.RecoveryMode > t.RecoveryMode {
			t.RecoveryMode = st.RecoveryMode
		}
		t.CommitP50 = math.Max(t.CommitP50, st.CommitP50)
		t.CommitP99 = math.Max(t.CommitP99, st.CommitP99)
	}
	return t
}
