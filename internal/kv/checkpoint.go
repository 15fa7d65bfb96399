package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/mdb"
	"nvmcache/internal/pmem"
)

// Bounded-time recovery. A store recovered from the undo logs alone is
// correct but pays O(history) nothing — the tree is already durable — yet a
// store that must *re-verify* or rebuild state (and the paper's Atlas
// baseline, which replays logs) pays time proportional to what the logs
// cover. This file bounds that: each shard periodically publishes a
// consistent snapshot of its tree into a double-buffered checkpoint region
// (pmem.CheckpointRegion), keeps a persistent redo journal of every
// committed logical write, and truncates the journal to what the
// second-newest checkpoint still needs. Recovery then loads the newest
// valid image and replays only the short journal suffix behind it —
// work bounded by the checkpoint interval, not by the store's lifetime —
// with shards recovered in parallel by a bounded worker pool.
//
// Why a redo journal when atlas already has undo logs: the undo logs are
// truncated at every FASE commit (that is their point — they cover only
// the in-flight FASE), so they cannot provide a replay suffix. The journal
// is the missing piece: an append-only ring of the *logical* ops each
// committed batch applied, sealed inside the batch's own FASE so it
// advances exactly when the tree does and rolls back exactly when the
// tree does.
//
// Journal layout (per shard, all persistent):
//
//	jrn+0:   tail — logical index one past the last sealed entry (FASE word)
//	jrn+8:   gen  — tree generation as of the sealed tail (FASE word)
//	jrn+64:  head — logical index of the oldest entry recovery may need
//	jrn+72:  overflow — 1 while journaling is suspended (ring filled up)
//	jrn+80:  broken — 1 once the journal's [0,tail) range has a gap
//	jrn+128: entry ring, 24 bytes each: op, key, value
//
// tail and gen live on their own line and are written with atlas stores
// inside the committing FASE, so a crash rolls them back in lockstep with
// the tree (including under the overlapped pipeline: rollback is
// newest-log-first). head and the flags are maintenance state outside any
// FASE, written through. Entries are written through *before* the seal —
// write-ahead — so a sealed tail never points past durable entries; slots
// beyond tail may hold torn garbage, which recovery never reads.
//
// Checkpoint/journal consistency: an image published with meta
// (gen, jpos, epoch) asserts "the serialized tree is the committed state
// after journal entry jpos". Replaying entries [jpos, tail) over the image
// therefore reproduces the state at tail. Images are only published from
// the shard writer at settled points (no FASE open, no batch in flight),
// where tree, generation and tail are mutually consistent by construction.
//
// Truncation lags by one image: head advances to the *older* valid image's
// jpos, so even if the newest image is torn or rotted, the older image
// still has its full suffix and recovery falls back to it. Until a second
// checkpoint exists head stays 0 and the journal alone can rebuild the
// store from empty (the deepest fallback short of trusting the tree).
//
// Overflow: when a batch needs more ring slots than remain even after a
// forced checkpoint, the shard stops journaling (overflow=1), revokes both
// images (their suffixes can no longer be completed) and marks the journal
// broken (its [0,tail) range now has a gap forever). The next successful
// checkpoint is a full-state image: it sets head=tail, clears overflow and
// resumes journaling. broken never clears — it permanently disqualifies
// the full-replay-from-empty mode, whose range would cross the gap.
const (
	ckdMagic = 0x4e564d434b444952 // "NVMCKDIR"

	ckdShardsOff     = 8
	ckdJournalOpsOff = 16
	ckdMaxPairsOff   = 24
	ckdHdr           = 64
	ckdStride        = 16

	jrnTailOff     = 0
	jrnGenOff      = 8
	jrnHeadOff     = 64
	jrnOverflowOff = 72
	jrnBrokenOff   = 80
	jrnHdr         = 128
	jrnEntrySize   = 24

	jOpPut = 0
	jOpDel = 1

	// rebuildBatch is the FASE size recovery rebuilds with: large enough to
	// amortize page copies, small enough that one undo log always covers it.
	rebuildBatch = 256
)

// Recovery modes, reported per shard as the recovery_mode gauge.
const (
	// RecoveryModeNone: the heap has no checkpoint structures (legacy).
	RecoveryModeNone = iota
	// RecoveryModeLegacy: structures exist but none were usable; the
	// rolled-back tree is trusted as-is (exactly the legacy guarantee) and
	// a repair checkpoint re-establishes the bounded-recovery invariant.
	RecoveryModeLegacy
	// RecoveryModeCheckpoint: rebuilt from a checkpoint image plus the
	// journal suffix behind it — the bounded-time path.
	RecoveryModeCheckpoint
	// RecoveryModeJournal: no valid image yet; rebuilt from an empty tree
	// by replaying the whole journal (only possible while head==0 and the
	// journal has never gapped).
	RecoveryModeJournal
)

// CkptOp tells Options.CheckpointHook which checkpoint boundary the shard
// writer is about to cross; internal/faultinject numbers each as a
// crash-exploration site.
type CkptOp uint8

const (
	// CkptBegin fires before the tree snapshot is serialized.
	CkptBegin CkptOp = iota
	// CkptPage fires before each payload chunk of the image is persisted.
	CkptPage
	// CkptPublish fires immediately before the seal that makes the new
	// image valid.
	CkptPublish
	// CkptTruncate fires after the seal, before the journal head advances.
	CkptTruncate
)

func (op CkptOp) String() string {
	switch op {
	case CkptBegin:
		return "checkpoint-begin"
	case CkptPage:
		return "checkpoint-page"
	case CkptPublish:
		return "checkpoint-publish"
	case CkptTruncate:
		return "log-truncate"
	default:
		return fmt.Sprintf("ckpt-op-%d", op)
	}
}

// CheckpointConfig configures per-shard checkpointing and bounded-time
// recovery. Zero-valued numeric fields take defaults when Enabled.
type CheckpointConfig struct {
	// Enabled turns the subsystem on. A heap opened with checkpointing
	// keeps it on across recoveries (the persistent structures must stay
	// maintained); a legacy heap recovered with Enabled set is retrofitted.
	Enabled bool
	// Interval is the wall-clock checkpoint cadence (0 = no timer; the
	// batch-count trigger, explicit Checkpoint calls and journal pressure
	// still publish images).
	Interval time.Duration
	// IntervalBatches checkpoints after this many committed batches
	// (0 = no batch trigger).
	IntervalBatches int
	// JournalOps is the per-shard redo-journal ring capacity in entries
	// (default 4096, floor 4×MaxBatch). Persisted at Open; recovery adopts
	// the persistent value.
	JournalOps int
	// MaxPairs bounds the pairs one checkpoint image may hold (default
	// 4×PoolPages); a tree larger than this skips its checkpoint.
	// Persisted at Open; recovery adopts the persistent value.
	MaxPairs int
	// RecoverWorkers bounds the parallel shard-recovery pool
	// (default GOMAXPROCS). Runtime knob, not persisted.
	RecoverWorkers int
}

func (c CheckpointConfig) withDefaults(poolPages, maxBatch int) CheckpointConfig {
	if !c.Enabled {
		return c
	}
	if c.JournalOps <= 0 {
		c.JournalOps = 4096
	}
	if floor := 4 * maxBatch; c.JournalOps < floor {
		c.JournalOps = floor
	}
	if c.MaxPairs <= 0 {
		c.MaxPairs = 4 * poolPages
	}
	if c.RecoverWorkers <= 0 {
		c.RecoverWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// journal is the volatile handle on one shard's persistent redo ring.
// Mutated only by the shard writer (or, before the store starts, by the
// recovery worker that owns the shard).
type journal struct {
	h    *pmem.Heap
	base uint64
	cap  uint64

	tail, head       uint64 // mirrors of the persistent words
	overflow, broken bool
	staged           uint64 // entries appended but not yet sealed
}

func createJournal(h *pmem.Heap, capEntries int) (*journal, error) {
	base, err := h.AllocLines(jrnHdr + jrnEntrySize*uint64(capEntries))
	if err != nil {
		return nil, fmt.Errorf("kv: journal: %w", err)
	}
	for _, off := range []uint64{jrnTailOff, jrnGenOff, jrnHeadOff, jrnOverflowOff, jrnBrokenOff} {
		h.Write64Through(base+off, 0)
	}
	return &journal{h: h, base: base, cap: uint64(capEntries)}, nil
}

func attachJournal(h *pmem.Heap, base uint64, capEntries int) *journal {
	return &journal{
		h: h, base: base, cap: uint64(capEntries),
		tail:     h.ReadUint64(base + jrnTailOff),
		head:     h.ReadUint64(base + jrnHeadOff),
		overflow: h.ReadUint64(base+jrnOverflowOff) != 0,
		broken:   h.ReadUint64(base+jrnBrokenOff) != 0,
	}
}

func (j *journal) slot(idx uint64) uint64 { return j.base + jrnHdr + (idx%j.cap)*jrnEntrySize }

// hasRoom reports whether n more entries fit without overwriting the live
// [head, tail) range (staged-but-unsealed entries count as live).
func (j *journal) hasRoom(n int) bool { return j.tail-j.head+j.staged+uint64(n) <= j.cap }

// append stages one entry past the current tail, written through so it is
// durable before the seal that will cover it.
func (j *journal) append(op, k, v uint64) {
	s := j.slot(j.tail + j.staged)
	j.h.Write64Through(s, op)
	j.h.Write64Through(s+8, k)
	j.h.Write64Through(s+16, v)
	j.staged++
}

// seal covers the staged entries: tail and gen are atlas stores inside the
// caller's FASE, so a crash before the commit rolls the journal back in
// lockstep with the tree.
func (j *journal) seal(th *atlas.Thread, gen uint64) {
	th.Store64(j.base+jrnTailOff, j.tail+j.staged)
	th.Store64(j.base+jrnGenOff, gen)
	j.tail += j.staged
	j.staged = 0
}

// abort discards the staged entries (the FASE they were written ahead of
// rolled back; the slots beyond tail are garbage recovery never reads).
func (j *journal) abort() { j.staged = 0 }

func (j *journal) setHead(h uint64) {
	j.h.Write64Through(j.base+jrnHeadOff, h)
	j.head = h
}

func (j *journal) setOverflow() {
	j.h.Write64Through(j.base+jrnOverflowOff, 1)
	j.h.Write64Through(j.base+jrnBrokenOff, 1)
	j.overflow, j.broken = true, true
}

func (j *journal) clearOverflow() {
	j.h.Write64Through(j.base+jrnOverflowOff, 0)
	j.overflow = false
}

func (j *journal) genWord() uint64 { return j.h.ReadUint64(j.base + jrnGenOff) }

func (j *journal) entry(idx uint64) (op, k, v uint64) {
	s := j.slot(idx)
	return j.h.ReadUint64(s), j.h.ReadUint64(s + 8), j.h.ReadUint64(s + 16)
}

// shardCkpt bundles one shard's checkpoint state.
type shardCkpt struct {
	cfg    CheckpointConfig
	jrn    *journal
	region *pmem.CheckpointRegion
}

// setupCheckpoints creates the persistent checkpoint structures for every
// shard plus the directory that finds them again, publishing the directory
// address as the heap's aux root last — a crash mid-setup leaves aux 0 and
// the heap recovers as legacy (the partial structures are leaked, not
// consulted). broken marks journals whose range can never cover the
// pre-existing tree (the retrofit path).
func setupCheckpoints(h *pmem.Heap, cfg CheckpointConfig, shards int, broken bool) ([]*shardCkpt, error) {
	out := make([]*shardCkpt, shards)
	dir, err := h.AllocLines(uint64(ckdHdr + ckdStride*shards))
	if err != nil {
		return nil, fmt.Errorf("kv: checkpoint directory: %w", err)
	}
	for i := 0; i < shards; i++ {
		jrn, err := createJournal(h, cfg.JournalOps)
		if err != nil {
			return nil, err
		}
		if broken {
			jrn.h.Write64Through(jrn.base+jrnBrokenOff, 1)
			jrn.broken = true
		}
		region, err := pmem.NewCheckpointRegion(h, 16*uint64(cfg.MaxPairs))
		if err != nil {
			return nil, err
		}
		h.Write64Through(dir+ckdHdr+ckdStride*uint64(i), jrn.base)
		h.Write64Through(dir+ckdHdr+ckdStride*uint64(i)+8, region.Base())
		out[i] = &shardCkpt{cfg: cfg, jrn: jrn, region: region}
	}
	h.Write64Through(dir, ckdMagic)
	h.Write64Through(dir+ckdShardsOff, uint64(shards))
	h.Write64Through(dir+ckdJournalOpsOff, uint64(cfg.JournalOps))
	h.Write64Through(dir+ckdMaxPairsOff, uint64(cfg.MaxPairs))
	h.SetAux(dir)
	return out, nil
}

// openCheckpoints reattaches to the structures setupCheckpoints published,
// adopting the persistent geometry (JournalOps, MaxPairs) over whatever the
// caller configured.
func openCheckpoints(h *pmem.Heap, dir uint64, cfg CheckpointConfig, shards int) ([]*shardCkpt, CheckpointConfig, error) {
	if h.ReadUint64(dir) != ckdMagic {
		return nil, cfg, fmt.Errorf("kv: %d does not hold a checkpoint directory", dir)
	}
	if n := h.ReadUint64(dir + ckdShardsOff); n != uint64(shards) {
		return nil, cfg, fmt.Errorf("kv: checkpoint directory covers %d shards, store has %d", n, shards)
	}
	cfg.Enabled = true
	cfg.JournalOps = int(h.ReadUint64(dir + ckdJournalOpsOff))
	cfg.MaxPairs = int(h.ReadUint64(dir + ckdMaxPairsOff))
	if cfg.RecoverWorkers <= 0 {
		cfg.RecoverWorkers = runtime.GOMAXPROCS(0)
	}
	out := make([]*shardCkpt, shards)
	for i := 0; i < shards; i++ {
		jb := h.ReadUint64(dir + ckdHdr + ckdStride*uint64(i))
		rb := h.ReadUint64(dir + ckdHdr + ckdStride*uint64(i) + 8)
		region, err := pmem.OpenCheckpointRegion(h, rb)
		if err != nil {
			return nil, cfg, fmt.Errorf("kv: shard %d: %w", i, err)
		}
		out[i] = &shardCkpt{cfg: cfg, jrn: attachJournal(h, jb, cfg.JournalOps), region: region}
	}
	return out, cfg, nil
}

// serializeTree flattens the tree at root into the checkpoint payload
// format — 16-byte little-endian (key, value) pairs in key order. A tree
// with more than maxPairs pairs returns a nil buffer (checkpoint skipped).
func serializeTree(db *mdb.DB, root uint64, maxPairs int) ([]byte, int) {
	buf := make([]byte, 0, 4096)
	pairs := 0
	for c := db.Seek(root, 0); c.Valid(); c.Next() {
		if pairs >= maxPairs {
			return nil, pairs + 1
		}
		var kv [16]byte
		binary.LittleEndian.PutUint64(kv[0:], c.Key())
		binary.LittleEndian.PutUint64(kv[8:], c.Value())
		buf = append(buf, kv[:]...)
		pairs++
	}
	return buf, pairs
}

// publishImage serializes the tree and publishes it with meta
// (generation, journal position, undo epoch), firing the checkpoint hook at
// each durability boundary. Returns false (no error) when the tree exceeds
// the image capacity.
func publishImage(db *mdb.DB, ck *shardCkpt, hook func(CkptOp)) (published bool, pairs int, gen uint64, err error) {
	root, gen := db.Snapshot(), db.Generation()
	buf, pairs := serializeTree(db, root, ck.cfg.MaxPairs)
	if buf == nil {
		return false, pairs, gen, nil
	}
	_, err = ck.region.Publish(buf, [3]uint64{gen, ck.jrn.tail, atlas.CurrentSeq()},
		func(stage pmem.PublishStage, chunk int) {
			if hook == nil {
				return
			}
			if stage == pmem.StagePage {
				hook(CkptPage)
			} else {
				hook(CkptPublish)
			}
		})
	if err != nil {
		return false, pairs, gen, err
	}
	return true, pairs, gen, nil
}

// truncateAfterPublish advances the journal head after a successful
// publish. Coming out of overflow the fresh image is a full-state one, so
// the whole ring is released and journaling resumes; otherwise the head
// lags one image behind (the older valid image keeps its suffix intact so
// recovery can fall back to it). Returns the entries released.
func truncateAfterPublish(ck *shardCkpt, hook func(CkptOp)) uint64 {
	if hook != nil {
		hook(CkptTruncate)
	}
	j := ck.jrn
	if j.overflow {
		freed := j.tail - j.head
		j.setHead(j.tail)
		j.clearOverflow()
		return freed
	}
	if imgs := ck.region.Images(); len(imgs) == 2 {
		if nh := imgs[1].Meta[1]; nh > j.head {
			freed := nh - j.head
			j.setHead(nh)
			return freed
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// Shard-writer side: journaling inside the FASE, checkpoint scheduling.

// journalAppend stages the redo entry for one physical write the open FASE
// just applied. No-op while checkpointing is off or suspended by overflow.
func (sh *shard) journalAppend(op, k, v uint64) {
	if ck := sh.ckpt; ck != nil && !ck.jrn.overflow {
		ck.jrn.append(op, k, v)
	}
}

// journalSeal covers the staged entries inside the committing FASE. gen is
// the generation the commit is about to install (Generation()+1 — mdb
// bumps the meta word at commit).
func (sh *shard) journalSeal() {
	ck := sh.ckpt
	if ck == nil || ck.jrn.overflow || ck.jrn.staged == 0 {
		return
	}
	sh.jrnOps.Add(ck.jrn.staged)
	ck.jrn.seal(sh.th, sh.db.Generation()+1)
}

// journalAbort discards staged entries alongside the FASE abort.
func (sh *shard) journalAbort() {
	if ck := sh.ckpt; ck != nil {
		ck.jrn.abort()
	}
}

// ensureJournalRoom makes space for a batch's entries before its FASE
// opens: journal pressure forces a checkpoint (twice if need be — the
// lag-by-one truncation only releases the older image's suffix on the
// second publish), and a batch that still does not fit trips the overflow
// protocol: both images are revoked (their suffixes can never complete),
// the journal is marked broken, and journaling suspends until the next
// full-state checkpoint. Reports whether an injected crash ended the store.
func (sh *shard) ensureJournalRoom(need int) (crashed bool) {
	ck := sh.ckpt
	if ck == nil || ck.jrn.overflow {
		return false
	}
	for attempt := 0; attempt < 2 && !ck.jrn.hasRoom(need); attempt++ {
		published, crashed := sh.checkpointNow()
		if crashed {
			return true
		}
		if !published {
			break
		}
	}
	if !ck.jrn.hasRoom(need) {
		ck.region.Invalidate(0)
		ck.region.Invalidate(1)
		ck.jrn.setOverflow()
		sh.jrnOverflows.Add(1)
	}
	return false
}

// maybeCheckpoint publishes an image when a cadence trigger is due.
func (sh *shard) maybeCheckpoint() (crashed bool) {
	ck := sh.ckpt
	if ck == nil {
		return false
	}
	due := ck.cfg.IntervalBatches > 0 && sh.batchesSince >= ck.cfg.IntervalBatches
	if !due && ck.cfg.Interval > 0 && time.Since(sh.lastCkpt) >= ck.cfg.Interval {
		due = true
	}
	if !due {
		return false
	}
	_, crashed = sh.checkpointNow()
	return crashed
}

// serveCheckpoint handles one explicit Store.Checkpoint request. It always
// replies (the requester may be parked on an unbuffered handshake), even
// when the attempt ends in a crash.
func (sh *shard) serveCheckpoint(reply chan error) (crashed bool) {
	if sh.ckpt == nil {
		reply <- errors.New("kv: checkpointing disabled")
		return false
	}
	published, crashed := sh.checkpointNow()
	switch {
	case crashed:
		reply <- ErrCrashed
	case !published:
		reply <- errors.New("kv: checkpoint skipped (tree exceeds image capacity)")
	default:
		reply <- nil
	}
	return crashed
}

// checkpointNow settles any in-flight batch and publishes one checkpoint
// from the resulting quiescent point, where tree, generation and journal
// tail are mutually consistent. Runs only on the shard writer. An injected
// crash at any checkpoint boundary ends the store exactly as a power
// failure there would — everything up to the torn image is already
// durable, and the torn image was invalidated before a byte of it was
// written, so recovery falls back cleanly.
func (sh *shard) checkpointNow() (published bool, crashed bool) {
	ck := sh.ckpt
	if ck == nil {
		return false, false
	}
	if sh.settle() {
		return false, true
	}
	if sh.st.crashing.Load() {
		return false, true
	}
	sh.lastCkpt = time.Now()
	sh.batchesSince = 0
	var pairs int
	var gen uint64
	var perr error
	crashed = sh.crashedDuring(func() {
		if hook := sh.st.opts.CheckpointHook; hook != nil {
			hook(CkptBegin)
		}
		published, pairs, gen, perr = publishImage(sh.db, ck, sh.st.opts.CheckpointHook)
		if published {
			sh.jrnTruncated.Add(truncateAfterPublish(ck, sh.st.opts.CheckpointHook))
		}
	})
	if crashed {
		sh.st.initiateCrash(sh)
		return false, true
	}
	if !published || perr != nil {
		sh.ckptSkipped.Add(1)
		return false, false
	}
	sh.ckpts.Add(1)
	sh.ckptPairs.Store(uint64(pairs))
	sh.ckptLastGen.Store(gen)
	return true, false
}

// ---------------------------------------------------------------------------
// Recovery side.

// shardRecovery is what one recovery worker hands back.
type shardRecovery struct {
	ck                            *shardCkpt
	mode                          uint64
	fallbacks, replayed, restored uint64
}

// recoverShardCkpt brings one shard's tree to the recovered state using the
// cheapest trustworthy source, in fallback order: newest valid image +
// journal suffix, older valid image + longer suffix, full journal replay
// from empty, and finally the rolled-back tree itself (the legacy
// guarantee, still crash-consistent — atlas already rolled back any
// in-flight FASE). The legacy path publishes a repair image so the next
// crash recovers bounded again. Safe to re-run from any crash point:
// nothing here consumes or invalidates the sources it reads, and the
// rebuild starts by discarding whatever partial tree a previous attempt
// left.
func recoverShardCkpt(db *mdb.DB, ck *shardCkpt, rhook func(atlas.RecoverOp), chook func(CkptOp)) (shardRecovery, error) {
	r := shardRecovery{ck: ck}
	j := ck.jrn
	imgs := ck.region.Images()
	torn := 0
	for i := 0; i < 2; i++ {
		if ck.region.SlotSeq(i) != 0 {
			torn++
		}
	}
	torn -= len(imgs)

	if !j.overflow {
		for i := range imgs {
			jpos := imgs[i].Meta[1]
			if jpos >= j.head && jpos <= j.tail {
				r.mode = RecoveryModeCheckpoint
				r.fallbacks = uint64(torn + i)
				var err error
				r.restored, r.replayed, err = rebuildShard(db, j, &imgs[i], rhook)
				return r, err
			}
		}
		if j.head == 0 && !j.broken {
			r.mode = RecoveryModeJournal
			r.fallbacks = uint64(torn + len(imgs))
			var err error
			r.restored, r.replayed, err = rebuildShard(db, j, nil, rhook)
			return r, err
		}
	}

	// Legacy: trust the rolled-back tree (returning the pages the crash
	// leaked to its pool), then repair the invariant with a fresh
	// full-state image so the *next* recovery is bounded again.
	r.mode = RecoveryModeLegacy
	r.fallbacks = uint64(torn + len(imgs))
	if _, err := db.ReclaimLeaked(); err != nil {
		return r, err
	}
	published, _, _, err := publishImage(db, ck, chook)
	if err != nil {
		return r, err
	}
	if published {
		truncateAfterPublish(ck, chook)
	}
	return r, nil
}

// rebuildShard discards the crashed tree and reconstructs it from img (nil
// = start empty) plus the journal entries [img.jpos, tail). Work proceeds
// in FASE batches of rebuildBatch ops; the recovery hook fires before each
// batch (RecoverReplay) and before the final generation install
// (RecoverInstall), so crash exploration can cut the rebuild anywhere — a
// second recovery simply discards the partial tree and rebuilds again.
func rebuildShard(db *mdb.DB, j *journal, img *pmem.CheckpointImage, hook func(atlas.RecoverOp)) (restored, replayed uint64, err error) {
	if err := db.ResetForRebuild(); err != nil {
		return 0, 0, err
	}
	var start uint64
	targetGen := j.genWord()
	if img != nil {
		start = img.Meta[1]
		if start == j.tail {
			// Empty suffix: the journal's gen word may predate the image
			// (overflow-resume images cover un-journaled commits).
			targetGen = img.Meta[0]
		}
		for off := 0; off < len(img.Payload); off += 16 * rebuildBatch {
			if hook != nil {
				hook(atlas.RecoverReplay)
			}
			if err := db.Begin(); err != nil {
				return 0, 0, err
			}
			end := off + 16*rebuildBatch
			if end > len(img.Payload) {
				end = len(img.Payload)
			}
			for p := off; p+16 <= end; p += 16 {
				k := binary.LittleEndian.Uint64(img.Payload[p:])
				v := binary.LittleEndian.Uint64(img.Payload[p+8:])
				if err := db.Put(k, v); err != nil {
					_ = db.Abort()
					return 0, 0, err
				}
				restored++
			}
			if err := db.Commit(); err != nil {
				return 0, 0, err
			}
		}
	} else if j.tail == 0 {
		targetGen = 0
	}
	for idx := start; idx < j.tail; {
		if hook != nil {
			hook(atlas.RecoverReplay)
		}
		if err := db.Begin(); err != nil {
			return 0, 0, err
		}
		for n := 0; n < rebuildBatch && idx < j.tail; n++ {
			op, k, v := j.entry(idx)
			var werr error
			switch op {
			case jOpPut:
				werr = db.Put(k, v)
			case jOpDel:
				_, werr = db.Delete(k)
			default:
				werr = fmt.Errorf("kv: journal entry %d has unknown op %d", idx, op)
			}
			if werr != nil {
				_ = db.Abort()
				return 0, 0, werr
			}
			idx++
			replayed++
		}
		if err := db.Commit(); err != nil {
			return 0, 0, err
		}
	}
	if hook != nil {
		hook(atlas.RecoverInstall)
	}
	if err := db.ForceGeneration(targetGen); err != nil {
		return 0, 0, err
	}
	return restored, replayed, nil
}

// ---------------------------------------------------------------------------
// Store-level API.

// Checkpoint forces every shard to publish a checkpoint image now,
// returning once all are sealed and the journals are truncated. The
// request is served by each shard's writer at its next settled point, so
// the images are consistent committed states.
func (s *Store) Checkpoint() error {
	for _, sh := range s.shards {
		reply := make(chan error, 1)
		s.mu.RLock()
		if s.state != stateServing {
			st := s.state
			s.mu.RUnlock()
			if st == stateCrashed {
				return ErrCrashed
			}
			return ErrClosed
		}
		select {
		case sh.ckptCh <- reply:
			s.mu.RUnlock()
		case <-s.crashCh:
			s.mu.RUnlock()
			return ErrCrashed
		}
		select {
		case err := <-reply:
			if err != nil {
				return err
			}
		case <-s.crashCh:
			<-s.crashDone
			select {
			case err := <-reply:
				if err != nil {
					return err
				}
			default:
				return ErrCrashed
			}
		}
	}
	return nil
}

// CheckpointInfo exposes one shard's checkpoint state for tests and
// diagnostics. Read it only on a quiesced store (freshly recovered or
// closed); ok is false when checkpointing is disabled.
type CheckpointInfo struct {
	// Region is the shard's image region (tests corrupt images through it).
	Region *pmem.CheckpointRegion
	// JournalTail and JournalHead are the persistent ring bounds.
	JournalTail, JournalHead uint64
	// Overflow is set while journaling is suspended; Broken once the
	// journal's history has a permanent gap.
	Overflow, Broken bool
}

func (s *Store) CheckpointInfo(shard int) (CheckpointInfo, bool) {
	if shard < 0 || shard >= len(s.shards) {
		return CheckpointInfo{}, false
	}
	ck := s.shards[shard].ckpt
	if ck == nil {
		return CheckpointInfo{}, false
	}
	return CheckpointInfo{
		Region:      ck.region,
		JournalTail: s.heap.ReadUint64(ck.jrn.base + jrnTailOff),
		JournalHead: s.heap.ReadUint64(ck.jrn.base + jrnHeadOff),
		Overflow:    s.heap.ReadUint64(ck.jrn.base+jrnOverflowOff) != 0,
		Broken:      s.heap.ReadUint64(ck.jrn.base+jrnBrokenOff) != 0,
	}, true
}
