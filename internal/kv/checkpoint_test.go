package kv

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"nvmcache/internal/pmem"
)

// ckptOptions is the small deterministic store shape the checkpoint tests
// share: no timer and no batch trigger, so checkpoints happen exactly when
// a test asks for them.
func ckptOptions() Options {
	o := DefaultOptions()
	o.Shards = 2
	o.MaxBatch = 4
	o.MaxDelay = 200 * time.Microsecond
	o.PoolPages = 256
	o.LogEntries = 1 << 12
	o.Checkpoint = CheckpointConfig{
		Enabled:        true,
		JournalOps:     256,
		MaxPairs:       128,
		RecoverWorkers: 2,
	}
	return o
}

// seqPuts issues n single-op batches over a keys-wide space, one at a
// time, so the resulting heap state is deterministic.
func seqPuts(t *testing.T, s *Store, start, n, keys int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if err := s.Put(uint64(i%keys), 0xC0DE_0000+uint64(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

// wantAfterPuts mirrors seqPuts: the expected key→value state after ops
// [0, n) have been applied.
func wantAfterPuts(n, keys int) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for i := 0; i < n; i++ {
		m[uint64(i%keys)] = 0xC0DE_0000 + uint64(i)
	}
	return m
}

func checkState(t *testing.T, s *Store, want map[uint64]uint64, keys int) {
	t.Helper()
	for k := uint64(0); k < uint64(keys); k++ {
		got, found, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		wv, wf := want[k]
		if found != wf || (found && got != wv) {
			t.Fatalf("key %d: got (%#x, present=%v), want (%#x, present=%v)", k, got, found, wv, wf)
		}
	}
}

// TestCheckpointBoundedReplay is the tentpole's basic property: after a
// checkpoint, recovery restores the image and replays only the journal
// suffix written since — not the whole history.
func TestCheckpointBoundedReplay(t *testing.T) {
	opts := ckptOptions()
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	seqPuts(t, s, 0, 40, keys)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	tot := Totals(s.Stats())
	if tot.Checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2 (one per shard)", tot.Checkpoints)
	}
	if tot.CheckpointPairs == 0 || tot.CheckpointLastGen == 0 {
		t.Fatalf("checkpoint gauges unset: %+v", tot)
	}
	seqPuts(t, s, 40, 6, keys)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _, err := Recover(h, opts)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	rt := Totals(s2.Stats())
	if rt.RecoveryMode != RecoveryModeCheckpoint {
		t.Fatalf("recovery mode = %d, want %d (checkpoint)", rt.RecoveryMode, RecoveryModeCheckpoint)
	}
	if rt.RecoveryRestored == 0 {
		t.Fatalf("no pairs restored from images: %+v", rt)
	}
	// Only the 6 post-checkpoint ops may be replayed from the journal.
	if rt.RecoveryReplayed > 6 {
		t.Fatalf("replayed %d journal entries, want <= 6 (bounded suffix)", rt.RecoveryReplayed)
	}
	checkState(t, s2, wantAfterPuts(46, keys), keys)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointTornImageFallback corrupts the newest image of each shard
// (a torn checkpoint, as a crash mid-serialize would leave after losing
// its seal) and requires recovery to fall back to the older image with its
// longer journal suffix — exact state, fallbacks counted.
func TestCheckpointTornImageFallback(t *testing.T) {
	opts := ckptOptions()
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	seqPuts(t, s, 0, 20, keys)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seqPuts(t, s, 20, 20, keys)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seqPuts(t, s, 40, 5, keys)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < opts.Shards; shard++ {
		info, ok := s.CheckpointInfo(shard)
		if !ok {
			t.Fatalf("shard %d: no checkpoint info", shard)
		}
		if n := len(info.Region.Images()); n != 2 {
			t.Fatalf("shard %d: %d valid images before corruption, want 2", shard, n)
		}
		newest := 0
		if info.Region.SlotSeq(1) > info.Region.SlotSeq(0) {
			newest = 1
		}
		info.Region.FlipPayloadByte(newest, 3)
	}

	s2, _, err := Recover(h, opts)
	if err != nil {
		t.Fatalf("recover after corruption: %v", err)
	}
	rt := Totals(s2.Stats())
	if rt.RecoveryMode != RecoveryModeCheckpoint {
		t.Fatalf("recovery mode = %d, want %d (older image)", rt.RecoveryMode, RecoveryModeCheckpoint)
	}
	if rt.RecoveryFallbacks == 0 {
		t.Fatalf("corrupted newest images but no fallbacks counted: %+v", rt)
	}
	// The older image covers ops [0,20); everything after must come from
	// the journal suffix — 25 ops split across both shards.
	if rt.RecoveryReplayed == 0 || rt.RecoveryReplayed > 25 {
		t.Fatalf("replayed %d entries, want in (0, 25]", rt.RecoveryReplayed)
	}
	checkState(t, s2, wantAfterPuts(45, keys), keys)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAllImagesCorruptFullReplay corrupts every valid image
// while the journal still holds the full history (one checkpoint — the
// lag-by-one truncation rule keeps head at 0) and requires recovery to
// rebuild each shard from an empty tree by replaying the whole journal.
func TestCheckpointAllImagesCorruptFullReplay(t *testing.T) {
	opts := ckptOptions()
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	seqPuts(t, s, 0, 20, keys)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seqPuts(t, s, 20, 5, keys)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < opts.Shards; shard++ {
		info, ok := s.CheckpointInfo(shard)
		if !ok {
			t.Fatalf("shard %d: no checkpoint info", shard)
		}
		if info.JournalHead != 0 {
			t.Fatalf("shard %d: head %d after one checkpoint, lag-by-one should keep 0", shard, info.JournalHead)
		}
		for i := 0; i < 2; i++ {
			if info.Region.SlotSeq(i) != 0 {
				info.Region.FlipPayloadByte(i, 0)
			}
		}
	}

	s2, _, err := Recover(h, opts)
	if err != nil {
		t.Fatalf("recover with no valid image: %v", err)
	}
	rt := Totals(s2.Stats())
	if rt.RecoveryMode != RecoveryModeJournal {
		t.Fatalf("recovery mode = %d, want %d (full journal replay)", rt.RecoveryMode, RecoveryModeJournal)
	}
	if rt.RecoveryRestored != 0 {
		t.Fatalf("restored %d pairs with every image corrupt", rt.RecoveryRestored)
	}
	if rt.RecoveryReplayed != 25 {
		t.Fatalf("replayed %d entries, want all 25", rt.RecoveryReplayed)
	}
	checkState(t, s2, wantAfterPuts(25, keys), keys)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointOverflowDegradesToLegacy forces the journal into overflow
// (a one-pair image cap makes every checkpoint skip, so pressure can never
// be relieved) and checks the degraded contract: serving continues, the
// broken flag is permanent, and recovery falls back to trusting the
// committed tree — still losing nothing.
func TestCheckpointOverflowDegradesToLegacy(t *testing.T) {
	opts := ckptOptions()
	opts.MaxBatch = 1
	opts.Checkpoint.JournalOps = 4
	opts.Checkpoint.MaxPairs = 1
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 6
	seqPuts(t, s, 0, 30, keys)
	tot := Totals(s.Stats())
	if tot.JournalOverflows == 0 {
		t.Fatalf("4-entry journal never overflowed after 30 ops: %+v", tot)
	}
	if tot.CheckpointSkipped == 0 {
		t.Fatalf("one-pair image cap never skipped a checkpoint: %+v", tot)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	broken := 0
	for shard := 0; shard < opts.Shards; shard++ {
		if info, ok := s.CheckpointInfo(shard); ok && info.Broken {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("no shard carries the permanent broken flag after overflow")
	}

	s2, _, err := Recover(h, opts)
	if err != nil {
		t.Fatalf("recover overflowed store: %v", err)
	}
	// A shard still in overflow has no image and no usable journal: it must
	// take the legacy path. (A shard whose tree later shrank to one pair may
	// have cleared its overflow with a full-state image and legitimately
	// recover from it — broken only forbids trusting the journal's history.)
	legacies := 0
	for shard, st := range s2.Stats() {
		info, ok := s2.CheckpointInfo(shard)
		if !ok {
			t.Fatalf("shard %d: no checkpoint info", shard)
		}
		if info.Overflow && st.RecoveryMode != RecoveryModeLegacy {
			t.Fatalf("shard %d: overflowed but recovery mode = %d, want %d",
				shard, st.RecoveryMode, RecoveryModeLegacy)
		}
		if st.RecoveryMode == RecoveryModeLegacy {
			legacies++
		}
	}
	if legacies == 0 {
		t.Fatalf("no shard degraded to legacy recovery: %+v", Totals(s2.Stats()))
	}
	checkState(t, s2, wantAfterPuts(30, keys), keys)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverLegacyHeapUntouched is the backward-compatibility regression:
// recovering a cleanly-closed, un-checkpointed heap with checkpointing
// disabled takes exactly the pre-checkpoint code path — no directory, no
// journals, no images (the aux word stays zero), and the recovery is
// bit-deterministic: a byte-level clone of the heap recovers to a
// byte-identical image. (The heap is not literally unmodified — recovery
// rewrites each shard's page-pool free list — so determinism plus aux==0
// is the checkable contract.)
func TestRecoverLegacyHeapUntouched(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 2
	opts.MaxBatch = 4
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	seqPuts(t, s, 0, 24, 6)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Clone the closed heap byte for byte (it is drained: volatile and
	// persisted views agree), then recover original and clone side by side.
	h2 := pmem.New(int(h.Size()))
	h2.WriteBytes(0, h.ReadBytes(0, h.Size()))
	h2.Persist(0, h2.Size())

	recoverOne := func(h *pmem.Heap) {
		s, rep, err := Recover(h, opts)
		if err != nil {
			t.Fatalf("recover legacy heap: %v", err)
		}
		if rt := Totals(s.Stats()); rt.RecoveryMode != RecoveryModeNone {
			t.Fatalf("legacy recovery reported mode %d, want %d", rt.RecoveryMode, RecoveryModeNone)
		}
		if rep.FASEsRolledBack != 0 {
			t.Fatalf("clean heap rolled back %d FASEs", rep.FASEsRolledBack)
		}
		checkState(t, s, wantAfterPuts(24, 6), 6)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	recoverOne(h)
	recoverOne(h2)
	if h.Aux() != 0 || h2.Aux() != 0 {
		t.Fatalf("legacy recovery wrote the checkpoint directory (aux %#x, %#x)", h.Aux(), h2.Aux())
	}
	if !bytes.Equal(h.ReadBytes(0, h.Size()), h2.ReadBytes(0, h2.Size())) {
		for i := uint64(0); i < h.Size(); i++ {
			if h.ReadBytes(i, 1)[0] != h2.ReadBytes(i, 1)[0] {
				t.Fatalf("recovering identical legacy heaps diverged (first diff at offset %d)", i)
			}
		}
	}
}

// TestCheckpointRetrofit recovers a legacy heap with checkpointing
// requested: the directory is built, a first image of the existing state
// is published for every shard (recovery mode legacy, by definition — the
// tree was the only source), and the next recovery runs from checkpoints.
func TestCheckpointRetrofit(t *testing.T) {
	legacy := ckptOptions()
	legacy.Checkpoint = CheckpointConfig{}
	// Size the heap for the checkpointed shape plus slack: the retrofit
	// allocates the directory, journals and image regions on a heap whose
	// cursor already holds the legacy store.
	h := pmem.New(int(2 * RecommendedHeapBytes(ckptOptions())))
	s, err := Open(h, legacy)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 6
	seqPuts(t, s, 0, 24, keys)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h.Aux() != 0 {
		t.Fatal("legacy store published a checkpoint directory")
	}

	opts := ckptOptions()
	s2, _, err := Recover(h, opts)
	if err != nil {
		t.Fatalf("retrofit recover: %v", err)
	}
	rt := Totals(s2.Stats())
	if rt.RecoveryMode != RecoveryModeLegacy {
		t.Fatalf("retrofit recovery mode = %d, want %d", rt.RecoveryMode, RecoveryModeLegacy)
	}
	if h.Aux() == 0 {
		t.Fatal("retrofit did not publish the checkpoint directory")
	}
	for shard := 0; shard < opts.Shards; shard++ {
		info, ok := s2.CheckpointInfo(shard)
		if !ok {
			t.Fatalf("shard %d: no checkpoint info after retrofit", shard)
		}
		if len(info.Region.Images()) == 0 {
			t.Fatalf("shard %d: retrofit published no image", shard)
		}
	}
	checkState(t, s2, wantAfterPuts(24, keys), keys)
	seqPuts(t, s2, 24, 6, keys)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, _, err := Recover(h, opts)
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	if rt := Totals(s3.Stats()); rt.RecoveryMode != RecoveryModeCheckpoint {
		t.Fatalf("post-retrofit recovery mode = %d, want %d", rt.RecoveryMode, RecoveryModeCheckpoint)
	}
	checkState(t, s3, wantAfterPuts(30, keys), keys)
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelRecoveryConcurrentReads recovers many checkpointed shards
// with a bounded parallel worker pool, then immediately hammers the
// recovered store from concurrent readers (Stats, Get, Snapshot) and
// writers — the -race CI job turns this into a data-race proof for the
// recovery gauges and the handoff from recovery workers to serving shards.
func TestParallelRecoveryConcurrentReads(t *testing.T) {
	opts := ckptOptions()
	opts.Shards = 8
	opts.Checkpoint.RecoverWorkers = 4
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 64
	seqPuts(t, s, 0, 200, keys)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seqPuts(t, s, 200, 40, keys)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _, err := Recover(h, opts)
	if err != nil {
		t.Fatalf("parallel recover: %v", err)
	}
	if rt := Totals(s2.Stats()); rt.RecoveryMode != RecoveryModeCheckpoint {
		t.Fatalf("recovery mode = %d, want %d", rt.RecoveryMode, RecoveryModeCheckpoint)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 3 {
				case 0:
					_ = Totals(s2.Stats())
				case 1:
					if _, _, err := s2.Get(uint64(i % keys)); err != nil {
						t.Errorf("get: %v", err)
						return
					}
				default:
					snap, err := s2.Snapshot(i % opts.Shards)
					if err != nil {
						t.Errorf("snapshot: %v", err)
						return
					}
					snap.Release()
				}
			}
		}(c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Writer keys live far above the checked key space.
				if err := s2.Put((uint64(c)+1)<<32|uint64(i), uint64(i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	checkState(t, s2, wantAfterPuts(240, keys), keys)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointIntervalTimer lets the wall-clock trigger publish images
// with no explicit Checkpoint call and no batch trigger: an idle shard
// writer must wake up on its own cadence.
func TestCheckpointIntervalTimer(t *testing.T) {
	opts := ckptOptions()
	opts.Checkpoint.Interval = 5 * time.Millisecond
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	seqPuts(t, s, 0, 10, 4)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if Totals(s.Stats()).Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval timer never published a checkpoint")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
