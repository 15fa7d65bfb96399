package faultinject

import (
	"testing"
	"time"
)

// pipeKinds are the flush-pipeline boundaries every kv sweep must cross:
// kv's only commit protocol publishes each batch through the pipeline, so
// a sweep without hand-off and epoch sites has lost the protocol's own
// crash windows. Per-batch sites (KindPipeBatch) need mid-FASE evictions,
// which only the resizing and evicting sweeps force.
var pipeKinds = []Kind{KindPipeEnqueue, KindPipeEpoch}

// evicting shrinks the store's write cache to one line, so every FASE that
// writes a second line evicts mid-FASE and hands that write-back to the
// flush pipeline as an asynchronous batch overlapped with the rest of the
// FASE: the overlap the commit protocol rests on, and the per-batch
// (pipe-batch) crash sites the default eight-line cache never reaches in
// these small workloads. The *Pipeline sweeps run their twin's shape
// under it.
func evicting(o KVOptions) KVOptions {
	o.Config.Knee.DefaultSize = 1
	return o
}

// requireKinds fails t for every kind the report enumerated no site of.
func requireKinds(t *testing.T, rep Report, what string, kinds ...Kind) {
	t.Helper()
	for _, k := range append(kinds, pipeKinds...) {
		if rep.Kinds[k] == 0 {
			t.Errorf("no %v sites in the %s: %v", k, what, rep)
		}
	}
}

// TestExploreKVExhaustive is the acceptance property for the whole
// subsystem: the kv group-commit workload enumerates well over 100
// distinct injection sites — undo appends, drain lines, the pipeline
// hand-off and epoch boundaries of the overlapped commit (publish batch N,
// apply batch N+1, settle), and the ack boundary at settle — every single
// one is crashed at and recovered from, and every recovery satisfies the
// service contract (acked writes durable with exact values, the nacked op
// rolled back — or, for ack-boundary crashes, committed untorn — tree
// invariants, heap consistency, empty dirty state).
func TestExploreKVExhaustive(t *testing.T) {
	o := DefaultKVOptions()
	if testing.Short() {
		// Still exhaustive — every enumerated site is explored — over a
		// slightly smaller op sequence so -race CI stays fast.
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV: %v\nreport: %v", err, rep)
	}
	if rep.Sites < 100 {
		t.Errorf("only %d sites enumerated, want >= 100", rep.Sites)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	requireKinds(t, rep, "group-commit path",
		KindUndoRecord, KindUndoPublish, KindUndoCommit, KindDrainLine, KindAck)
	t.Logf("%v", rep)
}

// TestExploreKVPipeline is the exhaustive sweep over the overlapped
// commit protocol with a one-line write cache: besides the hand-off and
// epoch boundaries, every mid-FASE eviction is an asynchronous write-back
// batch, and a crash at any of them — batch N published, batch N+1 half
// applied with its evictions in flight — loses no acked write and leaves
// zero dirty lines after recovery.
func TestExploreKVPipeline(t *testing.T) {
	o := evicting(DefaultKVOptions())
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(evicting): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	requireKinds(t, rep, "evicting group-commit path",
		KindUndoRecord, KindUndoCommit, KindDrainLine, KindPipeBatch, KindAck)
	t.Logf("%v", rep)
}

// TestExploreKVAbsorbThreshold is the exhaustive sweep for the logical
// write-absorption layer in its threshold shape: AbsorbThreshold=1 folds
// every counter op of the workload into its own net-delta commit, so the
// site space gains the merge, threshold-commit and absorb-ack boundaries —
// and every one of them, crashed at and recovered from, must lose no acked
// op (an absorb-ack crash commits the nacked op untorn, like an ack
// crash; a merge crash leaves nothing durable). Net-delta FASEs are
// published and settled like any batch, so the absorb-ack boundary sits in
// settle.
func TestExploreKVAbsorbThreshold(t *testing.T) {
	o := DefaultKVOptions()
	o.Absorb = true
	o.AbsorbThreshold = 1
	o.AbsorbDeadline = time.Second
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(absorb, threshold): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	requireKinds(t, rep, "absorbed group-commit path", KindAbsorbMerge, KindAbsorbThreshold,
		KindAbsorbAck, KindUndoRecord, KindDrainLine, KindAck)
	t.Logf("%v", rep)
}

// TestExploreKVAbsorbPipeline stacks absorption on the evicting cache:
// net-delta FASEs evict mid-FASE like any batch, so the absorption
// boundaries interleave with asynchronous write-back batches, and every
// site of the combined space holds the service contract.
func TestExploreKVAbsorbPipeline(t *testing.T) {
	o := evicting(DefaultKVOptions())
	o.Absorb = true
	o.AbsorbThreshold = 1
	o.AbsorbDeadline = time.Second
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(absorb, evicting): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	requireKinds(t, rep, "absorbed evicting path", KindAbsorbMerge, KindAbsorbThreshold,
		KindAbsorbAck, KindPipeBatch, KindAck)
	t.Logf("%v", rep)
}

// TestExploreKVAbsorbDeadline is the same sweep in the deadline shape: an
// unreachable threshold parks every counter op in the accumulator until
// the shard's deadline timer forces the net-delta commit, so the deferred
// ack path — park, timer wakeup, deadline-commit boundary, FASE, absorb
// ack — is what gets crashed at. The enumeration stays deterministic even
// if a slow run folds at plan time instead of at the timer: both paths
// cross the same boundary sequence.
func TestExploreKVAbsorbDeadline(t *testing.T) {
	o := DefaultKVOptions()
	o.Absorb = true
	o.AbsorbThreshold = 1 << 20
	o.AbsorbDeadline = 300 * time.Microsecond
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(absorb, deadline): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	requireKinds(t, rep, "deadline-absorbed path", KindAbsorbMerge, KindAbsorbDeadline, KindAbsorbAck)
	if rep.Kinds[KindAbsorbThreshold] != 0 {
		t.Errorf("threshold commits with an unreachable threshold: %v", rep)
	}
	t.Logf("%v", rep)
}

// TestExploreKVRandomAbsorb runs the seeded concurrent mode with
// absorption enabled: concurrent clients mixing puts and private-key
// increments, a small threshold and a short deadline so both commit
// triggers fire under load, crashes landing anywhere in the combined site
// space — every recovered state must satisfy the per-key prefix invariant
// for puts and counters alike.
func TestExploreKVRandomAbsorb(t *testing.T) {
	o := DefaultKVOptions()
	o.Absorb = true
	o.AbsorbThreshold = 2
	o.AbsorbDeadline = 200 * time.Microsecond
	o.Runs = 8
	if testing.Short() {
		o.Runs = 3
	}
	rep, err := ExploreKVRandom(o)
	if err != nil {
		t.Fatalf("ExploreKVRandom(absorb) (reproduce with -faultinject.seed=%d): %v\nreport: %v", rep.Seed, err, rep)
	}
	if rep.Runs != o.Runs || rep.Crashes+rep.Missed != rep.Runs {
		t.Errorf("run accounting broken: %v", rep)
	}
	t.Logf("%v", rep)
}

// TestExploreKVCatchesDroppedDrains is the kv-level negative control: the
// flush-after-ack double must make some crash run's recovery fail the
// service contract.
func TestExploreKVCatchesDroppedDrains(t *testing.T) {
	o := DefaultKVOptions()
	o.Ops, o.Keys = 6, 2
	o.Middleware = DropDrains
	rep, err := ExploreKV(o)
	if err == nil {
		t.Fatalf("dropped drains went undetected: %v", rep)
	}
	t.Logf("caught as expected: %v", err)
}

// TestExploreKVRandom runs the seeded concurrent mode: schedules and crash
// sites drawn from one PCG stream (-faultinject.seed to override), misses
// allowed and tallied, every run verified. Crashes can land with one batch
// in flight and its successor mid-FASE (both undo logs active, rolled back
// newest-first at recovery).
func TestExploreKVRandom(t *testing.T) {
	o := DefaultKVOptions()
	o.Runs = 8
	if testing.Short() {
		o.Runs = 3
	}
	rep, err := ExploreKVRandom(o)
	if err != nil {
		t.Fatalf("ExploreKVRandom (reproduce with -faultinject.seed=%d): %v\nreport: %v", rep.Seed, err, rep)
	}
	if rep.Runs != o.Runs || rep.Crashes+rep.Missed != rep.Runs {
		t.Errorf("run accounting broken: %v", rep)
	}
	t.Logf("%v", rep)
}

// TestExploreKVRandomPipeline runs the seeded concurrent mode with a
// one-line write cache: concurrent clients, crashes that can land with
// one batch in flight, its successor mid-FASE and that successor's
// evictions queued in the flush pipeline (both logs active, rolled back
// newest-first at recovery).
func TestExploreKVRandomPipeline(t *testing.T) {
	o := evicting(DefaultKVOptions())
	o.Runs = 8
	if testing.Short() {
		o.Runs = 3
	}
	rep, err := ExploreKVRandom(o)
	if err != nil {
		t.Fatalf("ExploreKVRandom(evicting) (reproduce with -faultinject.seed=%d): %v\nreport: %v", rep.Seed, err, rep)
	}
	if rep.Runs != o.Runs || rep.Crashes+rep.Missed != rep.Runs {
		t.Errorf("run accounting broken: %v", rep)
	}
	t.Logf("%v", rep)
}

// TestExploreKVResize sweeps the resize-at-FASE-end seam: capacity requests
// cycling shrink→grow→shrink are published between ops and applied at the
// next FASE end before its drain, so the shrink's forced evictions are
// enumerated as ordinary write-back sites. A crash at any of them — mid-
// resize, with part of the evicted set persisted, or at a hand-off or
// epoch boundary around it — must lose no acked write.
func TestExploreKVResize(t *testing.T) {
	o := DefaultKVOptions()
	o.ResizeEvery = 2
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(resize): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	requireKinds(t, rep, "resizing path", KindDrainLine, KindPipeBatch)
	base, err := ExploreKV(func() KVOptions {
		b := DefaultKVOptions()
		if testing.Short() {
			b.Ops, b.Keys = 7, 3
		}
		return b
	}())
	if err != nil {
		t.Fatalf("ExploreKV(baseline): %v", err)
	}
	// The shrink to capacity 1 forces evictions the static run never pays.
	// They leave the FASE-end drain and become pipeline hand-offs and
	// async batches, so resizing must add sites of exactly those kinds.
	for _, k := range []Kind{KindPipeEnqueue, KindPipeBatch} {
		if rep.Kinds[k] <= base.Kinds[k] {
			t.Errorf("resizing enumerated %d %v sites, static %d — no resize-driven crash sites",
				rep.Kinds[k], k, base.Kinds[k])
		}
	}
	t.Logf("resize sweep %v vs static %v", rep, base)
}

// TestExploreKVResizePipeline runs the same resize schedule from a
// one-line write cache, so the growth step turns mid-FASE evictions back
// into FASE-end drain lines and the shrinks turn them into pipeline
// batches again; every hand-off, batch and epoch boundary around each
// resize is crashed at and recovered from.
func TestExploreKVResizePipeline(t *testing.T) {
	o := evicting(DefaultKVOptions())
	o.ResizeEvery = 2
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(resize, evicting): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	requireKinds(t, rep, "evicting resizing path", KindDrainLine, KindPipeBatch)
	t.Logf("%v", rep)
}

// TestExploreKVCheckpoint is the exhaustive sweep for the checkpoint
// pipeline: with per-shard checkpoints on and an explicit checkpoint after
// every second op, the site space gains the begin/serialize-page/publish
// seal/log-truncate boundaries (plus the journal-append write-throughs
// riding inside each FASE) — and every one of them, crashed at and
// recovered from, must lose no acked op. A publish crash must fall back to
// the previous image (or full journal replay), a truncate crash must leave
// the head where the older image still covers it. Journal seals ride the
// published FASEs and roll back newest-first with them; explicit
// checkpoints land at settled points between acked ops.
func TestExploreKVCheckpoint(t *testing.T) {
	o := DefaultKVOptions()
	o.CheckpointEvery = 2
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(checkpoint): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	requireKinds(t, rep, "checkpointed group-commit path", KindCkptBegin, KindCkptPage,
		KindCkptPublish, KindLogTruncate, KindUndoRecord, KindDrainLine, KindAck)
	t.Logf("%v", rep)
}

// TestExploreKVCheckpointPipeline stacks checkpointing on the evicting
// cache: journal seals ride FASEs whose evictions are in flight in the
// flush pipeline (and roll back newest-first with them), explicit
// checkpoints land at settled points between acked ops, and every site of
// the combined space holds the service contract.
func TestExploreKVCheckpointPipeline(t *testing.T) {
	o := evicting(DefaultKVOptions())
	o.CheckpointEvery = 2
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(checkpoint, evicting): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	requireKinds(t, rep, "checkpointed evicting path", KindCkptBegin, KindCkptPublish,
		KindLogTruncate, KindPipeBatch, KindAck)
	t.Logf("%v", rep)
}

// TestExploreKVRecovery crashes recovery itself: for a spread of serving
// crash shapes, every boundary the recovery crosses — rollbacks, rebuild
// flushes, replay batches, generation installs — gets its own run where
// kv.Recover is cut at exactly that point and a second, clean Recover must
// still converge to the exact acked state. This is the idempotence proof:
// a machine that loses power again while recovering recovers anyway.
// Recovery may find two undo logs live (a published batch and its
// overlapped successor) and must roll both back newest-first before the
// rebuild.
func TestExploreKVRecovery(t *testing.T) {
	o := DefaultKVOptions()
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKVRecovery(o)
	if err != nil {
		t.Fatalf("ExploreKVRecovery: %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Runs || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	requireKinds(t, rep, "recovery path", KindRecoverReplay, KindRecoverInstall)
	t.Logf("%v", rep)
}

// TestExploreKVRecoveryPipeline runs the same mid-recovery sweep over
// heaps crashed with a one-line write cache, where a crashed FASE's
// evictions may have reached the heap through the flush pipeline before
// its undo log committed: recovery must roll those lines back with the
// rest of the FASE, and stay idempotent when cut at any of its own sites.
func TestExploreKVRecoveryPipeline(t *testing.T) {
	o := evicting(DefaultKVOptions())
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKVRecovery(o)
	if err != nil {
		t.Fatalf("ExploreKVRecovery(evicting): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Runs || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	requireKinds(t, rep, "evicting recovery path", KindRecoverReplay, KindRecoverInstall)
	t.Logf("%v", rep)
}
