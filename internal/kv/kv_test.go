package kv

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmcache/internal/mdb"
	"nvmcache/internal/pmem"
)

func newStore(t *testing.T, opts Options) *Store {
	t.Helper()
	opts = opts.withDefaults()
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetDeleteAcrossShards(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 4
	opts.MaxDelay = time.Millisecond
	s := newStore(t, opts)
	const n = 500
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			errs[k] = s.Put(k, k*3)
		}(uint64(i))
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v,%v", k, v, ok, err)
		}
	}
	found, err := s.Delete(7)
	if err != nil || !found {
		t.Fatalf("Delete(7) = %v,%v", found, err)
	}
	if _, ok, _ := s.Get(7); ok {
		t.Fatal("key 7 survives delete")
	}
	if found, _ := s.Delete(7); found {
		t.Fatal("second delete found the key")
	}
	st := Totals(s.Stats())
	if st.Puts != n || st.Deletes != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Batches == 0 || st.BatchedOps != n+2 {
		t.Fatalf("batch stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reads still work on the closed (durably drained) store.
	if v, ok, err := s.Get(3); err != nil || !ok || v != 9 {
		t.Fatalf("Get after close = %d,%v,%v", v, ok, err)
	}
	// A clean shutdown recovers with nothing to roll back.
	s2, rep, err := Recover(s.Heap(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FASEsRolledBack != 0 {
		t.Fatalf("clean shutdown rolled back: %+v", rep)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get(3); !ok || v != 9 {
		t.Fatalf("recovered Get(3) = %d,%v", v, ok)
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitMaxBatchBound(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	opts.MaxBatch = 8
	opts.MaxDelay = time.Hour // only the size bound may trigger
	s := newStore(t, opts)
	defer s.Close()
	const n = 16 // exactly two full batches
	// Two waves of 8: a batch gathered while its predecessor is still in
	// flight takes only what is already queued, so each wave starts once
	// the previous batch has settled and the writer gathers with nothing in
	// flight, where only the size bound can close the batch.
	for wave := 0; wave < 2; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < n/2; i++ {
			wg.Add(1)
			go func(k uint64) {
				defer wg.Done()
				if err := s.Put(k, k); err != nil {
					t.Errorf("put %d: %v", k, err)
				}
			}(uint64(wave*n/2 + i))
		}
		wg.Wait() // acks arrived without any timer or shutdown: size-triggered
	}
	st := s.Stats()[0]
	if st.Batches != 2 || st.BatchedOps != n {
		t.Fatalf("want 2 full batches of 8, got batches=%d ops=%d", st.Batches, st.BatchedOps)
	}
	if st.AvgBatch() != 8 {
		t.Fatalf("avg batch %.2f, want 8", st.AvgBatch())
	}
}

func TestGroupCommitMaxDelayBound(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	opts.MaxBatch = 1 << 20 // unreachable: only the latency bound may trigger
	opts.MaxDelay = 20 * time.Millisecond
	s := newStore(t, opts)
	defer s.Close()
	start := time.Now()
	if err := s.Put(1, 10); err != nil { // a lone request can never fill a batch
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("latency-bound commit took %v", waited)
	}
	st := s.Stats()[0]
	if st.Batches != 1 || st.BatchedOps != 1 {
		t.Fatalf("stats after lone put: %+v", st)
	}
	if v, ok, _ := s.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
}

func TestShardRoutingDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7, 16} {
		hit := make([]int, shards)
		for k := uint64(0); k < 4096; k++ {
			i := ShardIndex(k, shards)
			if i < 0 || i >= shards {
				t.Fatalf("ShardIndex(%d,%d) = %d out of range", k, shards, i)
			}
			if j := ShardIndex(k, shards); j != i {
				t.Fatalf("ShardIndex(%d,%d) unstable: %d then %d", k, shards, i, j)
			}
			hit[i]++
		}
		for i, n := range hit {
			if n == 0 {
				t.Fatalf("%d shards: shard %d never hit", shards, i)
			}
		}
	}
	// The store routes with the same function it exports.
	opts := DefaultOptions()
	opts.Shards = 4
	opts.MaxDelay = time.Millisecond
	s := newStore(t, opts)
	defer s.Close()
	perShard := make([]uint64, 4)
	for k := uint64(0); k < 100; k++ {
		if s.ShardFor(k) != ShardIndex(k, 4) {
			t.Fatalf("ShardFor(%d) disagrees with ShardIndex", k)
		}
		perShard[s.ShardFor(k)]++
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range s.Stats() {
		if st.Puts != perShard[i] {
			t.Fatalf("shard %d served %d puts, want %d", i, st.Puts, perShard[i])
		}
	}
}

func TestGracefulShutdownDrainsPending(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 2
	opts.MaxBatch = 1 << 20
	opts.MaxDelay = time.Hour // nothing commits until shutdown
	s := newStore(t, opts)
	const n = 40
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			errs[k] = s.Put(k, k+100)
		}(uint64(i))
	}
	time.Sleep(300 * time.Millisecond) // let every request reach its shard queue
	if st := Totals(s.Stats()); st.Batches != 0 {
		t.Fatalf("batches committed before shutdown: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pending put %d not drained: %v", i, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		if v, ok, err := s.Get(k); err != nil || !ok || v != k+100 {
			t.Fatalf("Get(%d) after drain = %d,%v,%v", k, v, ok, err)
		}
	}
	if st := Totals(s.Stats()); st.BatchedOps != n {
		t.Fatalf("drained ops: %+v", st)
	}
	// New requests are refused after close.
	if err := s.Put(999, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
}

func TestPoolExhaustionShedsBatchAndKeepsServing(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	opts.PoolPages = 64 // tiny: exhausts mid-run
	opts.MaxDelay = time.Millisecond
	s := newStore(t, opts)
	defer s.Close()
	var exhausted error
	var acked []uint64
	for k := uint64(0); k < 10000; k++ {
		if err := s.Put(k, k); err != nil {
			exhausted = err
			break
		}
		acked = append(acked, k)
	}
	if exhausted == nil {
		t.Fatal("tiny pool never exhausted")
	}
	if !errors.Is(exhausted, mdb.ErrPoolExhausted) {
		t.Fatalf("error %v does not wrap mdb.ErrPoolExhausted", exhausted)
	}
	// The failed batch was aborted, not half-applied: everything acked is
	// still there and the store still serves reads.
	if st := Totals(s.Stats()); st.Aborts == 0 {
		t.Fatalf("no abort recorded: %+v", st)
	}
	for _, k := range acked {
		if v, ok, err := s.Get(k); err != nil || !ok || v != k {
			t.Fatalf("acked Get(%d) = %d,%v,%v after shed batch", k, v, ok, err)
		}
	}
}

// TestGaugeKeysAreStatsKeys pins the gauge set to the STATS schema: every
// key IsGauge names must be a key the shard line or the stripe line
// actually renders, so a renamed key cannot silently turn back into a
// diffed counter.
func TestGaugeKeysAreStatsKeys(t *testing.T) {
	rendered := make(map[string]bool)
	tokens := append(ShardStats{}.Pairs(), strings.Fields(pmem.StripeSummary{}.String())...)
	for _, tok := range tokens {
		k, _, _ := strings.Cut(tok, "=")
		rendered[k] = true
	}
	for k := range gaugeKeys {
		if !rendered[k] {
			t.Errorf("gauge key %q is not a STATS key", k)
		}
	}
	if IsGauge("puts") || !IsGauge("avg_batch") {
		t.Error("IsGauge misclassifies puts/avg_batch")
	}
}
