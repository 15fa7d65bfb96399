package kv

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmcache/internal/pmem"
)

// TestCrashMidFASEZeroAckedLoss injects a power failure in the middle of a
// shard's commit FASE while concurrent clients are writing, recovers, and
// checks the service contract both ways: every acked write survives, and
// every ErrCrashed write is fully rolled back (never half-applied).
func TestCrashMidFASEZeroAckedLoss(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 4
	opts.MaxBatch = 16
	opts.MaxDelay = time.Millisecond
	opts.CrashBeforeCommit = func(shard, batch, size int) bool {
		return shard == 0 && batch >= 2
	}
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	type ack struct {
		k, v uint64
	}
	ackedCh := make(chan ack, 1<<16)
	crashedCh := make(chan uint64, 1<<16)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			for i := uint64(0); i < 4000; i++ {
				k := c<<32 | i
				if err := s.Put(k, k+1); err != nil {
					if errors.Is(err, ErrCrashed) {
						crashedCh <- k
					}
					return
				}
				ackedCh <- ack{k, k + 1}
			}
		}(uint64(c))
	}
	wg.Wait()
	close(ackedCh)
	close(crashedCh)
	select {
	case <-s.Crashed():
	case <-time.After(10 * time.Second):
		t.Fatal("crash never took effect (hook not reached?)")
	}
	if s.Heap().Crashes() != 1 {
		t.Fatalf("heap crashed %d times", s.Heap().Crashes())
	}

	s2, rep, err := Recover(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep.FASEsRolledBack == 0 {
		t.Fatal("the injected mid-FASE batch left no active undo log")
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatalf("recovered tree corrupt: %v", err)
	}
	nacked, ncrashed := 0, 0
	for a := range ackedCh {
		nacked++
		if v, ok, err := s2.Get(a.k); err != nil || !ok || v != a.v {
			t.Fatalf("acked write %d lost after crash: %d,%v,%v", a.k, v, ok, err)
		}
	}
	for k := range crashedCh {
		ncrashed++
		if _, ok, _ := s2.Get(k); ok {
			t.Fatalf("ErrCrashed write %d is durable (half-committed batch?)", k)
		}
	}
	if nacked == 0 {
		t.Fatal("no writes acked before the crash")
	}
	t.Logf("acked=%d crashed=%d rolledBack=%d wordsRestored=%d",
		nacked, ncrashed, rep.FASEsRolledBack, rep.WordsRestored)

	// The recovered store keeps serving.
	if err := s2.Put(1<<60, 42); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s2.Get(1 << 60); !ok || v != 42 {
		t.Fatalf("post-recovery put lost: %d,%v", v, ok)
	}
}

// TestExternalCrash crashes from outside the writers (the coordinator
// path cmd/nvserver's self-test uses) under concurrent load, so a batch
// may be published but not yet settled when the power fails: its writes
// were never acked and recovery rolls it back.
func TestExternalCrash(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 2
	opts.MaxBatch = 8
	opts.MaxDelay = time.Millisecond
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	acked := map[uint64]uint64{}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				k := c<<32 | i
				if err := s.Put(k, k^0xabc); err != nil {
					return
				}
				mu.Lock()
				acked[k] = k ^ 0xabc
				mu.Unlock()
			}
		}(uint64(c))
	}
	time.Sleep(50 * time.Millisecond)
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := s.Crash(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("second crash: %v", err)
	}
	if _, _, err := s.Get(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Get on crashed store: %v", err)
	}
	if err := s.Put(1, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Put on crashed store: %v", err)
	}

	s2, _, err := Recover(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, v := range acked {
		if got, ok, err := s2.Get(k); err != nil || !ok || got != v {
			t.Fatalf("acked write %d lost: %d,%v,%v", k, got, ok, err)
		}
	}
	if len(acked) == 0 {
		t.Fatal("nothing acked before crash")
	}
}

// TestCrashLoopSoak crashes and recovers one store over and over in a heap
// of exactly RecommendedHeapBytes, with concurrent writers in flight at
// every crash, with checkpointing off and on. Every Recover reuses the
// undo logs the previous runtime registered and returns leaked pages to
// the pools, so from the first recovery on the registry
// (RecoveryReport.LogsScanned) and every shard's page pool stay the same
// size, and no cycle loses an acked write.
func TestCrashLoopSoak(t *testing.T) {
	const cycles = 100
	for _, mode := range []struct {
		name string
		ckpt bool
	}{{"plain", false}, {"checkpoint", true}} {
		t.Run(mode.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Shards = 2
			opts.MaxBatch = 8
			opts.MaxDelay = 100 * time.Microsecond
			opts.PoolPages = 256
			opts.LogEntries = 1 << 11
			if mode.ckpt {
				opts.Checkpoint = CheckpointConfig{Enabled: true, IntervalBatches: 8, JournalOps: 256, MaxPairs: 256}
			}
			const writers, keysPer = 4, 16
			h := pmem.New(int(RecommendedHeapBytes(opts)))
			s, err := Open(h, opts)
			if err != nil {
				t.Fatal(err)
			}
			// want holds each key's last acked value (writer w owns keys
			// [w*keysPer, (w+1)*keysPer)); maybe[w] is the write writer w
			// had in flight when the crash cut it off.
			want := make([]uint64, writers*keysPer)
			pairs := make([]Pair, 0, writers*keysPer)
			for k := range want {
				want[k] = uint64(k)
				pairs = append(pairs, Pair{K: uint64(k), V: uint64(k)})
			}
			if err := s.PutBatch(pairs); err != nil {
				t.Fatal(err)
			}
			var logs int
			var pool []int
			for c := 1; c <= cycles; c++ {
				maybe := make([]Pair, writers)
				// The crash lands once the writers have acked 24 puts.
				var acked atomic.Int64
				ready := make(chan struct{})
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; ; i++ {
							k := uint64(w*keysPer + i%keysPer)
							v := uint64(c)<<32 | uint64(i)<<8 | k
							maybe[w] = Pair{K: k, V: v}
							if err := s.Put(k, v); err != nil {
								if !errors.Is(err, ErrCrashed) {
									t.Errorf("cycle %d writer %d: %v", c, w, err)
								}
								return
							}
							want[k] = v
							maybe[w] = Pair{}
							if acked.Add(1) == 24 {
								close(ready)
							}
						}
					}(w)
				}
				select {
				case <-ready:
				case <-time.After(10 * time.Second):
					t.Fatalf("cycle %d: writers acked only %d puts", c, acked.Load())
				}
				if err := s.Crash(); err != nil {
					t.Fatal(err)
				}
				wg.Wait()
				s2, rep, err := Recover(h, opts)
				if err != nil {
					t.Fatalf("cycle %d: recover: %v", c, err)
				}
				s = s2
				remaining := make([]int, len(s.shards))
				for i, sh := range s.shards {
					remaining[i] = sh.db.PoolRemaining()
				}
				if c == 1 {
					logs, pool = rep.LogsScanned, remaining
				} else if rep.LogsScanned != logs || !slices.Equal(remaining, pool) {
					t.Fatalf("cycle %d: %d undo logs, pool remaining %v; cycle 1 had %d, %v",
						c, rep.LogsScanned, remaining, logs, pool)
				}
				for k, v := range want {
					got, ok, err := s.Get(uint64(k))
					if err != nil || !ok {
						t.Fatalf("cycle %d: key %d: %v, present=%v", c, k, err, ok)
					}
					if got != v {
						if m := maybe[k/keysPer]; m.K != uint64(k) || m.V != got {
							t.Fatalf("cycle %d: key %d = %#x, last acked %#x", c, k, got, v)
						}
						want[k] = got
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
