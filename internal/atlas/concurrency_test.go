package atlas

import (
	"fmt"
	"sync"
	"testing"

	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
)

// Regression test for undo logging at the heap boundary: a store into the
// heap's final bytes must not read a full word past the end while logging
// old contents.
func TestStoreBytesAtHeapEnd(t *testing.T) {
	h := pmem.New(1 << 20)
	rt := NewRuntime(h, DefaultOptions())
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	end := h.Size()
	th.FASEBegin()
	th.StoreBytes(end-3, []byte{0x11, 0x22, 0x33}) // last 3 bytes of the heap
	th.FASEEnd()
	if got := th.LoadBytes(end-3, 3); got[0] != 0x11 || got[2] != 0x33 {
		t.Fatalf("tail store lost: %v", got)
	}
	// The logged old values must roll back correctly too.
	th.FASEBegin()
	th.StoreBytes(end-3, []byte{0xaa, 0xbb, 0xcc})
	if err := th.FASEAbort(); err != nil {
		t.Fatal(err)
	}
	if got := th.LoadBytes(end-3, 3); got[0] != 0x11 || got[2] != 0x33 {
		t.Fatalf("tail store rollback wrong: %v", got)
	}
}

func TestStoreBytesPastHeapEndPanics(t *testing.T) {
	h := pmem.New(1 << 20)
	rt := NewRuntime(h, DefaultOptions())
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range StoreBytes did not panic")
		}
	}()
	th.StoreBytes(h.Size()-3, []byte{1, 2, 3, 4})
}

// Pins Trace's multi-call semantics: every call is an independent snapshot
// of everything recorded so far, an open FASE appears as a sealed tail
// section of the snapshot only, and recording continues unaffected.
func TestTraceCalledRepeatedly(t *testing.T) {
	rt, th := newTestRuntime(t, core.Lazy)
	h := rt.Heap()
	a, _ := h.AllocLines(256)

	th.FASEBegin()
	th.Store64(a, 1)
	th.Store64(a+64, 2)
	th.FASEEnd()

	tr1 := rt.Trace()
	tr2 := rt.Trace()
	for i, tr := range []interface {
		NumFASEs() int
		NumWrites() int
	}{tr1.Threads[0], tr2.Threads[0]} {
		if tr.NumFASEs() != 1 || tr.NumWrites() != 2 {
			t.Fatalf("call %d: FASEs=%d writes=%d, want 1/2", i+1, tr.NumFASEs(), tr.NumWrites())
		}
	}

	// Mid-FASE snapshot: the open section is sealed in the copy...
	th.FASEBegin()
	th.Store64(a+128, 3)
	mid := rt.Trace().Threads[0]
	if mid.NumFASEs() != 2 || mid.NumWrites() != 3 {
		t.Fatalf("mid-FASE snapshot FASEs=%d writes=%d, want 2/3", mid.NumFASEs(), mid.NumWrites())
	}
	// ...and recording continues: the FASE keeps accumulating stores.
	th.Store64(a+192, 4)
	th.FASEEnd()
	rt.Close()
	final := rt.Trace().Threads[0]
	if final.NumFASEs() != 2 || final.NumWrites() != 4 {
		t.Fatalf("final FASEs=%d writes=%d, want 2/4", final.NumFASEs(), final.NumWrites())
	}
	if got := len(final.FASE(1)); got != 2 {
		t.Fatalf("second FASE has %d writes, want 2 (snapshot split the open FASE)", got)
	}
}

// Threads crash mid-FASE while other threads have committed: recovery must
// roll back exactly the in-flight FASEs. The mutators run concurrently so
// -race exercises the lock-free store path against Crash's all-stripe
// acquisition (after quiescence).
func TestConcurrentCrashRecovery(t *testing.T) {
	h := pmem.New(1 << 22)
	opts := DefaultOptions()
	opts.Policy = core.SoftCacheOnline
	rt := NewRuntime(h, opts)
	const nThreads = 4
	const words = 16
	bases := make([]uint64, nThreads)
	threads := make([]*Thread, nThreads)
	for i := range threads {
		var err error
		if threads[i], err = rt.NewThread(); err != nil {
			t.Fatal(err)
		}
		bases[i], _ = h.AllocLines(words * 8)
	}
	var wg sync.WaitGroup
	for i := 0; i < nThreads; i++ {
		wg.Add(1)
		go func(th *Thread, base uint64, id uint64) {
			defer wg.Done()
			// Commit a baseline, then leave a FASE in flight.
			th.FASEBegin()
			for w := uint64(0); w < words; w++ {
				th.Store64(base+w*8, id*100+w)
			}
			th.FASEEnd()
			th.FASEBegin()
			for w := uint64(0); w < words; w++ {
				th.Store64(base+w*8, 0xdead0000+w)
			}
			// Park mid-FASE (the goroutine simply returns; its FASE stays
			// open in the persistent log).
		}(threads[i], bases[i], uint64(i+1))
	}
	wg.Wait() // quiesce before the whole-heap crash
	h.Crash()
	rep, err := Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FASEsRolledBack != nThreads {
		t.Fatalf("rolled back %d FASEs, want %d", rep.FASEsRolledBack, nThreads)
	}
	for i := 0; i < nThreads; i++ {
		for w := uint64(0); w < words; w++ {
			if got := h.ReadUint64(bases[i] + w*8); got != uint64(i+1)*100+w {
				t.Fatalf("thread %d word %d = %d after recovery", i, w, got)
			}
		}
	}
	if err := h.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// FlushStats and Trace must be callable while mutators are storing — the
// read-mostly registry means they take no lock a mutator holds. Run with
// -race: FlushStats reads only atomic counters; Trace is exercised against
// quiesced threads elsewhere (TestTraceCalledRepeatedly).
func TestFlushStatsDuringMutation(t *testing.T) {
	h := pmem.New(1 << 22)
	opts := DefaultOptions()
	opts.DisableTrace = true
	rt := NewRuntime(h, opts)
	const nThreads = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < nThreads; i++ {
		th, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		base, _ := h.AllocLines(4096)
		wg.Add(1)
		go func(th *Thread, base uint64) {
			defer wg.Done()
			for f := 0; f < 200; f++ {
				th.FASEBegin()
				for w := uint64(0); w < 32; w++ {
					th.Store64(base+(w%512)*8, w)
				}
				th.FASEEnd()
			}
		}(th, base)
	}
	var observed core.FlushStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				observed = rt.FlushStats()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	_ = observed
	if rt.FlushStats().Total() == 0 {
		t.Fatal("no flushes counted")
	}
}

// BenchmarkParallelStores measures store-throughput scaling: g goroutines,
// one Thread each (policy SC), disjoint heap regions, FASEs of 64 stores.
// Under the old global heap mutex this flatlined at ~1× regardless of g;
// the sharded path must scale. The pipeline variants run the same workload
// with FASE-end drains handed to each thread's background flush worker.
func BenchmarkParallelStores(b *testing.B) {
	for _, mode := range []string{"sync", "pipeline"} {
		for _, g := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode, g), func(b *testing.B) {
				h := pmem.New(1 << 26)
				opts := DefaultOptions()
				opts.Policy = core.SoftCacheOnline
				opts.DisableTrace = true
				if mode == "pipeline" {
					opts.Pipeline = &core.PipelineConfig{}
				}
				rt := NewRuntime(h, opts)
				const regionWords = 1 << 13
				threads := make([]*Thread, g)
				bases := make([]uint64, g)
				for i := range threads {
					th, err := rt.NewThread()
					if err != nil {
						b.Fatal(err)
					}
					threads[i] = th
					if bases[i], err = h.AllocLines(regionWords * 8); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for i := 0; i < g; i++ {
					wg.Add(1)
					go func(th *Thread, base uint64) {
						defer wg.Done()
						for n := 0; n < b.N; n++ {
							if n%64 == 0 {
								th.FASEBegin()
							}
							off := uint64(n%regionWords) * 8
							th.Store64(base+off, uint64(n))
							if n%64 == 63 {
								th.FASEEnd()
							}
						}
						if th.InFASE() {
							th.FASEEnd()
						}
					}(threads[i], bases[i])
				}
				wg.Wait()
				b.StopTimer()
				rt.Close()
				b.ReportMetric(float64(b.N)*float64(g)/b.Elapsed().Seconds(), "stores/sec")
			})
		}
	}
}
