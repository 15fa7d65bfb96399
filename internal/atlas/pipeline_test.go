package atlas

import (
	"bytes"
	"sync/atomic"
	"testing"

	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
	"nvmcache/internal/trace"
)

// pipelineHeapWorkload runs a deterministic single-thread FASE workload and
// returns the heap after a clean shutdown plus a simulated power cut: only
// state the runtime actually persisted survives.
func pipelineHeapWorkload(t *testing.T, cfg *core.PipelineConfig, overlapped bool) (*pmem.Heap, uint64) {
	t.Helper()
	h := pmem.New(1 << 22)
	opts := DefaultOptions()
	opts.Policy = core.SoftCacheOnline
	opts.DisableTrace = true
	opts.Pipeline = cfg
	rt := NewRuntime(h, opts)
	// Allocate the data region before the thread: the pipelined runtime
	// allocates an extra undo log per thread, which would shift the bump
	// allocator and make the images incomparable.
	const words = 1000
	base, err := h.AllocLines(words * 8)
	if err != nil {
		t.Fatal(err)
	}
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	var prev FASETicket
	havePrev := false
	for f := 0; f < 30; f++ {
		th.FASEBegin()
		for w := 0; w < 50; w++ {
			addr := base + uint64((f*13+w*7)%words)*8
			th.Store64(addr, uint64(f*1000+w+1))
		}
		if overlapped {
			tk := th.FASEPublish()
			if havePrev {
				th.FASEAwait(prev)
			}
			prev, havePrev = tk, true
		} else {
			th.FASEEnd()
		}
	}
	if havePrev {
		th.FASEAwait(prev)
	}
	rt.Close()
	if n := h.DirtyCount(); n != 0 {
		t.Fatalf("%d dirty lines after clean close", n)
	}
	h.Crash() // keep only the durable view; a clean close must lose nothing
	return h, base
}

// TestPipelinePersistedEquivalence is the end-to-end equivalence property:
// the identical workload run synchronously, through the async pipeline with
// plain FASEEnd, and through the overlapped publish/await protocol must
// leave byte-identical durable heap images after a clean close.
func TestPipelinePersistedEquivalence(t *testing.T) {
	hSync, base := pipelineHeapWorkload(t, nil, false)
	want := hSync.ReadBytes(base, 1000*8)
	nonzero := false
	for _, b := range want {
		if b != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("sync run persisted nothing")
	}
	variants := []struct {
		name       string
		cfg        *core.PipelineConfig
		overlapped bool
	}{
		{"pipeline-fase-end", &core.PipelineConfig{Depth: 64, BatchSize: 8}, false},
		{"pipeline-overlapped", &core.PipelineConfig{Depth: 64, BatchSize: 8}, true},
		{"pipeline-synchronous", &core.PipelineConfig{Synchronous: true, Depth: 64, BatchSize: 8}, false},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			h, b2 := pipelineHeapWorkload(t, v.cfg, v.overlapped)
			if b2 != base {
				t.Fatalf("allocator diverged: base %#x vs %#x", b2, base)
			}
			if got := h.ReadBytes(b2, 1000*8); !bytes.Equal(got, want) {
				t.Fatalf("durable image diverges from the synchronous baseline")
			}
		})
	}
}

// TestPipelineOverlapStats checks the overlapped protocol actually routes
// drains through epochs: publishes outnumber zero, batches form, and the
// awaited time is accounted.
func TestPipelineOverlapStats(t *testing.T) {
	h := pmem.New(1 << 22)
	opts := DefaultOptions()
	opts.Policy = core.SoftCacheOnline
	opts.DisableTrace = true
	opts.Pipeline = &core.PipelineConfig{Depth: 64, BatchSize: 8}
	rt := NewRuntime(h, opts)
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	base, err := h.AllocLines(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	var prev FASETicket
	havePrev := false
	for f := 0; f < 20; f++ {
		th.FASEBegin()
		for w := 0; w < 64; w++ {
			th.Store64(base+uint64((f*64+w)%1024)*64, uint64(f+w+1))
		}
		tk := th.FASEPublish()
		if havePrev {
			th.FASEAwait(prev)
		}
		prev, havePrev = tk, true
	}
	th.FASEAwait(prev)
	s := th.FlushStats()
	if s.PipeEpochs < 20 {
		t.Fatalf("epochs %d, want >= 20 (one per published FASE)", s.PipeEpochs)
	}
	if s.PipeBatches == 0 || s.PipeBatchLines == 0 {
		t.Fatalf("no batches formed: %+v", s)
	}
	if th.Pipeline() == nil {
		t.Fatal("Pipeline() accessor returned nil with pipeline enabled")
	}
	rt.Close()
}

// countingWrapper is fault-injection-style middleware over the pmem sink
// that does not implement core.CaptureSink: a pipeline above it can only
// hand the worker line addresses, and pmem would read those lines from the
// volatile plane the mutator is storing to.
type countingWrapper struct {
	core.FlushSink
	calls atomic.Int64
}

func (w *countingWrapper) FlushLine(line trace.LineAddr) {
	w.calls.Add(1)
	w.FlushSink.FlushLine(line)
}

func (w *countingWrapper) Drain(lines []trace.LineAddr) {
	w.calls.Add(1)
	w.FlushSink.Drain(lines)
}

// TestPipelineNonCaptureWrapperRunsInline wraps the pmem sink in a sink
// that cannot capture and overlaps FASEs through the pipeline. The runtime
// must run that thread's pipeline inline: every published epoch is already
// persisted when FASEPublish returns, -race sees no worker reading a line
// the mutator writes, and the durable image matches the synchronous run.
func TestPipelineNonCaptureWrapperRunsInline(t *testing.T) {
	hSync, base := pipelineHeapWorkload(t, nil, false)
	want := hSync.ReadBytes(base, 1000*8)

	h := pmem.New(1 << 22)
	opts := DefaultOptions()
	opts.Policy = core.SoftCacheOnline
	opts.DisableTrace = true
	opts.Pipeline = &core.PipelineConfig{Depth: 8, BatchSize: 4}
	var wrapped *countingWrapper
	opts.WrapSink = func(_ int32, inner core.FlushSink) core.FlushSink {
		wrapped = &countingWrapper{FlushSink: inner}
		return wrapped
	}
	rt := NewRuntime(h, opts)
	b2, err := h.AllocLines(1000 * 8)
	if err != nil {
		t.Fatal(err)
	}
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	var prev FASETicket
	for f := 0; f < 30; f++ {
		th.FASEBegin()
		for w := 0; w < 50; w++ {
			th.Store64(b2+uint64((f*13+w*7)%1000)*8, uint64(f*1000+w+1))
		}
		tk := th.FASEPublish()
		if got, pub := th.Pipeline().Persisted(), th.FlushStats().PipeEpochs; int64(got) != pub {
			t.Fatalf("FASE %d: epoch %d persisted of %d published: the pipeline is not inline", f, got, pub)
		}
		if f > 0 {
			th.FASEAwait(prev)
		}
		prev = tk
	}
	th.FASEAwait(prev)
	rt.Close()
	if wrapped.calls.Load() == 0 {
		t.Fatal("nothing reached the wrapped sink")
	}
	h.Crash()
	if b2 != base {
		t.Fatalf("allocator diverged: base %#x vs %#x", b2, base)
	}
	if !bytes.Equal(h.ReadBytes(b2, 1000*8), want) {
		t.Fatal("durable image diverges from the synchronous baseline")
	}
}
