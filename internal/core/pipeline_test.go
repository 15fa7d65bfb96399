package core

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"nvmcache/internal/trace"
)

// pipelineWorkload drives a deterministic single-thread store stream with
// cross-FASE line reuse through a policy: enough distinct lines to force
// evictions (async flushes) and enough FASEs to exercise many drains.
func pipelineWorkload(p Policy) {
	for f := 0; f < 50; f++ {
		p.FASEBegin()
		for i := 0; i < 40; i++ {
			p.Store(trace.LineAddr((f*7 + i*3) % 96))
		}
		p.FASEEnd()
	}
	p.Finish()
}

func sortedLines(ls []trace.LineAddr) []trace.LineAddr {
	out := append([]trace.LineAddr{}, ls...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestPipelineEquivalence is the sync/async equivalence property: the same
// workload run against a bare sink, a synchronous pipeline and a real
// (background-worker) pipeline must produce identical Async/Drained/Barriers
// totals and the identical multiset of persisted lines. The pipeline
// reorders nothing it is allowed to keep and drops nothing.
func TestPipelineEquivalence(t *testing.T) {
	for _, kind := range []PolicyKind{Eager, Lazy, AtlasTable, SoftCacheOnline} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(mode string) (FlushStats, []trace.LineAddr) {
				inner := &RecordingSink{}
				var sink FlushSink = inner
				var pipe *FlushPipeline
				switch mode {
				case "sync-pipe":
					pipe = NewFlushPipeline(inner, PipelineConfig{Synchronous: true, Depth: 32, BatchSize: 8})
					sink = pipe
				case "async-pipe":
					pipe = NewFlushPipeline(inner, PipelineConfig{Depth: 32, BatchSize: 8})
					sink = pipe
				}
				pipelineWorkload(NewPolicy(kind, DefaultConfig(), sink))
				if pipe != nil {
					pipe.Close()
				}
				return inner.Stats(), sortedLines(inner.AllLines())
			}
			baseStats, baseLines := run("bare")
			if baseStats.Total() == 0 {
				t.Fatalf("workload produced no flushes under %v", kind)
			}
			for _, mode := range []string{"sync-pipe", "async-pipe"} {
				s, lines := run(mode)
				if s.Async != baseStats.Async || s.Drained != baseStats.Drained || s.Barriers != baseStats.Barriers {
					t.Errorf("%s counts diverge: async/drained/barriers %d/%d/%d, bare %d/%d/%d",
						mode, s.Async, s.Drained, s.Barriers,
						baseStats.Async, baseStats.Drained, baseStats.Barriers)
				}
				if !reflect.DeepEqual(lines, baseLines) {
					t.Errorf("%s persisted-line multiset diverges: %d lines vs bare %d",
						mode, len(lines), len(baseLines))
				}
			}
		})
	}
}

// TestPipelineConcurrentAwait exercises the cross-goroutine await contract
// under the race detector: several goroutines block on a future epoch while
// the owner keeps enqueueing and publishing; all must be released once that
// epoch persists.
func TestPipelineConcurrentAwait(t *testing.T) {
	inner := NewCountingSink(nil)
	p := NewFlushPipeline(inner, PipelineConfig{Depth: 16, BatchSize: 4})
	const epochs = 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Await(Epoch(epochs))
		}()
	}
	var last Epoch
	for i := 0; i < epochs; i++ {
		p.FlushLine(trace.LineAddr(i % 32))
		last = p.Publish([]trace.LineAddr{trace.LineAddr(i % 7)})
	}
	wg.Wait()
	if got := p.Persisted(); got < last {
		t.Fatalf("awaiters released at persisted epoch %d < published %d", got, last)
	}
	p.Close()
	s := p.Stats()
	if s.PipeEpochs != epochs {
		t.Fatalf("epochs %d, want %d", s.PipeEpochs, epochs)
	}
	// One async line and one non-empty drain per iteration (a barrier is
	// only counted for an empty drain).
	if s.Async != epochs || s.Drained != epochs || s.Barriers != 0 {
		t.Fatalf("counts async=%d drained=%d barriers=%d, want %d/%d/0", s.Async, s.Drained, s.Barriers, epochs, epochs)
	}
}

// slowSink delays every inner-sink call so a small ring reliably fills.
type slowSink struct {
	CountingSink
	delay time.Duration
}

func (s *slowSink) FlushBatch(lines []trace.LineAddr) {
	time.Sleep(s.delay)
	s.CountingSink.FlushBatch(lines)
}

func (s *slowSink) Drain(lines []trace.LineAddr) {
	time.Sleep(s.delay)
	s.CountingSink.Drain(lines)
}

// TestPipelineBackpressure pins the bounded-stall property: with a slow
// inner sink and a tiny ring, enqueues must block (never drop), the stall
// is accounted, and every line still reaches the sink.
func TestPipelineBackpressure(t *testing.T) {
	inner := &slowSink{delay: 500 * time.Microsecond}
	p := NewFlushPipeline(inner, PipelineConfig{Depth: 8, BatchSize: 4})
	const lines = 64
	for i := 0; i < lines; i++ {
		p.FlushLine(trace.LineAddr(i))
	}
	p.Drain(nil)
	p.Close()
	s := p.Stats()
	if s.Async != lines {
		t.Fatalf("async flushes %d, want %d (backpressure must not drop lines)", s.Async, lines)
	}
	if s.PipeStalls == 0 || s.PipeStallNanos == 0 {
		t.Fatalf("no backpressure stalls recorded: %+v", s)
	}
	if s.PipeDepthMax == 0 || s.PipeDepthMax > 8 {
		t.Fatalf("depth watermark %d out of (0, 8]", s.PipeDepthMax)
	}
}

// gateSink parks the worker inside a drain until the gate opens.
type gateSink struct {
	CountingSink
	gate chan struct{}
}

func (s *gateSink) Drain(lines []trace.LineAddr) {
	<-s.gate
	s.CountingSink.Drain(lines)
}

// TestPipelineAbortReleasesAwaiters is the crash path: Abort must release a
// goroutine awaiting an epoch that will now never persist, and the epoch
// must indeed not be reported persisted afterwards.
func TestPipelineAbortReleasesAwaiters(t *testing.T) {
	gate := make(chan struct{})
	inner := &gateSink{gate: gate}
	p := NewFlushPipeline(inner, PipelineConfig{})
	e := p.Publish([]trace.LineAddr{1, 2, 3})
	awaitDone := make(chan struct{})
	go func() {
		p.Await(e)
		close(awaitDone)
	}()
	select {
	case <-awaitDone:
		t.Fatal("await returned while the drain was still gated")
	case <-time.After(20 * time.Millisecond):
	}
	abortDone := make(chan struct{})
	go func() {
		p.Abort()
		close(abortDone)
	}()
	select {
	case <-awaitDone: // released by the abort, not by persistence
	case <-time.After(5 * time.Second):
		t.Fatal("await not released by Abort")
	}
	close(gate) // let the parked worker finish so Abort can join it
	<-abortDone
	if !p.Aborted() {
		t.Fatal("pipeline not marked aborted")
	}
	if p.Persisted() != 0 {
		t.Fatalf("epoch %d reported persisted after abort", p.Persisted())
	}
}

// TestPipelineDeferredPublish covers the DeferNextDrain/TakeDeferred pair
// atlas routes FASEPublish through: the deferred drain publishes without
// awaiting, and a defer window with no drain still yields a usable epoch.
func TestPipelineDeferredPublish(t *testing.T) {
	inner := &RecordingSink{}
	p := NewFlushPipeline(inner, PipelineConfig{})
	p.DeferNextDrain()
	p.Drain([]trace.LineAddr{10, 11})
	e := p.TakeDeferred()
	if e == 0 {
		t.Fatal("deferred drain published no epoch")
	}
	p.Await(e)
	if got := sortedLines(inner.DrainLines); !reflect.DeepEqual(got, []trace.LineAddr{10, 11}) {
		t.Fatalf("drained %v, want [10 11]", got)
	}
	p.DeferNextDrain()
	e2 := p.TakeDeferred() // nothing drained while armed: bare epoch
	if e2 <= e {
		t.Fatalf("bare epoch %d not after %d", e2, e)
	}
	p.Await(e2)
	p.Close()
}
