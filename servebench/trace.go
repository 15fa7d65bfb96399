package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/kv"
	"nvmcache/internal/server"
	"nvmcache/internal/trace"
)

// clock reads monotonic nanoseconds since the run began; every timestamp
// the driver and the tracer keep is on it.
type clock struct{ base time.Time }

func newClock() *clock { return &clock{base: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// Counters the traced run keeps at the program's public seams. Every one
// only grows, so a phase's figures are differences of two snapshots.
const (
	cConnReads   = iota // server conn Reads that returned data (WrapConn)
	cConnWrites         // server conn Writes, one per coalesced reply batch
	cConnWriteNs        // wall time inside those Writes
	cReqGet             // requests by verb (Stall)
	cReqPut
	cReqIncr
	cReqOther
	cAcks        // committed batches acked (AckHook)
	cUndoRecords // undo entries logged (UndoHook)
	cAsyncLines  // lines written back mid-FASE (FlushLine, FlushBatch)
	cAsyncNs     // wall time inside those calls
	cDrains      // FASE-end drains (Drain)
	cDrainLines  // lines those drains persisted
	cDrainNs     // wall time inside Drain
	nCounters
)

type counts [nCounters]int64

func (a counts) sub(b counts) counts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// span is one timed interval at a layer boundary. Client spans carry the
// request id; server- and engine-side spans carry none, because no public
// seam passes one, and are read in aggregate.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req,omitempty"`
}

// spanCap bounds the spans one phase keeps in memory; later ones are
// counted as dropped.
const spanCap = 8192

// spanLog is one phase's spans: the phase span itself and up to spanCap
// children, filled lock-free from any goroutine.
type spanLog struct {
	phase span
	buf   []span
	n     atomic.Int64
}

func (l *spanLog) add(name string, start, end, req int64) {
	if l == nil {
		return
	}
	i := l.n.Add(1) - 1
	if i < int64(len(l.buf)) {
		l.buf[i] = span{ID: l.phase.ID + int32(i) + 1, Parent: l.phase.ID, Name: name, Start: start, End: end, Req: req}
	}
}

// tracer instruments one server and store through the seams the program
// exposes: server.Options.WrapConn and Stall, kv.Options.AckHook, UndoHook
// and WrapSink. Spans stay in memory until writeSpans.
type tracer struct {
	clk  *clock
	ctr  [nCounters]atomic.Int64
	cur  atomic.Pointer[spanLog]
	logs []*spanLog
}

func newTracer(clk *clock) *tracer { return &tracer{clk: clk} }

// snap, begin, end and span do nothing on a nil tracer (an untraced run).
func (t *tracer) snap() counts {
	var c counts
	if t == nil {
		return c
	}
	for i := range c {
		c[i] = t.ctr[i].Load()
	}
	return c
}

// begin opens a phase span; spans recorded until end become its children.
func (t *tracer) begin(name string) *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{buf: make([]span, spanCap)}
	l.phase = span{ID: int32(len(t.logs)+1) << 20, Name: name, Start: t.clk.now()}
	t.logs = append(t.logs, l)
	t.cur.Store(l)
	return l
}

func (t *tracer) end(l *spanLog) {
	if t == nil {
		return
	}
	l.phase.End = t.clk.now()
	t.cur.CompareAndSwap(l, nil)
}

// span records a child of the current phase; req is 0 off the client.
func (t *tracer) span(name string, start, end, req int64) {
	if t != nil {
		t.cur.Load().add(name, start, end, req)
	}
}

func (t *tracer) serverOptions() server.Options {
	return server.Options{
		WrapConn: func(c net.Conn) net.Conn { return &tracedConn{Conn: c, t: t} },
		Stall: func(verb string) {
			switch verb {
			case "GET":
				t.ctr[cReqGet].Add(1)
			case "PUT":
				t.ctr[cReqPut].Add(1)
			case "INCR":
				t.ctr[cReqIncr].Add(1)
			default:
				t.ctr[cReqOther].Add(1)
			}
		},
	}
}

func (t *tracer) kvOptions(o kv.Options) kv.Options {
	o.AckHook = func(int) {
		t.ctr[cAcks].Add(1)
		now := t.clk.now()
		t.span("kv.ack", now, now, 0)
	}
	o.UndoHook = func(op atlas.UndoOp) {
		if op == atlas.UndoRecord {
			t.ctr[cUndoRecords].Add(1)
		}
	}
	o.WrapSink = func(_ int32, inner core.FlushSink) core.FlushSink {
		s := &tracedSink{FlushSink: inner, t: t}
		if b, ok := inner.(core.BatchSink); ok {
			return &tracedBatchSink{tracedSink: s, batch: b}
		}
		return s
	}
	return o
}

// tracedConn counts and times a server connection's socket calls.
type tracedConn struct {
	net.Conn
	t *tracer
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := c.t.clk.now()
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.t.ctr[cConnReads].Add(1)
		c.t.span("server.read", start, c.t.clk.now(), 0)
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.t.clk.now()
	n, err := c.Conn.Write(p)
	end := c.t.clk.now()
	c.t.ctr[cConnWrites].Add(1)
	c.t.ctr[cConnWriteNs].Add(end - start)
	c.t.span("server.write", start, end, 0)
	return n, err
}

// tracedSink counts and times a shard thread's flushes between its
// persistence policy (core) and the heap (pmem).
type tracedSink struct {
	core.FlushSink
	t *tracer
}

func (s *tracedSink) FlushLine(line trace.LineAddr) {
	start := s.t.clk.now()
	s.FlushSink.FlushLine(line)
	s.t.ctr[cAsyncNs].Add(s.t.clk.now() - start)
	s.t.ctr[cAsyncLines].Add(1)
}

func (s *tracedSink) Drain(lines []trace.LineAddr) {
	start := s.t.clk.now()
	s.FlushSink.Drain(lines)
	end := s.t.clk.now()
	s.t.ctr[cDrainNs].Add(end - start)
	s.t.ctr[cDrains].Add(1)
	s.t.ctr[cDrainLines].Add(int64(len(lines)))
	s.t.span("pmem.drain", start, end, 0)
}

// tracedBatchSink keeps the inner sink's batched write-back visible to
// policies that look for core.BatchSink.
type tracedBatchSink struct {
	*tracedSink
	batch core.BatchSink
}

func (s *tracedBatchSink) FlushBatch(lines []trace.LineAddr) {
	start := s.t.clk.now()
	s.batch.FlushBatch(lines)
	end := s.t.clk.now()
	s.t.ctr[cAsyncNs].Add(end - start)
	s.t.ctr[cAsyncLines].Add(int64(len(lines)))
	s.t.span("pmem.flush_batch", start, end, 0)
}

// writeSpans writes every phase's spans as JSON lines, phase span first,
// then its children; dropped counts ride on the phase lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range t.logs {
		n := l.n.Load()
		kept := min(n, int64(len(l.buf)))
		if err := enc.Encode(struct {
			span
			Dropped int64 `json:"dropped"`
		}{l.phase, n - kept}); err != nil {
			f.Close()
			return err
		}
		for _, s := range l.buf[:kept] {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
