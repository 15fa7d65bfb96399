package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"nvmcache/internal/loadgen"
	"nvmcache/internal/nvclient"
)

// Operation classes the benchmark reports on. A read is a GET; a write is
// a PUT or INCR, acked only once it is durable.
const (
	classRead = iota
	classWrite
	nClasses
)

// clientSpanNames names a client span by class.
var clientSpanNames = [nClasses]string{"nvclient.read", "nvclient.write"}

func classOf(k loadgen.OpKind) int {
	if k == loadgen.OpGet {
		return classRead
	}
	return classWrite
}

// closedWindow is the requests each connection keeps in flight in the
// closed phase.
const closedWindow = 8

// replyTimeout bounds the wait for replies after a phase's last send; a
// reply later than that counts as timed out.
const replyTimeout = 10 * time.Second

// pendingCap sizes the open phase's send→reply queue per connection: the
// replies a server may owe before the sender blocks, a second of the
// fastest schedule here. A sender blocked on it falls behind its
// schedule, which the lateness figures show.
const pendingCap = 1 << 11

// pending is one request sent and not yet matched to its reply.
type pending struct {
	kind    loadgen.OpKind
	key     uint64
	arg     uint64 // PUT: write sequence; INCR: delta
	due     int64  // open loop: when the schedule wanted it sent
	sent    int64
	req     int64 // request id: connection in the top bits, then send order
	sendErr bool  // never fully sent; no reply will come
}

// conn is one measured binary connection. The sender goroutine owns nreq;
// the reader goroutine owns led.
type conn struct {
	id   int
	cl   *nvclient.Client
	nreq int64
	led  ledger
}

// phaseResult is one phase's account: per connection while it runs, then
// merged. Sender and reader goroutines fill disjoint fields.
type phaseResult struct {
	// Reader side: outcomes whose reply (or failure) arrived in the
	// measured window.
	lat       [nClasses][openChunks][]int64 // open loop: ns from due time to reply, acked ops, by due-time chunk
	tail      [nClasses]loadgen.Histogram
	attempted int64
	failed    int64
	// Sender side.
	late   loadgen.Histogram // open loop: send time minus due time
	sendNs int64             // time inside Send* and Flush
	sends  int64
	// Closed loop: completions per sliceLen of the window, from start.
	slices []int64
	// Phase window.
	start, end int64
}

// sliceLen is the closed phase's throughput sampling interval.
const sliceLen = 250 * time.Millisecond

// openChunks is how many consecutive stretches of its schedule an open
// phase's latencies are kept apart in, so a noisy stretch of a shared
// host moves one chunk's median, not the run's.
const openChunks = 10

func (r *phaseResult) merge(o *phaseResult) {
	for c := 0; c < nClasses; c++ {
		for i := range r.lat[c] {
			r.lat[c][i] = append(r.lat[c][i], o.lat[c][i]...)
		}
		r.tail[c].Merge(&o.tail[c])
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.late.Merge(&o.late)
	r.sendNs += o.sendNs
	r.sends += o.sends
	if r.slices == nil {
		r.slices = make([]int64, len(o.slices))
	}
	for i, n := range o.slices {
		r.slices[i] += n
	}
}

// driver runs phases over the measured connections.
type driver struct {
	clk   *clock
	conns []*conn
	wl    *writeLog
	tr    *tracer // nil in untraced runs
}

// next draws connection c's next operation, stamps it sent now, and
// rewrites a PUT's value to encode its key and a write sequence unique
// across connections.
func (d *driver) next(c *conn, gen loadgen.Generator) pending {
	op := gen.Next()
	p := pending{kind: op.Kind, key: op.Key, arg: op.Val, req: int64(c.id)<<40 | c.nreq, sent: d.clk.now()}
	c.nreq++
	if op.Kind == loadgen.OpPut {
		p.arg = d.wl.add(c.id, p.key, p.sent)
	}
	return p
}

func (c *conn) send(p pending) error {
	switch p.kind {
	case loadgen.OpGet:
		return c.cl.SendGet(p.key)
	case loadgen.OpPut:
		return c.cl.SendPut(p.key, encodeVal(p.key, p.arg))
	case loadgen.OpIncr:
		return c.cl.SendIncr(p.key, p.arg)
	}
	return fmt.Errorf("no driver support for %v", p.kind)
}

// runOpen sends each connection's share of rate·dur requests on a fixed
// schedule, never waiting for replies, and times each from its due time.
// A sender that falls behind sends at once; the due time stays, so the
// delay counts against the request.
//
// Connection c's i-th request is due at start + (i + c/n)·interval plus a
// jitter drawn uniformly from [0, interval/2) by a generator seeded from
// seed. Without the jitter every request keeps one phase against the
// store's 2 ms MaxDelay timer and against the other connection's commits,
// and a read's median then depends on which phase the rate happens to
// pick (README.md, Generator health). Consecutive requests on a connection
// stay at least half an interval apart.
func (d *driver) runOpen(rate float64, dur time.Duration, gen []loadgen.Generator, seed int64) *phaseResult {
	n := len(d.conns)
	interval := int64(float64(n) / rate * 1e9)
	perConn := int(int64(dur) / interval)
	start := d.clk.now() + int64(time.Millisecond)
	res := make([]*phaseResult, n)
	var wg sync.WaitGroup
	for i, c := range d.conns {
		res[i] = &phaseResult{start: start, end: start + int64(perConn)*interval}
		wg.Add(1)
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
		go func(c *conn, r *phaseResult, g loadgen.Generator, first int64) {
			defer wg.Done()
			d.openConn(c, r, g, rng, first, interval, perConn)
		}(c, res[i], gen[i], start+int64(i)*interval/int64(n))
	}
	wg.Wait()
	out := &phaseResult{start: start, end: res[0].end}
	for _, r := range res {
		out.merge(r)
	}
	return out
}

func (d *driver) openConn(c *conn, r *phaseResult, gen loadgen.Generator, rng *rand.Rand, first, interval int64, ops int) {
	c.cl.SetReadDeadline(time.Now().Add(time.Duration(first+int64(ops+1)*interval-d.clk.now()) + replyTimeout))
	pend := make(chan pending, pendingCap)
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.readReplies(c, r, pend, nil, 1<<62, true)
	}()
	jitter := interval / 2
	next := first + rng.Int64N(jitter)
	for i := 0; i < ops; i++ {
		due := next
		next = first + int64(i+1)*interval + rng.Int64N(jitter)
		if w := due - d.clk.now(); w > 0 {
			sleepFor(time.Duration(w))
		}
		p := d.next(c, gen)
		p.due = due
		err := c.send(p)
		// Flush unless the next request is already due: a sender behind
		// schedule sends its backlog in one write.
		if err == nil && (i == ops-1 || d.clk.now() < next) {
			err = c.cl.Flush()
		}
		r.sendNs += d.clk.now() - p.sent
		r.sends++
		r.late.Record(time.Duration(p.sent - due))
		p.sendErr = err != nil
		pend <- p
		if err != nil {
			break
		}
	}
	close(pend)
	<-done
}

// runClosed starts keeping closedWindow requests in flight on every
// connection until stop is closed, counting outcomes that arrive before
// end, and returns a function that waits for the connections and merges
// their results. Requests still in flight at end are not counted; their
// outcomes only feed the ledger. Before stop closes, the orchestrator may
// crash the store under them.
func (d *driver) runClosed(end int64, stop <-chan struct{}, gen []loadgen.Generator) (wait func() *phaseResult) {
	n := len(d.conns)
	start := d.clk.now()
	res := make([]*phaseResult, n)
	var wg sync.WaitGroup
	for i, c := range d.conns {
		res[i] = &phaseResult{start: start, slices: make([]int64, (end-start)/int64(sliceLen)+1)}
		wg.Add(1)
		go func(c *conn, r *phaseResult, g loadgen.Generator) {
			defer wg.Done()
			d.closedConn(c, r, g, end, stop)
		}(c, res[i], gen[i])
	}
	return func() *phaseResult {
		wg.Wait()
		out := &phaseResult{start: start, end: end}
		for _, r := range res {
			out.merge(r)
		}
		return out
	}
}

func (d *driver) closedConn(c *conn, r *phaseResult, gen loadgen.Generator, end int64, stop <-chan struct{}) {
	c.cl.SetReadDeadline(time.Now().Add(time.Duration(end-d.clk.now()) + replyTimeout))
	pend := make(chan pending, closedWindow)
	slots := make(chan struct{}, closedWindow)
	for i := 0; i < closedWindow; i++ {
		slots <- struct{}{}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.readReplies(c, r, pend, slots, end, false)
	}()
	batch := make([]pending, 0, closedWindow)
	for {
		select {
		case <-stop:
			close(pend)
			<-done
			return
		case <-slots:
		}
		// Fill every free slot, then flush once.
		free := 1
	fill:
		for free < closedWindow {
			select {
			case <-slots:
				free++
			default:
				break fill
			}
		}
		t0 := d.clk.now()
		batch = batch[:0]
		var err error
		for i := 0; i < free && err == nil; i++ {
			p := d.next(c, gen)
			err = c.send(p)
			batch = append(batch, p)
		}
		if err == nil {
			err = c.cl.Flush()
		}
		r.sendNs += d.clk.now() - t0
		r.sends += int64(len(batch))
		for _, p := range batch {
			p.sendErr = err != nil
			pend <- p
		}
		if err != nil {
			<-stop
			close(pend)
			<-done
			return
		}
	}
}

// readReplies matches replies to requests in FIFO order, checks each, and
// records it. Outcomes arriving after end are left out of r. slots, when
// set, gets one token back per reply (the closed loop's window).
func (d *driver) readReplies(c *conn, r *phaseResult, pend <-chan pending, slots chan<- struct{}, end int64, fromDue bool) {
	broken := false
	for p := range pend {
		var op byte
		var payload []byte
		if !broken && !p.sendErr {
			var err error
			op, payload, err = c.cl.RecvReply()
			broken = err != nil
		}
		now := d.clk.now()
		answered := !broken && !p.sendErr
		ok := d.record(c, p, answered, op, payload, now)
		if answered {
			d.tr.span(clientSpanNames[classOf(p.kind)], p.sent, now, p.req)
		}
		// A broken connection keeps its slots, which parks the closed-loop
		// sender until the phase stops.
		if slots != nil && !broken {
			slots <- struct{}{}
		}
		if now > end {
			continue
		}
		r.attempted++
		if !ok {
			r.failed++
			continue
		}
		if r.slices != nil {
			r.slices[(now-r.start)/int64(sliceLen)]++
		}
		if fromDue {
			cl := classOf(p.kind)
			// Jitter can push the last requests' due times past the
			// window's end; they count in the last chunk.
			i := min((p.due-r.start)*openChunks/(r.end-r.start), openChunks-1)
			r.lat[cl][i] = append(r.lat[cl][i], now-p.due)
			r.tail[cl].Record(time.Duration(now - p.due))
		}
	}
}
