// Command servebench is the repository's serving benchmark: it boots
// nvserver's default configuration in-process, preloads it, drives one
// named workload over two binary connections, checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer ones).
// README.md documents the workloads, the metrics and the known floors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"nvmcache/internal/kv"
	"nvmcache/internal/loadgen"
	"nvmcache/internal/nvclient"
	"nvmcache/internal/proto"
	"nvmcache/internal/server"
)

// numConns is the measured connection count.
const numConns = 2

// warmup is how long the workload runs unmeasured before the open phase,
// outside --seconds.
const warmup = 2 * time.Second

// setups is how many times an untraced run boots and preloads a server;
// setup_s is their median and the last one serves the measured phases.
const setups = 7

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: get-uniform, put-uniform or mixed-zipf")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 20, "length of the measured phases, seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *seconds < 2 {
		err = fmt.Errorf("--seconds %d: need at least 2", *seconds)
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace %d: want 0 or 1", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "servebench: %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		w.name, *seed, *seconds, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	plan := newPlan(w, *seed, time.Duration(*seconds)*time.Second)
	var res *result
	if *traced == 1 {
		res, err = plan.tracedRun()
	} else {
		res, err = plan.untracedRun()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// plan fixes one run's phases: the open phase takes 40% of the measured
// time, the probe phase (if the workload has one) 25%, the closed phase
// the remaining 35%. The probe is the only source of one latency class,
// so it gets enough of the run to hold that median steady.
type plan struct {
	w                   workload
	seed                int64
	open, probe, closed time.Duration
}

func newPlan(w workload, seed int64, total time.Duration) plan {
	p := plan{w: w, seed: seed, open: total * 40 / 100, probe: total * 25 / 100}
	p.closed = total - p.open - p.probe
	if w.probe == nil {
		p.open += p.probe
		p.probe = 0
	}
	return p
}

// gens builds one generator per connection from f, seeded by the run's
// seed and the phase.
func (p plan) gens(f func(int, int64) (loadgen.Generator, error), phase int64) ([]loadgen.Generator, error) {
	out := make([]loadgen.Generator, numConns)
	for c := range out {
		g, err := f(c, p.seed*1000+phase)
		if err != nil {
			return nil, err
		}
		out[c] = g
	}
	return out, nil
}

// boot starts a server in the configuration nvserver ships with, dials
// the measured connections, and preloads every data key through MPUT.
func boot(kvOpts kv.Options, srvOpts server.Options) (*server.Server, []*conn, error) {
	srv, err := server.SelfHost(kvOpts, srvOpts)
	if err != nil {
		return nil, nil, err
	}
	conns := make([]*conn, numConns)
	for i := range conns {
		cl, err := nvclient.DialBinary(srv.Addr().String())
		if err != nil {
			closeAll(srv, conns)
			return nil, nil, err
		}
		conns[i] = &conn{id: i, cl: cl}
	}
	keys := make([]uint64, 0, proto.MaxOps)
	vals := make([]uint64, 0, proto.MaxOps)
	for base := uint64(0); base < dataKeys; base += proto.MaxOps {
		keys, vals = keys[:0], vals[:0]
		for k := base; k < base+proto.MaxOps; k++ {
			keys = append(keys, k)
			vals = append(vals, encodeVal(k, 0))
		}
		if err := conns[0].cl.MPut(keys, vals); err != nil {
			closeAll(srv, conns)
			return nil, nil, fmt.Errorf("preload: %w", err)
		}
	}
	return srv, conns, nil
}

// closeAll closes the connections and shuts the server down. A crashed
// store cannot drain, so its ErrCrashed is expected and dropped.
func closeAll(srv *server.Server, conns []*conn) {
	for _, c := range conns {
		if c != nil {
			c.cl.Close()
		}
	}
	srv.Shutdown()
}

// pass is what one boot-to-recovery sequence measured.
type pass struct {
	setupS               []float64
	open, probe, closed  *phaseResult
	openStats            kv.ShardStats // store counter deltas over open and probe phases
	openCtr, closedCtr   counts        // tracer counter deltas
	stripeAcq, stripeCon int64         // heap stripe deltas over the closed window
	cpu                  time.Duration // process CPU over the closed window
	mallocs, allocBytes  uint64
	gcCycles             uint32
	recoverMs            float64
	wordsRestored        int
	memMB                float64
	bad                  violations
}

func (ps *pass) attempted() int64 {
	return ps.open.attempted + ps.probe.attempted + ps.closed.attempted
}

func (ps *pass) failed() int64 { return ps.open.failed + ps.probe.failed + ps.closed.failed }

// closedTput is the closed window's operations completed per second.
func (ps *pass) closedTput() float64 { return sliceTput(ps.closed) }

// sliceTput averages the middle half of the window's full slices, sorted
// by completions: a neighbour's CPU burst on a shared host moves a few
// slices, not the middle half, and averaging keeps the figure from
// snapping to the 8-reply steps in which pipelined replies arrive.
func sliceTput(r *phaseResult) float64 {
	full := append([]int64(nil), r.slices[:(r.end-r.start)/int64(sliceLen)]...)
	sort.Slice(full, func(i, j int) bool { return full[i] < full[j] })
	mid := full[len(full)/4 : len(full)-len(full)/4]
	var sum int64
	for _, n := range mid {
		sum += n
	}
	return float64(sum) / float64(len(mid)) / sliceLen.Seconds()
}

// latencyP50 is the median, over the open and probe phases' chunks that
// hold requests of class, of each chunk's median latency.
func (ps *pass) latencyP50(class int) float64 {
	var meds []float64
	for _, r := range []*phaseResult{ps.open, ps.probe} {
		for _, lat := range r.lat[class] {
			if len(lat) > 0 {
				meds = append(meds, median(lat))
			}
		}
	}
	if len(meds) == 0 {
		return 0
	}
	return medianF(meds)
}

// run boots n times and drives every phase on the last boot, then crashes
// the store under the closed phase's in-flight requests, recovers it and
// checks the recovered state. tr, when set, instruments the server.
func (p plan) run(n int, tr *tracer, clk *clock) (*pass, error) {
	kvOpts, srvOpts := kv.DefaultOptions(), server.Options{}
	if tr != nil {
		kvOpts, srvOpts = tr.kvOptions(kvOpts), tr.serverOptions()
	}
	ps := &pass{probe: &phaseResult{}}
	var srv *server.Server
	var conns []*conn
	for i := 0; i < n; i++ {
		if srv != nil {
			closeAll(srv, conns)
		}
		// Start every boot from the same collected heap, so neither its
		// time nor the run's memory depends on when the last cycle ran.
		runtime.GC()
		t0 := time.Now()
		var err error
		if srv, conns, err = boot(kvOpts, srvOpts); err != nil {
			return nil, err
		}
		ps.setupS = append(ps.setupS, time.Since(t0).Seconds())
	}
	defer func() { closeAll(srv, conns) }()
	st := srv.Store()
	d := &driver{clk: clk, conns: conns, wl: newWriteLog(numConns), tr: tr}
	d.wl.preloaded = clk.now()

	// Settle before timing: hand the torn-down boots' memory back to the
	// OS now rather than through the background scavenger during the
	// open phase, then run the workload unmeasured for warmup.
	debug.FreeOSMemory()
	gen, err := p.gens(p.w.main, 0)
	if err != nil {
		return nil, err
	}
	l := tr.begin("driver.warmup")
	d.runOpen(p.w.rate, warmup, gen, p.seed*1000)
	tr.end(l)

	if gen, err = p.gens(p.w.main, 1); err != nil {
		return nil, err
	}
	stats0, ctr0 := kv.Totals(st.Stats()), tr.snap()
	l = tr.begin("driver.open")
	ps.open = d.runOpen(p.w.rate, p.open, gen, p.seed*1000+1)
	tr.end(l)
	if p.w.probe != nil {
		if gen, err = p.gens(p.w.probe, 2); err != nil {
			return nil, err
		}
		l = tr.begin("driver.probe")
		ps.probe = d.runOpen(p.w.probeRate, p.probe, gen, p.seed*1000+2)
		tr.end(l)
	}
	ps.openStats = statsDelta(kv.Totals(st.Stats()), stats0)
	ps.openCtr = tr.snap().sub(ctr0)

	if gen, err = p.gens(p.w.main, 3); err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, str0, ctr0 := cpuTime(), st.StripeSummary(), tr.snap()
	l = tr.begin("driver.closed")
	stop := make(chan struct{})
	end := clk.now() + int64(p.closed)
	wait := d.runClosed(end, stop, gen)
	sleepFor(time.Duration(end - clk.now()))
	ps.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	str1 := st.StripeSummary()
	ps.closedCtr = tr.snap().sub(ctr0)
	ps.stripeAcq, ps.stripeCon = str1.Acquired-str0.Acquired, str1.Contended-str0.Contended
	ps.mallocs, ps.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	ps.gcCycles = ms1.NumGC - ms0.NumGC
	tr.end(l)
	// The crash lands while every connection still has requests in flight.
	crash := tr.begin("check.crash")
	if err := st.Crash(); err != nil {
		return nil, fmt.Errorf("crash: %w", err)
	}
	close(stop)
	ps.closed = wait()
	tr.end(crash)

	l = tr.begin("check.recover")
	t0 := time.Now()
	st2, rep, err := kv.Recover(st.Heap(), kv.DefaultOptions())
	ps.recoverMs = float64(time.Since(t0)) / 1e6
	tr.end(l)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	defer st2.Close()
	ps.wordsRestored = rep.WordsRestored
	ps.bad = d.checkRecovered(st2)
	for _, c := range conns {
		ps.bad.merge(&c.led.violations)
	}
	// The memory the process still holds once free pages are returned:
	// Sys alone keeps the high-water mark, which moves in arena-sized
	// steps with the timing of the last collection.
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.memMB = float64(ms.Sys-ms.HeapReleased) / (1 << 20)
	return ps, nil
}

// closedOnly measures closed-phase throughput on an uninstrumented server:
// the traced run's baseline for driver.trace_overhead.
func (p plan) closedOnly(clk *clock) (float64, error) {
	srv, conns, err := boot(kv.DefaultOptions(), server.Options{})
	if err != nil {
		return 0, err
	}
	defer closeAll(srv, conns)
	gen, err := p.gens(p.w.main, 3)
	if err != nil {
		return 0, err
	}
	d := &driver{clk: clk, conns: conns, wl: newWriteLog(numConns)}
	stop := make(chan struct{})
	end := clk.now() + int64(p.closed)
	wait := d.runClosed(end, stop, gen)
	sleepFor(time.Duration(end - clk.now()))
	close(stop)
	return sliceTput(wait()), nil
}

func (p plan) untracedRun() (*result, error) {
	ps, err := p.run(setups, nil, newClock())
	if err != nil {
		return nil, err
	}
	read, write := ps.latencyP50(classRead), ps.latencyP50(classWrite)
	res := p.result(ps)
	res.Metrics = map[string]metric{
		"setup_s":           {medianF(ps.setupS), "s"},
		"read_p50_us":       {read / 1e3, "us"},
		"write_p50_us":      {write / 1e3, "us"},
		"tput_ops":          {ps.closedTput(), "ops/s"},
		"flushes_per_write": {ratio(float64(ps.openStats.Flushes()), float64(writes(ps.openStats))), "lines"},
		"mem_mb":            {ps.memMB, "MB"},
	}
	return res, nil
}

// result fills the outcome fields and reports violations and a late
// generator on standard error.
func (p plan) result(ps *pass) *result {
	for _, m := range ps.bad.first {
		fmt.Fprintln(os.Stderr, "servebench: VIOLATION:", m)
	}
	if ps.bad.n > 0 {
		fmt.Fprintf(os.Stderr, "servebench: %d correctness violations\n", ps.bad.n)
	}
	if late, write := float64(ps.lateness().Quantile(0.99)), ps.latencyP50(classWrite); late > write {
		fmt.Fprintf(os.Stderr, "servebench: WARNING: generator late p99 %.0f us exceeds write p50 %.0f us\n", late/1e3, write/1e3)
	}
	return &result{Correct: ps.bad.n == 0, Attempted: ps.attempted(), Failed: ps.failed()}
}

func (p plan) tracedRun() (*result, error) {
	clk := newClock()
	base, err := p.closedOnly(clk)
	if err != nil {
		return nil, err
	}
	tr := newTracer(clk)
	ps, err := p.run(1, tr, clk)
	if err != nil {
		return nil, err
	}
	res := p.result(ps)
	res.Metrics = p.layerMetrics(ps, base)
	lad, err := runLadder(p.w, p.seed)
	if err != nil {
		return nil, err
	}
	read, write := ps.latencyP50(classRead), ps.latencyP50(classWrite)
	for n, m := range lad.metrics(read, write) {
		res.Metrics[n] = m
	}
	path := filepath.Join(".bench_out", "spans-"+p.w.name+".jsonl")
	if err := tr.writeSpans(path); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "servebench: spans written to", path)
	return res, nil
}

// layerMetrics derives the traced run's per-layer figures. Every ratio is
// a quotient of counter deltas.
func (p plan) layerMetrics(ps *pass, baseTput float64) map[string]metric {
	late := ps.lateness()
	var tail [nClasses]loadgen.Histogram
	for c := range tail {
		tail[c].Merge(&ps.open.tail[c])
		tail[c].Merge(&ps.probe.tail[c])
	}
	o, oc, cc := ps.openStats, ps.openCtr, ps.closedCtr
	nw := float64(writes(o))
	openSecs := float64(ps.open.end-ps.open.start+ps.probe.end-ps.probe.start) / 1e9
	closedReqs := float64(cc[cReqGet] + cc[cReqPut] + cc[cReqIncr])
	closedOps := float64(ps.closed.attempted)
	flag := 0.0
	if float64(late.Quantile(0.99)) > ps.latencyP50(classWrite) {
		flag = 1
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	return map[string]metric{
		"driver.late_p50_us":           {us(float64(late.Quantile(0.5))), "us"},
		"driver.late_p99_us":           {us(float64(late.Quantile(0.99))), "us"},
		"driver.late_flag":             {flag, "count"},
		"driver.trace_overhead":        {1 - ps.closedTput()/baseTput, "ratio"},
		"driver.fail_frac":             {ratio(float64(ps.failed()), float64(ps.attempted())), "ratio"},
		"nvclient.read_p99_us":         {us(float64(tail[classRead].Quantile(0.99))), "us"},
		"nvclient.read_n":              {float64(tail[classRead].Count()), "count"},
		"nvclient.write_p99_us":        {us(float64(tail[classWrite].Quantile(0.99))), "us"},
		"nvclient.write_n":             {float64(tail[classWrite].Count()), "count"},
		"nvclient.send_us_per_op":      {us(ratio(float64(ps.closed.sendNs), float64(ps.closed.sends))), "us"},
		"server.reqs_per_read":         {ratio(closedReqs, float64(cc[cConnReads])), "count"},
		"server.reqs_per_write":        {ratio(closedReqs, float64(cc[cConnWrites])), "count"},
		"server.write_us_per_req":      {us(ratio(float64(cc[cConnWriteNs]), closedReqs)), "us"},
		"kv.writes_per_commit":         {ratio(float64(o.BatchedOps), float64(oc[cAcks])), "count"},
		"kv.commits_per_s":             {float64(oc[cAcks]) / openSecs, "1/s"},
		"kv.absorbed_frac":             {ratio(float64(o.Absorbed), float64(o.Absorbed+o.Committed)), "ratio"},
		"kv.recover_ms":                {ps.recoverMs, "ms"},
		"atlas.words_restored":         {float64(ps.wordsRestored), "count"},
		"atlas.undo_records_per_write": {ratio(float64(oc[cUndoRecords]), nw), "count"},
		"core.async_frac":              {ratio(float64(oc[cAsyncLines]), float64(oc[cAsyncLines]+oc[cDrainLines])), "ratio"},
		"core.drain_lines_per_commit":  {ratio(float64(oc[cDrainLines]), float64(oc[cDrains])), "lines"},
		"pmem.drain_us_per_commit":     {us(ratio(float64(oc[cDrainNs]), float64(oc[cDrains]))), "us"},
		"pmem.flush_us_per_write":      {us(ratio(float64(oc[cAsyncNs]+oc[cDrainNs]), nw)), "us"},
		"pmem.stripe_contended_frac":   {ratio(float64(ps.stripeCon), float64(ps.stripeAcq)), "ratio"},
		"proc.cpu_us_per_op":           {us(ratio(float64(ps.cpu), closedOps)), "us"},
		"proc.allocs_per_op":           {ratio(float64(ps.mallocs), closedOps), "count"},
		"proc.alloc_bytes_per_op":      {ratio(float64(ps.allocBytes), closedOps), "bytes"},
		"proc.gc_cycles":               {float64(ps.gcCycles), "count"},
	}
}

// lateness merges the open and probe phases' generator lateness.
func (ps *pass) lateness() *loadgen.Histogram {
	late := ps.open.late
	late.Merge(&ps.probe.late)
	return &late
}

// writes is the acked mutations a store counter delta covers.
func writes(st kv.ShardStats) uint64 { return st.Puts + st.Incrs + st.Decrs + st.Deletes }

// statsDelta subtracts the monotonic counters this benchmark reads; the
// gauges in ShardStats are left out because a gauge difference means
// nothing.
func statsDelta(a, b kv.ShardStats) kv.ShardStats {
	return kv.ShardStats{
		Puts: a.Puts - b.Puts, Incrs: a.Incrs - b.Incrs, Decrs: a.Decrs - b.Decrs, Deletes: a.Deletes - b.Deletes,
		Batches: a.Batches - b.Batches, BatchedOps: a.BatchedOps - b.BatchedOps,
		Absorbed: a.Absorbed - b.Absorbed, Committed: a.Committed - b.Committed,
		AsyncFlushes: a.AsyncFlushes - b.AsyncFlushes, DrainedFlushes: a.DrainedFlushes - b.DrainedFlushes,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the exact median of xs, in xs's unit; 0 when empty.
func median(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return float64(s[n/2-1]+s[n/2]) / 2
	}
	return float64(s[len(s)/2])
}

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
