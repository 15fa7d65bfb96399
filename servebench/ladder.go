package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/kv"
	"nvmcache/internal/mdb"
	"nvmcache/internal/pmem"
)

// cost is one in-process call's measured price.
type cost struct {
	ns     float64 // median wall time per call
	allocs float64 // heap allocations per call, whole process
	lines  float64 // lines flushed per call
}

// ladder is the traced run's in-process measurement of the layers under
// the server, each fed the workload's own key stream: the kv store from
// two goroutines, and one mdb tree on a single atlas thread over a fresh
// heap.
type ladder struct {
	kvGet, kvGetBatch, kvPut, kvPutBatch cost
	mdbGet, mdbPut                       cost
}

// ladderBatch is the key count of each GetBatch and PutBatch call.
const ladderBatch = 64

func runLadder(w workload, seed int64) (*ladder, error) {
	var keys [numConns][]uint64
	for g := range keys {
		gen, err := w.main(g, seed*1000+4)
		if err != nil {
			return nil, err
		}
		keys[g] = make([]uint64, 1<<14)
		for i := range keys[g] {
			keys[g][i] = gen.Next().Key
		}
	}
	lad := &ladder{}
	if err := lad.kv(keys); err != nil {
		return nil, fmt.Errorf("kv ladder: %w", err)
	}
	if err := lad.mdb(keys[0]); err != nil {
		return nil, fmt.Errorf("mdb ladder: %w", err)
	}
	return lad, nil
}

func (lad *ladder) kv(keys [numConns][]uint64) error {
	opts := kv.DefaultOptions()
	st, err := kv.Open(pmem.New(int(kv.RecommendedHeapBytes(opts))), opts)
	if err != nil {
		return err
	}
	defer st.Close()
	pairs := make([]kv.Pair, 0, 512)
	for k := uint64(0); k < dataKeys; k++ {
		pairs = append(pairs, kv.Pair{K: k, V: encodeVal(k, 0)})
		if len(pairs) == cap(pairs) {
			if err := st.PutBatch(pairs); err != nil {
				return err
			}
			pairs = pairs[:0]
		}
	}
	flushes := func() int64 { return kv.Totals(st.Stats()).Flushes() }
	key := func(g, i int) uint64 { return keys[g][i%len(keys[g])] }
	batchKeys := func(g, i int) []uint64 {
		off := (i * ladderBatch) % (len(keys[g]) - ladderBatch)
		return keys[g][off : off+ladderBatch]
	}

	vals := [numConns][]uint64{make([]uint64, ladderBatch), make([]uint64, ladderBatch)}
	found := [numConns][]bool{make([]bool, ladderBatch), make([]bool, ladderBatch)}
	var batches [numConns][]kv.Pair
	for g := range batches {
		batches[g] = make([]kv.Pair, ladderBatch)
	}
	steps := []struct {
		c              *cost
		calls, perTime int
		perCall        float64
		op             func(g, i int) error
	}{
		{&lad.kvGet, 40000, 256, 1, func(g, i int) error { _, _, err := st.Get(key(g, i)); return err }},
		{&lad.kvGetBatch, 1000, 8, ladderBatch, func(g, i int) error {
			return st.GetBatch(batchKeys(g, i), vals[g], found[g])
		}},
		{&lad.kvPut, 150, 1, 1, func(g, i int) error { return st.Put(key(g, i), encodeVal(key(g, i)&keyMask, 0)) }},
		{&lad.kvPutBatch, 60, 1, ladderBatch, func(g, i int) error {
			for j, k := range batchKeys(g, i) {
				batches[g][j] = kv.Pair{K: k, V: encodeVal(k&keyMask, 0)}
			}
			return st.PutBatch(batches[g])
		}},
	}
	for _, s := range steps {
		f0 := flushes()
		c, err := measure(numConns, s.calls, s.perTime, s.op)
		if err != nil {
			return err
		}
		c.ns /= s.perCall
		c.allocs /= s.perCall
		c.lines = float64(flushes()-f0) / (float64(numConns*s.calls) * s.perCall)
		*s.c = c
	}
	return nil
}

// mdb times the tree alone: Get, and one-op Begin/Put/Commit transactions,
// on one atlas thread with the store's persistence policy.
func (lad *ladder) mdb(keys []uint64) error {
	opts := kv.DefaultOptions()
	const pages = 1 << 15
	h := pmem.New(192*pages + 64*opts.LogEntries + 1<<20)
	rt := atlas.NewRuntime(h, atlas.Options{Policy: opts.Policy, Config: opts.Config, LogEntries: opts.LogEntries, DisableTrace: true})
	defer rt.Close()
	th, err := rt.NewThread()
	if err != nil {
		return err
	}
	db, err := mdb.Create(th, pages)
	if err != nil {
		return err
	}
	put := func(k uint64) error { return db.Put(k, encodeVal(k&keyMask, 0)) }
	for k := uint64(0); k < dataKeys; {
		if err := db.Begin(); err != nil {
			return err
		}
		for end := k + 64; k < end; k++ {
			if err := put(k); err != nil {
				return err
			}
		}
		if err := db.Commit(); err != nil {
			return err
		}
	}
	key := func(i int) uint64 { return keys[i%len(keys)] }
	if lad.mdbGet, err = measure(1, 80000, 256, func(_, i int) error { db.Get(key(i)); return nil }); err != nil {
		return err
	}
	f0 := th.FlushStats()
	const puts = 4000
	lad.mdbPut, err = measure(1, puts, 8, func(_, i int) error {
		if err := db.Begin(); err != nil {
			return err
		}
		if err := put(key(i)); err != nil {
			return err
		}
		return db.Commit()
	})
	f1 := th.FlushStats()
	lad.mdbPut.lines = float64(f1.Async+f1.Drained-f0.Async-f0.Drained) / puts
	return err
}

// measure runs op calls times on each of g goroutines, timing groups of
// perTime calls, and returns the median time per call and the process's
// allocations per call.
func measure(g, calls, perTime int, op func(g, i int) error) (cost, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	samples := make([][]float64, g)
	errs := make([]error, g)
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i += perTime {
				t0 := time.Now()
				for j := i; j < i+perTime; j++ {
					if err := op(w, j); err != nil {
						errs[w] = err
						return
					}
				}
				samples[w] = append(samples[w], float64(time.Since(t0))/float64(perTime))
			}
		}(w)
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	var all []float64
	for w := range samples {
		if errs[w] != nil {
			return cost{}, errs[w]
		}
		all = append(all, samples[w]...)
	}
	sort.Float64s(all)
	return cost{ns: medianF(all), allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(g*calls)}, nil
}

// metrics reports the ladder, with each layer's tax: the median one level
// up divided by this layer's median. readNs and writeNs are the run's
// end-to-end medians.
func (lad *ladder) metrics(readNs, writeNs float64) map[string]metric {
	return map[string]metric{
		"kv.get_ns":         {lad.kvGet.ns, "ns"},
		"kv.get_allocs":     {lad.kvGet.allocs, "count"},
		"kv.getbatch_ns":    {lad.kvGetBatch.ns, "ns"},
		"kv.put_us":         {lad.kvPut.ns / 1e3, "us"},
		"kv.put_allocs":     {lad.kvPut.allocs, "count"},
		"kv.put_lines":      {lad.kvPut.lines, "lines"},
		"kv.putbatch_us":    {lad.kvPutBatch.ns / 1e3, "us"},
		"kv.putbatch_lines": {lad.kvPutBatch.lines, "lines"},
		"kv.get_tax":        {ratio(readNs, lad.kvGet.ns), "ratio"},
		"kv.put_tax":        {ratio(writeNs, lad.kvPut.ns), "ratio"},
		"mdb.get_ns":        {lad.mdbGet.ns, "ns"},
		"mdb.get_allocs":    {lad.mdbGet.allocs, "count"},
		"mdb.put_us":        {lad.mdbPut.ns / 1e3, "us"},
		"mdb.put_allocs":    {lad.mdbPut.allocs, "count"},
		"mdb.lines_per_put": {lad.mdbPut.lines, "lines"},
		"mdb.get_tax":       {ratio(lad.kvGet.ns, lad.mdbGet.ns), "ratio"},
		"mdb.put_tax":       {ratio(lad.kvPut.ns, lad.mdbPut.ns), "ratio"},
	}
}
