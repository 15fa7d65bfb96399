package main

import (
	"fmt"

	"nvmcache/internal/loadgen"
)

// Keyspace layout. Data keys 0..dataKeys-1 are preloaded and carry values
// that encode their key and a write sequence (see encodeVal). Counters for
// INCR live in a separate range so no PUT ever lands on one.
const (
	dataKeys    = 1 << 16
	counterBase = 1 << 32
	counterKeys = 1024
	keyBits     = 20
	keyMask     = 1<<keyBits - 1
)

// encodeVal is the value the driver writes: the key in the low keyBits and
// the write's sequence number above it. Sequence 0 is the preload.
func encodeVal(key, seq uint64) uint64 { return seq<<keyBits | key }

// zipfUnmix inverts the bijective multiply loadgen's zipf generator applies
// to each rank (rank 0 is hottest), so zipf draws land on the preloaded
// keys 0..dataKeys-1 and the hottest keys are neighbours in every shard's
// B+-tree.
var zipfUnmix = func() uint64 {
	const c = 0x9e3779b97f4a7c15
	x := uint64(c)
	for i := 0; i < 5; i++ {
		x *= 2 - c*x
	}
	return x
}()

// workload is one traffic mix. Each runs an open phase at rate, an
// optional probe phase, and a closed phase, all over the same two
// connections.
type workload struct {
	name string
	// rate is the open phase's aggregate arrival rate, ops/s.
	rate float64
	// main builds connection conn's generator for the open and closed
	// phases.
	main func(conn int, seed int64) (loadgen.Generator, error)
	// probe, when set, builds the probe phase's generator: a workload
	// whose mix lacks reads or writes probes the missing class at
	// probeRate after its open phase, so every workload reports both
	// latency medians. Without a probe the open phase runs on instead.
	probe     func(conn int, seed int64) (loadgen.Generator, error)
	probeRate float64
}

func uniform(readFrac float64) func(int, int64) (loadgen.Generator, error) {
	spec := loadgen.Spec{Kind: "uniform", Keys: dataKeys, ReadFrac: readFrac}
	return func(conn int, seed int64) (loadgen.Generator, error) { return spec.Generator(conn, 0, seed) }
}

// workloads lists the benchmark's traffic mixes; README.md says what each
// one exercises and which metrics it should move.
var workloads = []workload{
	{
		name:      "get-uniform",
		rate:      4000,
		main:      uniform(1),
		probe:     uniform(0),
		probeRate: 200,
	},
	{
		name:      "put-uniform",
		rate:      400,
		main:      uniform(0),
		probe:     uniform(1),
		probeRate: 4000,
	},
	// Run by hand only; BENCHMARK.json leaves it out because its GET
	// median is too unsteady to gate on (README.md, Workloads).
	{
		name: "mixed-zipf",
		rate: 600,
		main: mixedZipf,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// zipfMix is mixed-zipf's generator: loadgen's weighted mix picks the verb
// (GET 50 / PUT 40 / INCR 10) and an INCR's delta and counter, and
// loadgen's zipf generator (s=1.1) picks the data key of a GET or PUT.
type zipfMix struct {
	verbs loadgen.Generator
	keys  loadgen.Generator
}

func mixedZipf(conn int, seed int64) (loadgen.Generator, error) {
	verbs, err := loadgen.ParseMix("get:50,put:40,incr:10", loadgen.Spec{Keys: counterKeys})
	if err != nil {
		return nil, err
	}
	vg, err := verbs.Generator(conn, 0, seed)
	if err != nil {
		return nil, err
	}
	// A seed apart from the verb stream's, so verb and key draws are
	// independent.
	kg, err := loadgen.Spec{Kind: "zipf", Keys: dataKeys, Skew: 1.1}.Generator(conn, 0, seed+1<<32)
	if err != nil {
		return nil, err
	}
	return &zipfMix{verbs: vg, keys: kg}, nil
}

func (g *zipfMix) Name() string { return "mixed-zipf" }

func (g *zipfMix) Next() loadgen.Op {
	op := g.verbs.Next()
	if op.Kind == loadgen.OpIncr {
		op.Key += counterBase
		return op
	}
	op.Key = g.keys.Next().Key * zipfUnmix
	return op
}
