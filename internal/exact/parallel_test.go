package exact

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestMeasureParallelMatchesSequential asserts the sharded oracle is
// exact: identical histograms, counters and attribution to the
// sequential Olken measurement, for every worker count and shard size —
// including shard sizes that force blocks to recur across many shards.
func TestMeasureParallelMatchesSequential(t *testing.T) {
	streams := map[string]func() trace.Reader{
		"zipf":    func() trace.Reader { return trace.ZipfAccess(3, 0, 500, 1.0, 60000) },
		"cyclic":  func() trace.Reader { return trace.Cyclic(0, 700, 60000) },
		"chase":   func() trace.Reader { return trace.PointerChase(9, 0, 300, 60000) },
		"uniform": func() trace.Reader { return trace.RandomUniform(4, 0, 2000, 60000) },
	}
	shardSizes := []int{1, 7, 100, 4096, 1 << 16, 1 << 20}
	workerCounts := []int{1, 3, 8}

	for name, mk := range streams {
		seq := New(mem.WordGranularity, WithAttribution())
		if err := trace.ForEach(mk(), func(a mem.Access) bool { seq.Observe(a); return true }); err != nil {
			t.Fatal(err)
		}
		for _, shard := range shardSizes {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("%s/shard=%d/workers=%d", name, shard, workers), func(t *testing.T) {
					par, err := MeasureParallel(mk(), mem.WordGranularity, ParallelOptions{
						Workers: workers, ShardSize: shard, Attribution: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					if par.Accesses() != seq.Accesses() {
						t.Fatalf("accesses = %d, want %d", par.Accesses(), seq.Accesses())
					}
					if par.DistinctBlocks() != seq.DistinctBlocks() {
						t.Fatalf("distinct = %d, want %d", par.DistinctBlocks(), seq.DistinctBlocks())
					}
					if !reflect.DeepEqual(par.ReuseDistance(), seq.ReuseDistance()) {
						t.Fatalf("reuse-distance histograms differ:\npar %v\nseq %v",
							par.ReuseDistance(), seq.ReuseDistance())
					}
					if !reflect.DeepEqual(par.ReuseTime(), seq.ReuseTime()) {
						t.Fatalf("reuse-time histograms differ")
					}
					if !reflect.DeepEqual(par.Pairs(), seq.Pairs()) {
						t.Fatalf("attribution pairs differ: par %d pairs, seq %d pairs",
							len(par.Pairs()), len(seq.Pairs()))
					}
					if par.StateBytes() == 0 {
						t.Fatal("StateBytes = 0")
					}
				})
			}
		}
	}
}

// TestMeasureParallelRandomTraces property-tests the sharded oracle on
// random block streams against the sequential measurement, with shard
// sizes chosen to put shard boundaries everywhere.
func TestMeasureParallelRandomTraces(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 30; trial++ {
		n := int(1 + rng.Uint64n(3000))
		blocks := make([]uint8, n)
		for i := range blocks {
			blocks[i] = uint8(rng.Uint64n(1 + rng.Uint64n(40)))
		}
		accs := accessesFromBlocks(blocks)
		shard := int(1 + rng.Uint64n(uint64(n)))

		seq := New(mem.WordGranularity)
		for _, a := range accs {
			seq.Observe(a)
		}
		par, err := MeasureParallel(trace.FromSlice(accs), mem.WordGranularity, ParallelOptions{
			Workers: 4, ShardSize: shard,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par.ReuseDistance(), seq.ReuseDistance()) ||
			!reflect.DeepEqual(par.ReuseTime(), seq.ReuseTime()) {
			t.Fatalf("trial %d (n=%d shard=%d): parallel oracle diverges from sequential",
				trial, n, shard)
		}
	}
}

// TestMeasureParallelEmpty covers the zero-access stream.
func TestMeasureParallelEmpty(t *testing.T) {
	par, err := MeasureParallel(trace.FromSlice(nil), mem.WordGranularity, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if par.Accesses() != 0 || par.DistinctBlocks() != 0 {
		t.Fatalf("empty stream: accesses=%d distinct=%d", par.Accesses(), par.DistinctBlocks())
	}
}

// TestMeasureParallelRecyclesShardBuffers checks that a measurement of
// many shards allocates no more than workers+2 shard buffers — one per
// in-flight shard plus the one being filled — and stays exact.
func TestMeasureParallelRecyclesShardBuffers(t *testing.T) {
	mk := func() trace.Reader { return trace.ZipfAccess(3, 0, 500, 1.0, 60000) }
	seq, err := Measure(mk(), mem.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		bufs := newShardBufs(workers, 1000) // 60 shards
		par, err := measureParallel(mk(), mem.WordGranularity, workers, false, bufs)
		if err != nil {
			t.Fatal(err)
		}
		if bufs.made < 1 || bufs.made > workers+2 {
			t.Errorf("workers=%d: %d shard buffers allocated for 60 shards, want 1..%d", workers, bufs.made, workers+2)
		}
		if len(bufs.free) != bufs.made {
			t.Errorf("workers=%d: %d of %d shard buffers returned", workers, len(bufs.free), bufs.made)
		}
		if !reflect.DeepEqual(par.ReuseDistance(), seq.ReuseDistance()) || !reflect.DeepEqual(par.ReuseTime(), seq.ReuseTime()) {
			t.Errorf("workers=%d: histograms differ from sequential", workers)
		}
	}
}
