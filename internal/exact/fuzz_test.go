package exact

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// maxFuzzAccesses bounds a fuzz trace: the check is quadratic in it
// (the naive reference, and one sharded run per shard size).
const maxFuzzAccesses = 320

var fuzzGranularities = []mem.Granularity{mem.ByteGranularity, mem.WordGranularity, mem.LineGranularity}

// fuzzAccesses decodes a fuzz input into a trace. Each access is two
// bytes, a kind and an operand v: kind%4 picks an address near 0 (v),
// near the top of the address space (MaxUint64-v), on a 4 KiB stride
// (v<<12), or on a power-of-two stride picked by the kind's high bits.
// Every access gets its own PC, so each exact code pair is one reuse.
func fuzzAccesses(data []byte) []mem.Access {
	accs := make([]mem.Access, min(len(data)/2, maxFuzzAccesses))
	for i := range accs {
		kind, v := data[2*i], uint64(data[2*i+1])
		var addr uint64
		switch kind % 4 {
		case 0:
			addr = v
		case 1:
			addr = math.MaxUint64 - v
		case 2:
			addr = v << 12
		default:
			addr = v << (kind >> 2 % 57)
		}
		accs[i] = mem.Access{Addr: mem.Addr(addr), PC: mem.Addr(i + 1), Size: 1, Kind: mem.Load}
	}
	return accs
}

// FuzzExactMatchesNaive checks every access's exact reuse distance
// against NaiveReuseDistances, for the sequential Profiler, Measure, and
// MeasureParallel at every shard size from 1 to the trace length.
func FuzzExactMatchesNaive(f *testing.F) {
	// Blocks 0 and MaxUint64 at every granularity.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0}, uint8(0))
	// Power-of-two strides: 4 KiB, and 1<<13, 1<<40, 1<<56.
	stride := []byte{}
	for i := 0; i < 40; i++ {
		stride = append(stride, 2, byte(i%7), 3|13<<2, byte(i%5), 3|40<<2, byte(i%3), 3|56<<2, byte(i%4))
	}
	f.Add(stride, uint8(1))
	f.Add(stride, uint8(2))
	// Long enough for the Profiler to renumber its slots several times:
	// 320 accesses over a handful of blocks fill its initial 64 slots
	// about every 60 accesses.
	long := []byte{}
	for i := 0; i < maxFuzzAccesses; i++ {
		long = append(long, byte(i%3), byte(i*7%5))
	}
	f.Add(long, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, gsel uint8) {
		accs := fuzzAccesses(data)
		g := fuzzGranularities[int(gsel)%len(fuzzGranularities)]

		seq := New(g, WithAttribution())
		if err := seq.observeStream(trace.FromSlice(accs)); err != nil {
			t.Fatal(err)
		}
		if msg := perAccessMismatch(accs, g, seq.ReuseDistance(), seq.Pairs()); msg != "" {
			t.Fatalf("Profiler at %v: %s", g, msg)
		}
		m, err := Measure(trace.FromSlice(accs), g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.ReuseDistance(), seq.ReuseDistance()) || !reflect.DeepEqual(m.ReuseTime(), seq.ReuseTime()) ||
			m.DistinctBlocks() != seq.DistinctBlocks() {
			t.Fatalf("Measure at %v differs from the attributed Profiler", g)
		}
		for shard := 1; shard <= len(accs); shard++ {
			par, err := MeasureParallel(trace.FromSlice(accs), g, ParallelOptions{
				Workers: 1 + shard%3, ShardSize: shard, Attribution: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if msg := perAccessMismatch(accs, g, par.ReuseDistance(), par.Pairs()); msg != "" {
				t.Fatalf("MeasureParallel at %v, shard %d: %s", g, shard, msg)
			}
			if !reflect.DeepEqual(par.ReuseTime(), seq.ReuseTime()) || par.Accesses() != seq.Accesses() ||
				par.DistinctBlocks() != seq.DistinctBlocks() {
				t.Fatalf("MeasureParallel at %v, shard %d: counters or reuse times differ", g, shard)
			}
		}
	})
}
