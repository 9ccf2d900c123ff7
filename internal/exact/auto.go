package exact

import (
	"runtime"

	"repro/internal/mem"
	"repro/internal/trace"
)

// AutoOptions tunes MeasureAuto's sequential-vs-sharded choice on top
// of the ParallelOptions the sharded path runs under.
type AutoOptions struct {
	ParallelOptions
	// SizeHint, when > 0, is the expected stream length in accesses. A
	// stream shorter than two shards cannot overlap meaningfully, so the
	// sequential oracle is chosen regardless of core count.
	SizeHint uint64
	// Cores overrides the detected effective core count (tests and
	// experiments; <= 0 detects).
	Cores int
}

// EffectiveCores is the parallelism actually available to CPU-bound
// work: GOMAXPROCS caps the schedulable Ps, and the machine's CPU count
// caps what those Ps can run on — raising GOMAXPROCS above NumCPU buys
// nothing for compute.
func EffectiveCores() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// MeasureAuto measures a stream exhaustively, choosing between the
// sequential Olken oracle and the sharded-parallel one: sequential when
// only one effective core is available (the sharded path's boundary
// merge is pure overhead there) or when the stream is too short to
// shard; parallel otherwise. Both paths produce bit-identical
// histograms, counters and attribution, so the choice is invisible in
// the result — it only moves the throughput.
func MeasureAuto(r trace.Reader, g mem.Granularity, opt AutoOptions) (*ParallelResult, error) {
	cores := opt.Cores
	if cores <= 0 {
		cores = EffectiveCores()
	}
	shardSize := opt.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	if !pickParallel(cores, opt.SizeHint, shardSize) {
		return measureSequentialResult(r, g, opt.Attribution)
	}
	return MeasureParallel(r, g, opt.ParallelOptions)
}

// pickParallel is MeasureAuto's decision, factored out so the policy is
// testable: shard only when the stream spans at least two shards, and
// only when more than one effective core can run them.
func pickParallel(cores int, sizeHint uint64, shardSize int) bool {
	if sizeHint > 0 && sizeHint < 2*uint64(shardSize) {
		return false
	}
	return cores > 1
}

// measureSequentialResult runs the plain sequential oracle and presents
// it in the sharded result shape, so MeasureAuto has one return type.
func measureSequentialResult(r trace.Reader, g mem.Granularity, attrib bool) (*ParallelResult, error) {
	var opts []Option
	if attrib {
		opts = append(opts, WithAttribution())
	}
	p := New(g, opts...)
	if err := p.observeStream(r); err != nil {
		return nil, err
	}
	return &ParallelResult{
		distHist: p.ReuseDistance(),
		timeHist: p.ReuseTime(),
		accesses: p.Accesses(),
		distinct: p.DistinctBlocks(),
		state:    p.StateBytes(),
		pairs:    p.Pairs(),
	}, nil
}
