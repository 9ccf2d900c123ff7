package exact

import (
	"io"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/trace"
)

// This file parallelizes Olken's algorithm across contiguous trace
// shards without giving up exactness. The decomposition:
//
//   - A reuse whose use and reuse both fall in the same shard has every
//     intervening access inside that shard too (the shard is a
//     contiguous time window), so a per-shard Olken over only the
//     shard's own accesses measures it exactly. Workers do this in
//     parallel.
//   - A reuse that crosses a shard boundary is resolved when the two
//     windows containing its use and its reuse are combined. Each
//     worker reports, per distinct block it touched, the first and last
//     access (time and PC) — its "boundary records", in first-touch
//     order. Combining two adjacent windows A·B resolves every reuse
//     whose use is A's last access of a block and whose reuse is B's
//     first: for B's record of block b first touched at time t with A's
//     last access of b at p, the distinct blocks accessed in (p, t)
//     split into (a) blocks touched earlier in B — exactly the B
//     records already processed — and (b) blocks untouched in B before
//     t whose last access in A exceeds p: a count of A's live
//     last-access times greater than p, after removing the
//     already-processed blocks' stale ones. The distance is (a) + (b);
//     every intervening access lies inside A·B, so the value is final
//     and bit-exact with the sequential algorithm no matter what
//     surrounds the pair.
//
// The combine is an associative monoid over contiguous windows (a
// combined window's boundary records are again first/last records), so
// the shards reduce in a parallel pairwise tree instead of a
// single-threaded left fold; blocks still unresolved at the root are
// the trace's true cold misses. Histogram and attribution merges only
// ever add unit-weight integer observations, so the result is identical
// (not just statistically equivalent) to Measure's, independent of
// worker count, shard size, and reduction-tree shape.

// DefaultShardSize is the default number of accesses per parallel
// shard: large enough that the O(shard log shard) local work dwarfs the
// O(distinct) merge work, small enough to bound in-flight memory
// (1M accesses × 16 B × ~workers in flight).
const DefaultShardSize = 1 << 20

// maxShardSize bounds a shard so its 1-based local clock fits a
// shardUse.
const maxShardSize = math.MaxUint32 - 1

// ParallelOptions tunes MeasureParallel.
type ParallelOptions struct {
	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// ShardSize is the number of accesses per shard; <= 0 selects
	// DefaultShardSize. The result does not depend on it.
	ShardSize int
	// Attribution enables exact per-code-pair aggregation.
	Attribution bool
}

// ParallelResult is the merged outcome of a sharded exact measurement.
// It exposes the same observers as the sequential Profiler and holds
// identical histograms.
type ParallelResult struct {
	distHist *histogram.Histogram
	timeHist *histogram.Histogram
	accesses uint64
	distinct uint64
	state    uint64
	pairs    map[PairKey]*PairAgg
}

// ReuseDistance returns the exact reuse-distance histogram.
func (r *ParallelResult) ReuseDistance() *histogram.Histogram { return r.distHist }

// ReuseTime returns the exact reuse-time histogram.
func (r *ParallelResult) ReuseTime() *histogram.Histogram { return r.timeHist }

// Accesses returns the number of observed accesses.
func (r *ParallelResult) Accesses() uint64 { return r.accesses }

// DistinctBlocks returns the number of distinct blocks seen.
func (r *ParallelResult) DistinctBlocks() uint64 { return r.distinct }

// StateBytes approximates the heap state a sequential measurement of the
// same trace would hold: a last-access table holding every distinct
// block, plus a live-slot set with one slot per block.
func (r *ParallelResult) StateBytes() uint64 { return r.state }

// Pairs returns the exact per-code-pair aggregation (nil unless
// ParallelOptions.Attribution was set).
func (r *ParallelResult) Pairs() map[PairKey]*PairAgg { return r.pairs }

// blockBoundary is one distinct block's first and last access within a
// shard, in global timestamps (1-based, as the sequential clock assigns
// them).
type blockBoundary struct {
	block     mem.Addr
	firstTime uint64
	lastTime  uint64
	firstPC   mem.Addr
	lastPC    mem.Addr
}

// shardResult is one worker's output for one contiguous shard, or the
// combination of adjacent ones.
type shardResult struct {
	start    uint64 // the global time before the window's first access
	accesses uint64
	dist     *histogram.Histogram // intra-shard reuses only
	time     *histogram.Histogram
	pairs    map[PairKey]*PairAgg // intra-shard pairs (nil without attribution)
	blocks   []blockBoundary      // distinct blocks, in first-touch order
}

// shardUse is a block's entry in a shard's table: the shard-local times
// (1-based, so a stored shardUse is never zero) of its first and last
// access. The last access's time is its live slot.
type shardUse struct {
	first uint32
	last  uint32
}

// measureShard runs local Olken over one shard. startTime is the global
// timestamp of the access before accs[0] (i.e. accs[k] executes at
// startTime+k+1), so boundary records carry globally comparable times.
// Slots are shard-local times, so the live set never needs compacting,
// and PCs are read back from accs by time, so the table keeps none.
func measureShard(accs []mem.Access, startTime uint64, g mem.Granularity, attrib bool) *shardResult {
	sr := &shardResult{
		start:    startTime,
		accesses: uint64(len(accs)),
		dist:     histogram.New(),
		time:     histogram.New(),
	}
	if attrib {
		sr.pairs = make(map[PairKey]*PairAgg)
	}
	tab := newBlockTable[shardUse](0, false)
	live := newLiveSet(uint64(len(accs)) + 1)
	var touched mem.Addr
	for k := range accs {
		if ahead := k + prefetchDistance; ahead < len(accs) {
			touched ^= tab.touch(g.Block(accs[ahead].Addr))
		}
		a := &accs[k]
		t := uint32(k) + 1
		b := g.Block(a.Addr)
		i, found := tab.find(b)
		if found {
			u := &tab.ents[i].rec
			d := live.removeCountGreater(uint64(u.last))
			sr.dist.Add(d, 1)
			sr.time.Add(uint64(t-u.last), 1)
			if attrib {
				addPair(sr.pairs, PairKey{UsePC: accs[u.last-1].PC, ReusePC: a.PC}, d)
			}
			u.last = t
		} else {
			// First touch within the shard: cold here, but possibly a
			// cross-shard reuse globally — the merge decides, so no
			// histogram entry yet.
			tab.insert(i, b, shardUse{first: t, last: t})
		}
		live.insert(uint64(t))
	}
	runtime.KeepAlive(touched)

	// The boundary records, in first-touch order: a block's index is the
	// rank of its first-touch time among all first touches.
	firsts := newLiveSet(uint64(len(accs)) + 1)
	for i := range tab.ents {
		if u := tab.ents[i].rec; u != (shardUse{}) {
			firsts.mark(uint64(u.first))
		}
	}
	ranks := firsts.wordRanks()
	sr.blocks = make([]blockBoundary, tab.n)
	for i := range tab.ents {
		e := &tab.ents[i]
		if e.rec == (shardUse{}) {
			continue
		}
		rec := &sr.blocks[firsts.rank(uint64(e.rec.first), ranks)]
		*rec = blockBoundary{
			block:     e.block,
			firstTime: startTime + uint64(e.rec.first),
			lastTime:  startTime + uint64(e.rec.last),
		}
		if attrib {
			rec.firstPC, rec.lastPC = accs[e.rec.first-1].PC, accs[e.rec.last-1].PC
		}
	}
	return sr
}

// combineShards merges two adjacent contiguous windows A·B into one,
// resolving every reuse whose use is in A and reuse in B (see the
// package comment's decomposition). It is destructive: the merged
// window lives in a, and b must not be used afterwards. The operation
// is associative, which is what licenses the parallel reduction tree.
func combineShards(a, b *shardResult, attrib bool) *shardResult {
	a.dist.AddHistogram(b.dist)
	a.time.AddHistogram(b.time)
	for key, agg := range b.pairs {
		g := a.pairs[key]
		if g == nil {
			g = &PairAgg{}
			a.pairs[key] = g
		}
		g.Count += agg.Count
		g.DistSum += agg.DistSum
	}

	// A's blocks by block number, and A's last-access times as live
	// slots indexed by time within A's window; B's records remove their
	// block's stale slot as they resolve against it.
	tab := newBlockTable[uint32](len(a.blocks), false)
	live := newLiveSet(a.accesses)
	var touched mem.Addr
	for i := range a.blocks {
		if ahead := i + prefetchDistance; ahead < len(a.blocks) {
			touched ^= tab.touch(a.blocks[ahead].block)
		}
		j, _ := tab.find(a.blocks[i].block)
		tab.insert(j, a.blocks[i].block, uint32(i)+1)
		live.mark(a.blocks[i].lastTime - a.start - 1)
	}
	live.build()
	// Resolve B's first touches in first-touch order. `removed` counts
	// B records already processed: each was accessed in B before the
	// current first touch, hence inside any A→B reuse window ending
	// here.
	var removed uint64
	a.blocks = slices.Grow(a.blocks, len(b.blocks))
	for i := range b.blocks {
		if ahead := i + prefetchDistance; ahead < len(b.blocks) {
			touched ^= tab.touch(b.blocks[ahead].block)
		}
		rec := &b.blocks[i]
		if j, ok := tab.find(rec.block); ok {
			arec := &a.blocks[tab.ents[j].rec-1]
			d := removed + live.removeCountGreater(arec.lastTime-a.start-1)
			a.dist.Add(d, 1)
			a.time.Add(rec.firstTime-arec.lastTime, 1)
			if attrib {
				addPair(a.pairs, PairKey{UsePC: arec.lastPC, ReusePC: rec.firstPC}, d)
			}
			// The block's window-wide last access is now B's.
			arec.lastTime, arec.lastPC = rec.lastTime, rec.lastPC
		} else {
			// First touch across A·B: stays a boundary record of the
			// combined window (firstTime/firstPC are B's, still correct).
			a.blocks = append(a.blocks, *rec)
		}
		removed++
	}
	runtime.KeepAlive(touched)
	a.accesses += b.accesses
	return a
}

// reduceShards folds ordered shard results into one window via a
// parallel pairwise reduction tree, bounded by `workers` concurrent
// combines. Associativity makes the tree shape invisible in the result.
func reduceShards(shards []*shardResult, workers int, attrib bool) *shardResult {
	if len(shards) == 0 {
		sr := &shardResult{dist: histogram.New(), time: histogram.New()}
		if attrib {
			sr.pairs = make(map[PairKey]*PairAgg)
		}
		return sr
	}
	sem := make(chan struct{}, workers)
	var reduce func(lo, hi int) *shardResult
	reduce = func(lo, hi int) *shardResult {
		if hi-lo == 1 {
			return shards[lo]
		}
		mid := (lo + hi) / 2
		select {
		case sem <- struct{}{}:
			// A worker slot is free: reduce the left half concurrently.
			ch := make(chan *shardResult, 1)
			go func() {
				left := reduce(lo, mid)
				<-sem
				ch <- left
			}()
			right := reduce(mid, hi)
			return combineShards(<-ch, right, attrib)
		default:
			return combineShards(reduce(lo, mid), reduce(mid, hi), attrib)
		}
	}
	return reduce(0, len(shards))
}

// finishShards turns the reduction root into the external result: every
// block still unresolved at the root is a true cold miss of the whole
// trace.
func finishShards(root *shardResult) *ParallelResult {
	res := &ParallelResult{
		distHist: root.dist,
		timeHist: root.time,
		accesses: root.accesses,
		distinct: uint64(len(root.blocks)),
		pairs:    root.pairs,
	}
	for range root.blocks {
		res.distHist.Add(histogram.Infinite, 1)
		res.timeHist.Add(histogram.Infinite, 1)
	}
	// The sequential Profiler's state for this many blocks: its table
	// sized to hold them all, and one live slot per block.
	n := len(root.blocks)
	res.state = tableBytes[lastUse](tableSize(n), root.pairs != nil) + liveSetBytes(uint64(n))
	return res
}

// MeasureParallel measures a stream exhaustively like Measure, but
// fanned out over contiguous trace shards on a bounded worker pool,
// with cross-shard reuses resolved by a parallel pairwise reduction
// over the shard results. The histograms, pair aggregation and counters
// are identical to the sequential measurement for any worker count and
// shard size. Boundary records for all shards are held until the
// reduction, so peak memory is O(sum of per-shard distinct blocks) —
// the price of a parallel (rather than streaming left-fold) merge — plus
// one bit per access of the left window in each combine.
func MeasureParallel(r trace.Reader, g mem.Granularity, opt ParallelOptions) (*ParallelResult, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shardSize := opt.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	shardSize = min(shardSize, maxShardSize)
	return measureParallel(r, g, workers, opt.Attribution, newShardBufs(workers, shardSize))
}

// shardBufs recycles shard buffers: a worker returns its buffer once
// measureShard is done with it, and the reader reuses it for a later
// shard. At most cap(free) buffers are ever allocated — one per
// in-flight shard plus the one being filled — and the reader waits for a
// returned one beyond that; free holds them all, so put never blocks.
type shardBufs struct {
	free chan []mem.Access
	size int
	made int // buffers allocated; only the reader touches it
}

func newShardBufs(workers, size int) *shardBufs {
	return &shardBufs{free: make(chan []mem.Access, workers+2), size: size}
}

func (s *shardBufs) get() []mem.Access {
	select {
	case buf := <-s.free:
		return buf
	default:
	}
	if s.made < cap(s.free) {
		s.made++
		return make([]mem.Access, s.size)
	}
	return <-s.free
}

func (s *shardBufs) put(buf []mem.Access) { s.free <- buf[:s.size] }

// measureParallel is MeasureParallel with its options resolved and its
// shard buffers drawn from bufs.
func measureParallel(r trace.Reader, g mem.Granularity, workers int, attrib bool, bufs *shardBufs) (*ParallelResult, error) {
	type job struct {
		accs  []mem.Access
		start uint64
		out   chan *shardResult
	}
	jobs := make(chan job, workers)
	// pending preserves shard order; its capacity bounds the shards in
	// flight, and bufs their memory.
	pending := make(chan chan *shardResult, workers+1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				sr := measureShard(jb.accs, jb.start, g, attrib)
				bufs.put(jb.accs)
				jb.out <- sr
			}
		}()
	}

	var readErr error
	go func() {
		defer close(pending)
		defer close(jobs)
		var start uint64
		for {
			accs := bufs.get()
			filled := 0
			done := false
			for filled < len(accs) {
				n, err := r.Read(accs[filled:])
				filled += n
				if err == io.EOF {
					done = true
					break
				}
				if err != nil {
					readErr = err
					done = true
					break
				}
			}
			if filled > 0 {
				out := make(chan *shardResult, 1)
				pending <- out
				jobs <- job{accs: accs[:filled], start: start, out: out}
				start += uint64(filled)
			}
			if filled == 0 {
				bufs.put(accs)
			}
			if done {
				return
			}
		}
	}()

	shards := make([]*shardResult, 0, workers+1)
	for out := range pending {
		shards = append(shards, <-out)
	}
	wg.Wait()
	if readErr != nil {
		return nil, readErr
	}
	return finishShards(reduceShards(shards, workers, attrib)), nil
}
