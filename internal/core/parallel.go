package core

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cpumodel"
	"repro/internal/histogram"
	"repro/internal/trace"
)

// MultiResult is the merged outcome of profiling several threads. Real
// RDX profiles multithreaded programs with per-thread PMU contexts and
// per-thread debug registers (the hardware is per-core); reuse is
// measured within each thread and the histograms are merged. Reuses
// whose use and reuse happen on different threads are not observed — a
// limitation shared with the real tool, measured by the cross-thread
// test.
type MultiResult struct {
	// Threads holds each thread's individual result, in input order.
	Threads []*Result
	// ReuseDistance and ReuseTime are the weight-merged histograms.
	ReuseDistance *histogram.Histogram
	ReuseTime     *histogram.Histogram
	// Attribution is the weight-merged code-pair breakdown.
	Attribution Attribution

	Accesses   uint64
	Samples    uint64
	ReusePairs uint64
}

// TimeOverhead returns the modelled overhead of the slowest thread
// (threads run concurrently, so the program's wall-clock overhead is
// the maximum per-thread overhead).
func (m *MultiResult) TimeOverhead() float64 {
	worst := 0.0
	for _, r := range m.Threads {
		if oh := r.TimeOverhead(); oh > worst {
			worst = oh
		}
	}
	return worst
}

// threadSeedStride de-correlates per-thread sampling phases: thread i
// profiles under Seed + i*threadSeedStride.
const threadSeedStride = 0x9e3779b9

// ThreadConfig returns the configuration thread i of a multithreaded
// profile runs under: the shared config with the seed offset by the
// thread index. It is the single source of per-thread seed derivation —
// a remote dispatcher (internal/pool) that profiles stream i on another
// machine with ThreadConfig(cfg, i) gets a result bit-identical to the
// local thread's.
func ThreadConfig(cfg Config, i int) Config {
	cfg.Seed += uint64(i) * threadSeedStride
	return cfg
}

// ProfileThreads profiles each stream as one thread of a multithreaded
// program: every thread gets its own simulated core, PMU and debug
// registers (per-thread contexts, as perf_event and ptrace provide), and
// the per-thread histograms are merged into program-level results.
// At most `workers` streams are simulated concurrently, the rest queue
// — more streams than cores multiplexes, exactly as an OS schedules
// more threads than hardware contexts; workers <= 0 selects
// runtime.GOMAXPROCS(0). Cancellation of ctx is observed by every
// worker at batch granularity, so even a profile of unbounded streams
// returns promptly with ctx.Err(). Results are deterministic and
// independent of the pool size: each thread's seed derives from its
// index alone.
func ProfileThreads(ctx context.Context, streams []trace.Reader, cfg Config, costs cpumodel.Costs, workers int) (*MultiResult, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("core: ProfileThreads with no streams")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(streams) {
		workers = len(streams)
	}
	results := make([]*Result, len(streams))
	errs := make([]error, len(streams))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				p, err := NewProfiler(ThreadConfig(cfg, i))
				if err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = p.RunContext(ctx, streams[i], costs)
			}
		}()
	}
feed:
	for i := range streams {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: thread %d: %w", i, err)
		}
	}
	// Fan the merge in as a parallel tree reduction; the exact-sum
	// Merger makes this byte-identical to a sequential fold.
	return MergeResultsParallel(results, workers), nil
}

// Merger combines per-thread (or per-shard) results into one
// program-level MultiResult, one result at a time. Locality histograms
// compose exactly across disjoint streams (Yuan et al.'s measurement
// theory), so the merge is an exact weighted sum, not an approximation;
// the merged output depends only on the set of Add calls, never on
// where each Result was produced — a result shipped back from a remote
// backend (wire.ToCore) merges bit-identically to one computed in
// process.
//
// The merge is order-independent: histogram buckets and attribution
// weights accumulate in exact extended-precision sums (see exactSum)
// and are rounded to float64 once, at Result. Any Add order — and any
// Merge tree shape — produces byte-identical aggregates, which is what
// lets ProfileThreads fan the merge out as a parallel tree reduction.
// Only MultiResult.Threads reflects Add order, by contract.
type Merger struct {
	m          *MultiResult
	dist, time histMerge
	pairs      map[PairKey]*pairAgg
	tmp        big.Float // scratch for exactSum.add
	done       bool
}

// histMerge accumulates one histogram's buckets in exact sums.
type histMerge struct {
	buckets []exactSum
	cold    exactSum
	count   uint64
}

func (hm *histMerge) add(h *histogram.Histogram, tmp *big.Float) {
	for len(hm.buckets) < h.NumBuckets() {
		hm.buckets = append(hm.buckets, exactSum{})
	}
	for b := 0; b < h.NumBuckets(); b++ {
		hm.buckets[b].add(h.Weight(b), tmp)
	}
	hm.cold.add(h.Cold(), tmp)
	hm.count += h.Count()
}

func (hm *histMerge) merge(o *histMerge) {
	for len(hm.buckets) < len(o.buckets) {
		hm.buckets = append(hm.buckets, exactSum{})
	}
	for b := range o.buckets {
		hm.buckets[b].addSum(&o.buckets[b])
	}
	hm.cold.addSum(&o.cold)
	hm.count += o.count
}

func (hm *histMerge) histogram() *histogram.Histogram {
	buckets := make([]float64, len(hm.buckets))
	for b := range hm.buckets {
		buckets[b] = hm.buckets[b].float64()
	}
	return histogram.Assemble(buckets, hm.cold.float64(), hm.count)
}

// pairAgg accumulates one code pair's statistics across threads.
type pairAgg struct {
	count            uint64
	weight, distSum  exactSum
	minTime, maxTime uint64
}

// NewMerger returns an empty merger.
func NewMerger() *Merger {
	return &Merger{
		m:     &MultiResult{},
		pairs: make(map[PairKey]*pairAgg),
	}
}

// Add folds one thread's result into the merge. The result is retained
// in MultiResult.Threads in Add order.
func (g *Merger) Add(r *Result) {
	if g.done {
		panic("core: Merger.Add after Result")
	}
	m := g.m
	m.Threads = append(m.Threads, r)
	g.dist.add(r.ReuseDistance, &g.tmp)
	g.time.add(r.ReuseTime, &g.tmp)
	m.Accesses += r.Accesses
	m.Samples += r.Samples
	m.ReusePairs += r.ReusePairs
	for _, p := range r.Attribution {
		a := g.pairs[p.Pair]
		if a == nil {
			a = &pairAgg{minTime: p.MinTime, maxTime: p.MaxTime}
			g.pairs[p.Pair] = a
		}
		a.count += p.Count
		a.weight.add(p.Weight, &g.tmp)
		a.distSum.add(p.Weight*p.MeanDistance, &g.tmp)
		if p.MinTime < a.minTime {
			a.minTime = p.MinTime
		}
		if p.MaxTime > a.maxTime {
			a.maxTime = p.MaxTime
		}
	}
}

// Merge folds another merger's accumulated state into g: o's threads
// are appended after g's, and every exact aggregate combines without
// rounding, so a tree of Merges is byte-identical to a sequential fold
// over the same results. o must not be used afterwards.
func (g *Merger) Merge(o *Merger) {
	if g.done || o.done {
		panic("core: Merger.Merge after Result")
	}
	m := g.m
	m.Threads = append(m.Threads, o.m.Threads...)
	g.dist.merge(&o.dist)
	g.time.merge(&o.time)
	m.Accesses += o.m.Accesses
	m.Samples += o.m.Samples
	m.ReusePairs += o.m.ReusePairs
	for k, oa := range o.pairs {
		a := g.pairs[k]
		if a == nil {
			g.pairs[k] = oa
			continue
		}
		a.count += oa.count
		a.weight.addSum(&oa.weight)
		a.distSum.addSum(&oa.distSum)
		if oa.minTime < a.minTime {
			a.minTime = oa.minTime
		}
		if oa.maxTime > a.maxTime {
			a.maxTime = oa.maxTime
		}
	}
}

// Result finalizes and returns the merged view. The attribution order
// is total (weight desc, then use PC, then reuse PC), so the merged
// result is a pure function of the added results — map iteration order
// cannot leak through. The merger must not be used again.
func (g *Merger) Result() *MultiResult {
	if g.done {
		panic("core: Merger.Result called twice")
	}
	g.done = true
	m := g.m
	m.ReuseDistance = g.dist.histogram()
	m.ReuseTime = g.time.histogram()
	for k, a := range g.pairs {
		w := a.weight.float64()
		ps := PairStat{Pair: k, Count: a.count, Weight: w, MinTime: a.minTime, MaxTime: a.maxTime}
		if w > 0 {
			ps.MeanDistance = a.distSum.float64() / w
		}
		m.Attribution = append(m.Attribution, ps)
	}
	sort.Slice(m.Attribution, func(i, j int) bool {
		if m.Attribution[i].Weight != m.Attribution[j].Weight {
			return m.Attribution[i].Weight > m.Attribution[j].Weight
		}
		if m.Attribution[i].Pair.UsePC != m.Attribution[j].Pair.UsePC {
			return m.Attribution[i].Pair.UsePC < m.Attribution[j].Pair.UsePC
		}
		return m.Attribution[i].Pair.ReusePC < m.Attribution[j].Pair.ReusePC
	})
	return m
}

// MergeResults combines per-thread results into one program-level view:
// NewMerger, Add in order, Result.
func MergeResults(results []*Result) *MultiResult {
	g := NewMerger()
	for _, r := range results {
		g.Add(r)
	}
	return g.Result()
}

// mergeFanInMin is the result count below which a parallel merge tree
// is pure overhead.
const mergeFanInMin = 4

// MergeResultsParallel is MergeResults fanned out as a parallel tree
// reduction: the results split into contiguous chunks folded
// concurrently, and the chunk mergers combine pairwise. Because the
// merge aggregates are exact sums, the output is byte-identical to the
// sequential MergeResults — Threads order included (chunks are
// contiguous and combine left-to-right). workers <= 0 selects
// runtime.GOMAXPROCS(0); with one worker or few results it simply runs
// sequentially.
func MergeResultsParallel(results []*Result, workers int) *MultiResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(results) {
		workers = len(results)
	}
	if workers <= 1 || len(results) < mergeFanInMin {
		return MergeResults(results)
	}
	// Fold phase: one contiguous chunk per worker.
	mergers := make([]*Merger, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := len(results) * w / workers
		hi := len(results) * (w + 1) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			g := NewMerger()
			for _, r := range results[lo:hi] {
				g.Add(r)
			}
			mergers[w] = g
		}(w, lo, hi)
	}
	wg.Wait()
	// Reduce phase: combine adjacent pairs, halving each level.
	for len(mergers) > 1 {
		next := make([]*Merger, (len(mergers)+1)/2)
		var rw sync.WaitGroup
		for i := 0; i < len(mergers); i += 2 {
			if i+1 == len(mergers) {
				next[i/2] = mergers[i]
				continue
			}
			rw.Add(1)
			go func(i int) {
				defer rw.Done()
				mergers[i].Merge(mergers[i+1])
				next[i/2] = mergers[i]
			}(i)
		}
		rw.Wait()
		mergers = next
	}
	return mergers[0].Result()
}
