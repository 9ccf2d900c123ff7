// Package exact implements the exhaustive ground-truth reuse-distance
// measurement that RDX is evaluated against: Olken's algorithm, which
// observes every memory access (via instrumentation) and maintains a
// hash table of last-access times plus an order-statistics set of live
// timestamps. It yields exact reuse-distance and reuse-time histograms at
// the configured granularity — at the classic cost of instrumenting every
// access and holding per-distinct-block state, which is precisely the
// overhead the paper's motivation (experiment T1) quantifies.
package exact

import (
	"context"
	"runtime"

	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Profiler measures exact reuse distance and reuse time. Feed it every
// access through Observe (or attach it to a cpu.Machine as
// instrumentation) and read the histograms when done.
type Profiler struct {
	gran mem.Granularity
	last blockTable[lastUse] // block -> previous access
	live liveSet             // slots of the blocks' last uses
	next uint64              // the next free slot

	time     uint64
	distHist *histogram.Histogram
	timeHist *histogram.Histogram

	pairs map[PairKey]*PairAgg // nil unless WithAttribution
}

// lastUse records a block's most recent access: its time (never 0, so
// a stored lastUse is never the zero value) and its slot in the live
// set. Slots keep the order of the times they stand for.
type lastUse struct {
	time uint64
	slot uint64
}

// PairKey identifies a use→reuse pair of code sites (the exhaustive
// analogue of the profiler's sampled attribution).
type PairKey struct {
	UsePC   mem.Addr
	ReusePC mem.Addr
}

// PairAgg aggregates the exact reuses carried by one code pair.
type PairAgg struct {
	Count   uint64
	DistSum float64
}

// MeanDistance returns the pair's mean reuse distance.
func (a *PairAgg) MeanDistance() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.DistSum / float64(a.Count)
}

// Option configures a Profiler.
type Option func(*Profiler)

// WithAttribution enables exact per-code-pair aggregation (used to
// validate RDX's sampled attribution).
func WithAttribution() Option {
	return func(p *Profiler) { p.pairs = make(map[PairKey]*PairAgg) }
}

// New returns a profiler measuring at granularity g. Its state starts
// small and doubles with the footprint: a table sized for the stream
// would be sparser than its blocks, and probes would miss more cache.
func New(g mem.Granularity, opts ...Option) *Profiler {
	p := &Profiler{
		gran:     g,
		distHist: histogram.New(),
		timeHist: histogram.New(),
	}
	for _, o := range opts {
		o(p)
	}
	p.last = newBlockTable[lastUse](0, p.pairs != nil)
	p.live = newLiveSet(64)
	return p
}

// Observe records one access. Timestamps are assigned in call order.
func (p *Profiler) Observe(a mem.Access) {
	p.time++
	t := p.time
	b := p.gran.Block(a.Addr)
	i, found := p.last.find(b)
	if !found {
		p.distHist.Add(histogram.Infinite, 1)
		p.timeHist.Add(histogram.Infinite, 1)
		i = p.last.insert(i, b, lastUse{time: t, slot: p.nextSlot()})
		if p.pairs != nil {
			p.last.pcs[i] = a.PC
		}
		return
	}
	// Reuse: distance = distinct blocks touched strictly between the two
	// accesses = live last uses newer than the previous one.
	prev := &p.last.ents[i].rec
	dist := p.live.removeCountGreater(prev.slot)
	p.distHist.Add(dist, 1)
	p.timeHist.Add(t-prev.time, 1)
	if p.pairs != nil {
		addPair(p.pairs, PairKey{UsePC: p.last.pcs[i], ReusePC: a.PC}, dist)
		p.last.pcs[i] = a.PC
	}
	*prev = lastUse{time: t, slot: p.nextSlot()}
}

// nextSlot returns a live slot for a new last use, after every slot in
// use. When the bitmap is full it first renumbers every block's slot to
// its rank (dropping the dead slots) and makes room for three new slots
// per live one, so slots stay O(distinct blocks) and the renumbering is
// amortized O(1) per access. The caller's own block may hold a
// just-removed slot then; it is overwritten right after.
func (p *Profiler) nextSlot() uint64 {
	if p.next == p.live.capacity() {
		ranks := p.live.wordRanks()
		for i := range p.last.ents {
			if u := &p.last.ents[i].rec; u.time != 0 {
				u.slot = p.live.rank(u.slot, ranks)
			}
		}
		p.live.fillDense(4 * p.live.live)
		p.next = p.live.live
	}
	s := p.next
	p.next++
	p.live.insert(s)
	return s
}

// addPair bumps one code pair's exact aggregation.
func addPair(pairs map[PairKey]*PairAgg, key PairKey, dist uint64) {
	agg := pairs[key]
	if agg == nil {
		agg = &PairAgg{}
		pairs[key] = agg
	}
	agg.Count++
	agg.DistSum += float64(dist)
}

// Pairs returns the exact per-code-pair aggregation (nil unless the
// profiler was built WithAttribution).
func (p *Profiler) Pairs() map[PairKey]*PairAgg { return p.pairs }

// Instrument adapts the profiler to the cpu.Machine instrumentation hook.
func (p *Profiler) Instrument(_ uint64, a mem.Access) { p.Observe(a) }

// ReuseDistance returns the exact reuse-distance histogram (cold accesses
// recorded as infinite).
func (p *Profiler) ReuseDistance() *histogram.Histogram { return p.distHist }

// ReuseTime returns the exact reuse-time histogram.
func (p *Profiler) ReuseTime() *histogram.Histogram { return p.timeHist }

// Accesses returns the number of observed accesses.
func (p *Profiler) Accesses() uint64 { return p.time }

// DistinctBlocks returns the number of distinct blocks seen (the
// program's footprint at the measurement granularity).
func (p *Profiler) DistinctBlocks() uint64 { return uint64(p.last.n) }

// StateBytes is the profiler's heap state: the capacity of the
// last-access table plus the live-slot bitmap and its Fenwick tree. This
// is the "memory bloat" the exhaustive approach pays per distinct block.
func (p *Profiler) StateBytes() uint64 {
	return p.last.stateBytes() + p.live.stateBytes()
}

// Measure runs the profiler over an entire stream and returns it.
func Measure(r trace.Reader, g mem.Granularity) (*Profiler, error) {
	p := New(g)
	if err := p.observeStream(r); err != nil {
		return nil, err
	}
	return p, nil
}

// observeStream observes every access of r in order. Unlike a loop of
// Observe calls it sees accesses ahead, and touches their table entries
// prefetchDistance accesses early.
func (p *Profiler) observeStream(r trace.Reader) error {
	var touched mem.Addr
	err := trace.EachBatch(context.TODO(), r, func(batch []mem.Access) {
		var t mem.Addr
		n := len(batch)
		for k := range n {
			if ahead := k + prefetchDistance; ahead < n {
				t ^= p.last.touch(p.gran.Block(batch[ahead].Addr))
			}
			p.Observe(batch[k])
		}
		touched ^= t
	})
	runtime.KeepAlive(touched)
	return err
}

// NaiveReuseDistances computes reuse distances with the O(N·M)
// definition-following algorithm. It exists to property-test the
// oracle and is only usable on small traces.
func NaiveReuseDistances(accs []mem.Access, g mem.Granularity) []uint64 {
	out := make([]uint64, len(accs))
	blocks := make([]mem.Addr, len(accs))
	for i, a := range accs {
		blocks[i] = g.Block(a.Addr)
	}
	for i := range accs {
		// Find previous access to the same block.
		prev := -1
		for j := i - 1; j >= 0; j-- {
			if blocks[j] == blocks[i] {
				prev = j
				break
			}
		}
		if prev < 0 {
			out[i] = histogram.Infinite
			continue
		}
		seen := make(map[mem.Addr]struct{})
		for j := prev + 1; j < i; j++ {
			seen[blocks[j]] = struct{}{}
		}
		out[i] = uint64(len(seen))
	}
	return out
}
