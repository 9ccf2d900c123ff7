package exact

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/trace"
)

func accessesFromBlocks(blocks []uint8) []mem.Access {
	accs := make([]mem.Access, len(blocks))
	for i, b := range blocks {
		accs[i] = mem.Access{Addr: mem.Addr(b) * 8, Size: 8, Kind: mem.Load}
	}
	return accs
}

func TestObserveSimpleSequence(t *testing.T) {
	// Blocks: A B A  → A cold, B cold, A distance 1 (B in between).
	p := New(mem.WordGranularity)
	for _, a := range accessesFromBlocks([]uint8{0, 1, 0}) {
		p.Observe(a)
	}
	rd := p.ReuseDistance()
	if got := rd.Cold(); got != 2 {
		t.Errorf("cold = %v, want 2", got)
	}
	if got := rd.Weight(1); got != 1 { // distance 1 lands in bucket 1
		t.Errorf("weight(distance 1) = %v, want 1", got)
	}
	rt := p.ReuseTime()
	if got := rt.Weight(2); got != 1 { // reuse time 2 in bucket [2,4)
		t.Errorf("weight(time 2) = %v, want 1", got)
	}
}

func TestObserveImmediateReuse(t *testing.T) {
	// A A → distance 0, time 1.
	p := New(mem.WordGranularity)
	for _, a := range accessesFromBlocks([]uint8{0, 0}) {
		p.Observe(a)
	}
	if got := p.ReuseDistance().Weight(0); got != 1 {
		t.Errorf("weight(distance 0) = %v, want 1", got)
	}
	if got := p.ReuseTime().Weight(1); got != 1 {
		t.Errorf("weight(time 1) = %v, want 1", got)
	}
}

func TestCyclicDistances(t *testing.T) {
	// Cyclic over K blocks: every post-warmup access has distance K-1.
	const k, laps = 8, 10
	p, err := Measure(trace.Cyclic(0, k, k*laps), mem.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	rd := p.ReuseDistance()
	if got := rd.Cold(); got != k {
		t.Errorf("cold = %v, want %v", got, k)
	}
	// Distance k-1 = 7 lands in bucket [4,8); every non-cold access has it.
	if got := rd.Weight(3); got != k*(laps-1) {
		t.Errorf("weight(bucket of 7) = %v, want %v", got, k*(laps-1))
	}
	rt := p.ReuseTime()
	// Reuse time is exactly k = 8 → bucket [8,16).
	if got := rt.Weight(4); got != k*(laps-1) {
		t.Errorf("weight(bucket of time 8) = %v, want %v", got, k*(laps-1))
	}
}

func TestDistinctBlocks(t *testing.T) {
	p, err := Measure(trace.Cyclic(0, 100, 1000), mem.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.DistinctBlocks(); got != 100 {
		t.Errorf("DistinctBlocks = %d, want 100", got)
	}
	if got := p.Accesses(); got != 1000 {
		t.Errorf("Accesses = %d, want 1000", got)
	}
}

func TestGranularityCoalescing(t *testing.T) {
	// Two addresses in the same 64B line are the same block at line
	// granularity but different blocks at word granularity.
	accs := []mem.Access{
		{Addr: 0, Size: 8}, {Addr: 8, Size: 8}, {Addr: 0, Size: 8},
	}
	word := New(mem.WordGranularity)
	line := New(mem.LineGranularity)
	for _, a := range accs {
		word.Observe(a)
		line.Observe(a)
	}
	if got := word.ReuseDistance().Cold(); got != 2 {
		t.Errorf("word cold = %v, want 2", got)
	}
	// At line granularity the second access is already a reuse.
	if got := line.ReuseDistance().Cold(); got != 1 {
		t.Errorf("line cold = %v, want 1", got)
	}
}

func TestStateBytesGrowsWithFootprint(t *testing.T) {
	small, _ := Measure(trace.Cyclic(0, 16, 1000), mem.WordGranularity)
	big, _ := Measure(trace.Cyclic(0, 4096, 10000), mem.WordGranularity)
	if small.StateBytes() >= big.StateBytes() {
		t.Errorf("state bytes did not grow with footprint: %d vs %d",
			small.StateBytes(), big.StateBytes())
	}
}

// TestAgainstNaive is the package's central property test: Olken's
// algorithm must agree exactly with the O(N·M) definition-following
// implementation on arbitrary traces.
func TestAgainstNaive(t *testing.T) {
	f := func(blocks []uint8) bool {
		accs := accessesFromBlocks(blocks)
		want := NaiveReuseDistances(accs, mem.WordGranularity)

		p := New(mem.WordGranularity)
		gotHist := histogram.New()
		for _, a := range accs {
			p.Observe(a)
		}
		for _, d := range want {
			gotHist.Add(d, 1)
		}
		return histogram.Accuracy(p.ReuseDistance(), gotHist) > 1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAgainstNaivePerAccess checks individual distances, not just the
// histogram: every access carries its own PC, so each exact code pair
// is one reuse and its DistSum is that reuse's distance.
func TestAgainstNaivePerAccess(t *testing.T) {
	f := func(blocks []uint8) bool {
		accs := accessesFromBlocks(blocks)
		for i := range accs {
			accs[i].PC = mem.Addr(i + 1)
		}
		p := New(mem.WordGranularity, WithAttribution())
		for _, a := range accs {
			p.Observe(a)
		}
		return perAccessMismatch(accs, mem.WordGranularity, p.ReuseDistance(), p.Pairs()) == ""
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// perAccessMismatch checks a measurement of accs — whose PCs are unique
// — against NaiveReuseDistances access by access, through the exact
// pair aggregation, and returns a description of the first mismatch or
// "".
func perAccessMismatch(accs []mem.Access, g mem.Granularity, dist *histogram.Histogram, pairs map[PairKey]*PairAgg) string {
	want := NaiveReuseDistances(accs, g)
	last := make(map[mem.Addr]mem.Addr)
	reuses := 0
	for i, a := range accs {
		b := g.Block(a.Addr)
		prev, ok := last[b]
		last[b] = a.PC
		if want[i] == histogram.Infinite {
			if ok {
				return fmt.Sprintf("access %d: naive says cold after a previous access", i)
			}
			continue
		}
		reuses++
		agg := pairs[PairKey{UsePC: prev, ReusePC: a.PC}]
		if agg == nil || agg.Count != 1 || agg.DistSum != float64(want[i]) {
			return fmt.Sprintf("access %d (block %#x): got %+v, want distance %d", i, b, agg, want[i])
		}
	}
	if len(pairs) != reuses {
		return fmt.Sprintf("%d pairs, want %d", len(pairs), reuses)
	}
	if cold := uint64(len(accs) - reuses); dist.Cold() != float64(cold) {
		return fmt.Sprintf("cold = %v, want %d", dist.Cold(), cold)
	}
	return ""
}

// TestProfilerStateBoundedByLiveBlocks streams 100K accesses over 64
// live blocks: the slot compaction must keep the state near the live
// footprint rather than growing with the stream.
func TestProfilerStateBoundedByLiveBlocks(t *testing.T) {
	p, err := Measure(trace.Cyclic(0, 64, 100000), mem.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	if p.DistinctBlocks() != 64 {
		t.Fatalf("DistinctBlocks = %d, want 64", p.DistinctBlocks())
	}
	if p.StateBytes() > 8*1024 {
		t.Errorf("StateBytes = %d after 100K accesses over 64 blocks, want <= 8 KiB", p.StateBytes())
	}
}

func TestNaiveKnownValues(t *testing.T) {
	// A B C B A → distances: inf, inf, inf, 1, 2
	accs := accessesFromBlocks([]uint8{0, 1, 2, 1, 0})
	got := NaiveReuseDistances(accs, mem.WordGranularity)
	want := []uint64{histogram.Infinite, histogram.Infinite, histogram.Infinite, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("naive[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
