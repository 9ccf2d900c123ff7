package cache

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{SizeBytes: 1024, LineBytes: 64, Ways: 4},
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{SizeBytes: 64, LineBytes: 64, Ways: 1},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("valid config rejected: %+v: %v", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 1024, LineBytes: 48, Ways: 1},
		{SizeBytes: 1000, LineBytes: 64, Ways: 1},
		{SizeBytes: 0, LineBytes: 64},
		{SizeBytes: 128, LineBytes: 64, Ways: 3},
		{SizeBytes: 64, LineBytes: 64, Ways: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
}

func TestTinyLRUSequence(t *testing.T) {
	// Fully associative, 2 lines. Pattern (lines): A B A C B.
	c, err := New(Config{SizeBytes: 128, LineBytes: 64, Ways: 0})
	if err != nil {
		t.Fatal(err)
	}
	addr := func(line uint64) mem.Access {
		return mem.Access{Addr: mem.Addr(line * 64), Size: 8, Kind: mem.Load}
	}
	results := []struct {
		line uint64
		hit  bool
	}{
		{0, false}, // A miss
		{1, false}, // B miss
		{0, true},  // A hit
		{2, false}, // C miss, evicts B (LRU)
		{1, false}, // B miss
	}
	for i, r := range results {
		if got := c.Access(addr(r.line)); got != r.hit {
			t.Errorf("access %d (line %d): hit=%v, want %v", i, r.line, got, r.hit)
		}
	}
	if c.Accesses() != 5 {
		t.Errorf("accesses = %d, want 5", c.Accesses())
	}
	if got := c.MissRatio(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("miss ratio = %v, want 0.8", got)
	}
}

func TestSetConflicts(t *testing.T) {
	// Direct-mapped, 2 sets: lines 0 and 2 collide in set 0.
	c, err := New(Config{SizeBytes: 128, LineBytes: 64, Ways: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := mem.Access{Addr: 0, Size: 8}
	b := mem.Access{Addr: 128, Size: 8}
	c.Access(a)
	c.Access(b) // evicts a in direct-mapped set 0
	if c.Access(a) {
		t.Error("direct-mapped conflict should have evicted line 0")
	}
	// Same pattern with 2 ways keeps both.
	c2, err := New(Config{SizeBytes: 128, LineBytes: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	c2.Access(a)
	c2.Access(b)
	if !c2.Access(a) {
		t.Error("2-way cache should have kept both lines")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// Cyclic over 8 lines in a fully associative 16-line cache: only
	// cold misses.
	cfg := Config{SizeBytes: 16 * 64, LineBytes: 64, Ways: 0}
	mr, err := Simulate(lineCyclic(8, 100), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 8.0 / 800
	if math.Abs(mr-want) > 1e-12 {
		t.Errorf("miss ratio = %v, want %v (cold only)", mr, want)
	}
}

func TestThrashingLRU(t *testing.T) {
	// Cyclic over N+1 lines in an N-line LRU cache: everything misses.
	cfg := Config{SizeBytes: 8 * 64, LineBytes: 64, Ways: 0}
	mr, err := Simulate(lineCyclic(9, 50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mr != 1 {
		t.Errorf("thrash miss ratio = %v, want 1", mr)
	}
}

// lineCyclic yields laps over n distinct lines, one access per line.
func lineCyclic(n, laps uint64) trace.Reader {
	return trace.Repeat(int(laps), func() trace.Reader {
		return trace.Sequential(0, n, 64)
	})
}

// TestInclusionProperty checks the LRU stack property: any access that
// hits in a smaller fully associative LRU cache also hits in a larger
// one.
func TestInclusionProperty(t *testing.T) {
	f := func(blocks []uint8) bool {
		if len(blocks) == 0 {
			return true
		}
		small, _ := New(Config{SizeBytes: 4 * 64, LineBytes: 64, Ways: 0})
		large, _ := New(Config{SizeBytes: 16 * 64, LineBytes: 64, Ways: 0})
		for _, b := range blocks {
			a := mem.Access{Addr: mem.Addr(b) * 64, Size: 8}
			hs := small.Access(a)
			hl := large.Access(a)
			if hs && !hl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPredictionMatchesSimulationFullyAssoc is the stack-distance
// identity: for fully associative LRU, the miss ratio equals the
// fraction of accesses with reuse distance >= capacity. Bucketed
// histograms blur bucket-straddling capacities, so test at power-of-two
// capacities where buckets align.
func TestPredictionMatchesSimulationFullyAssoc(t *testing.T) {
	mk := func() trace.Reader { return trace.ZipfAccess(5, 0, 4096*8, 1.0, 300000) }
	gt, err := exact.Measure(mk(), mem.LineGranularity)
	if err != nil {
		t.Fatal(err)
	}
	rd := gt.ReuseDistance()
	for _, lines := range []uint64{16, 64, 256, 1024} {
		sim, err := Simulate(mk(), Config{SizeBytes: lines * 64, LineBytes: 64, Ways: 0})
		if err != nil {
			t.Fatal(err)
		}
		pred := PredictMissRatio(rd, lines)
		if math.Abs(pred-sim) > 0.05 {
			t.Errorf("capacity %d lines: predicted %v vs simulated %v", lines, pred, sim)
		}
	}
}

func TestPredictMissRatioEdges(t *testing.T) {
	gt, err := exact.Measure(lineCyclic(16, 10), mem.LineGranularity)
	if err != nil {
		t.Fatal(err)
	}
	rd := gt.ReuseDistance()
	if got := PredictMissRatio(rd, 0); got != 1 {
		t.Errorf("capacity 0 = %v, want 1", got)
	}
	if got := PredictMissRatio(rd, 1<<40); got >= 0.2 {
		t.Errorf("huge capacity miss ratio = %v, want cold-only", got)
	}
}

func TestMissRatioCurveMonotone(t *testing.T) {
	gt, err := exact.Measure(trace.ZipfAccess(8, 0, 1<<15, 0.9, 200000), mem.LineGranularity)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []uint64{1, 4, 16, 64, 256, 1024, 4096}
	curve := make([]float64, len(sizes))
	for i, n := range sizes {
		curve[i] = PredictMissRatio(gt.ReuseDistance(), n)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-9 {
			t.Errorf("miss-ratio curve not monotone at %d: %v", i, curve)
		}
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	if _, err := Simulate(lineCyclic(4, 1), Config{SizeBytes: 100, LineBytes: 64}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestHierarchyFiltering(t *testing.T) {
	specs := []LevelSpec{
		{Name: "L1", Config: Config{SizeBytes: 4 * 64, LineBytes: 64, Ways: 0}},
		{Name: "L2", Config: Config{SizeBytes: 16 * 64, LineBytes: 64, Ways: 0}},
	}
	h, err := NewHierarchy(specs)
	if err != nil {
		t.Fatal(err)
	}
	// Working set of 8 lines: misses L1 (4 lines), fits L2 (16 lines).
	err = trace.ForEach(lineCyclic(8, 50), func(a mem.Access) bool {
		h.Access(a)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	mrs := h.MissRatios()
	if mrs[0] < 0.9 {
		t.Errorf("L1 miss ratio = %v, want ~1 (thrashing)", mrs[0])
	}
	if mrs[1] > 0.1 {
		t.Errorf("L2 miss ratio = %v, want ~0 (fits)", mrs[1])
	}
	if got := h.Names(); len(got) != 2 || got[0] != "L1" {
		t.Errorf("Names = %v", got)
	}
}

func TestHierarchyAccessLevelIndex(t *testing.T) {
	specs := TypicalHierarchy()
	h, err := NewHierarchy(specs)
	if err != nil {
		t.Fatal(err)
	}
	a := mem.Access{Addr: 0, Size: 8}
	if lvl := h.Access(a); lvl != len(specs) {
		t.Errorf("first access hit level %d, want memory (%d)", lvl, len(specs))
	}
	if lvl := h.Access(a); lvl != 0 {
		t.Errorf("second access hit level %d, want L1 (0)", lvl)
	}
}

func TestPredictHierarchyMatchesSimulation(t *testing.T) {
	// Fully associative inclusive levels: prediction from the exact
	// histogram must track simulation at every level.
	specs := []LevelSpec{
		{Name: "small", Config: Config{SizeBytes: 64 * 64, LineBytes: 64, Ways: 0}},
		{Name: "big", Config: Config{SizeBytes: 1024 * 64, LineBytes: 64, Ways: 0}},
	}
	mk := func() trace.Reader { return trace.ZipfAccess(3, 0, 1<<16, 1.0, 300000) }
	gt, err := exact.Measure(mk(), mem.LineGranularity)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := PredictHierarchy(gt.ReuseDistance(), specs)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulateHierarchy(mk(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if math.Abs(pred[i]-sim[i]) > 0.08 {
			t.Errorf("level %s: predicted %v vs simulated %v", specs[i].Name, pred[i], sim[i])
		}
	}
}

func TestHierarchyErrors(t *testing.T) {
	if _, err := NewHierarchy(nil); err == nil {
		t.Error("empty hierarchy accepted")
	}
	bad := []LevelSpec{{Name: "x", Config: Config{SizeBytes: 100, LineBytes: 64}}}
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("invalid level accepted")
	}
	if _, err := PredictHierarchy(nil, nil); err == nil {
		t.Error("PredictHierarchy with no levels accepted")
	}
	if _, err := SimulateHierarchy(lineCyclic(2, 2), bad); err == nil {
		t.Error("SimulateHierarchy with invalid level accepted")
	}
}
