// Black-box differential and property tests; the package is imported
// externally because they drive real profiles through internal/core,
// which itself links the mrc analysis layer into core.Result.
package mrc_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/exact"
	"repro/internal/footprint"
	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"

	. "repro/internal/mrc"
)

const testN = 200_000

// phasedTrace is a three-phase Markov workload (hot zipf set, cold
// sequential scan, clustered object walk) used by the integration tests.
func phasedTrace(seed, n uint64) trace.Reader {
	phases := []trace.MarkovPhase{
		{Name: "hot", Dwell: 20_000, New: func() trace.Reader {
			return trace.ZipfAccess(seed, 0, 1<<12, 1.1, n)
		}},
		{Name: "scan", Dwell: 10_000, New: func() trace.Reader {
			return trace.Sequential(1<<22, n, 64)
		}},
		{Name: "cluster", Dwell: 15_000, New: func() trace.Reader {
			return trace.SpatialCluster(seed+1, 1<<23, 1024, 32, 8, n)
		}},
	}
	tr := [][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	return trace.MarkovPhases(seed, phases, tr, n)
}

// generators is the cross-generator test matrix: synthetic patterns,
// a phased composite, and two workload-suite members.
func generators(t *testing.T) map[string]func() trace.Reader {
	t.Helper()
	gens := map[string]func() trace.Reader{
		"zipf": func() trace.Reader { return trace.ZipfAccess(7, 0, 1<<15, 0.9, testN) },
		// objSize 40 words = 5 lines: an odd line stride, so objects do
		// not alias into a subset of the cache sets (distance-only
		// models assume uniform set usage; power-of-two-aligned objects
		// would violate it by construction).
		"cluster": func() trace.Reader {
			return trace.SpatialCluster(11, 0, 1536, 40, 16, testN)
		},
		"phased": func() trace.Reader { return phasedTrace(13, testN) },
	}
	for _, name := range []string{"lbm", "mcf"} {
		name := name
		gens[name] = func() trace.Reader {
			r, err := workloads.Build(name, 3, testN)
			if err != nil {
				t.Fatalf("workloads.Build(%s): %v", name, err)
			}
			return r
		}
	}
	return gens
}

func exactLineHistogram(t *testing.T, mk func() trace.Reader) *histogram.Histogram {
	t.Helper()
	gt, err := exact.Measure(mk(), mem.LineGranularity)
	if err != nil {
		t.Fatal(err)
	}
	return gt.ReuseDistance()
}

// checkCurve asserts the package-wide curve invariants: non-empty,
// strictly increasing capacities, ratios bounded in [0,1] and monotone
// non-increasing.
func checkCurve(t *testing.T, label string, c *Curve) {
	t.Helper()
	if len(c.Points) == 0 {
		t.Fatalf("%s: empty curve", label)
	}
	for i, p := range c.Points {
		if p.MissRatio < 0 || p.MissRatio > 1 || math.IsNaN(p.MissRatio) {
			t.Fatalf("%s: point %d ratio %v out of [0,1]", label, i, p.MissRatio)
		}
		if p.Bytes != p.Lines*c.BlockBytes {
			t.Fatalf("%s: point %d bytes %d != lines %d * block %d", label, i, p.Bytes, p.Lines, c.BlockBytes)
		}
		if i == 0 {
			continue
		}
		if p.Lines <= c.Points[i-1].Lines {
			t.Fatalf("%s: capacities not increasing at %d: %d <= %d", label, i, p.Lines, c.Points[i-1].Lines)
		}
		if p.MissRatio > c.Points[i-1].MissRatio+1e-12 {
			t.Fatalf("%s: ratios not monotone at %d: %v > %v", label, i, p.MissRatio, c.Points[i-1].MissRatio)
		}
	}
}

// TestCurvePropertiesAllPoliciesAndGenerators is the satellite property
// test: every curve the package produces — histogram- or
// footprint-based, from sampled profiles under every replacement policy
// and from exact profiles of every generator — is monotone
// non-increasing in cache size and bounded in [0,1].
func TestCurvePropertiesAllPoliciesAndGenerators(t *testing.T) {
	policies := []core.ReplacementPolicy{
		core.ReplaceProbabilistic, core.ReplaceReservoir, core.ReplaceAlways,
		core.ReplaceNever, core.ReplaceHybrid,
	}
	for _, pol := range policies {
		cfg := core.DefaultConfig()
		cfg.SamplePeriod = 512
		cfg.Granularity = mem.LineGranularity
		cfg.Replacement = pol
		p, err := core.NewProfiler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(trace.ZipfAccess(5, 0, 1<<14, 1.0, testN), cpumodel.Default())
		if err != nil {
			t.Fatal(err)
		}
		label := "policy=" + pol.String()
		checkCurve(t, label+"/hist", FromHistogram(res.ReuseDistance, 64, Sweep{}))
		checkCurve(t, label+"/footprint", FromFootprint(res.Footprint, 64, Sweep{MaxLines: 1 << 20}))
	}
	for name, mk := range generators(t) {
		rd := exactLineHistogram(t, mk)
		checkCurve(t, name+"/hist", FromHistogram(rd, 64, Sweep{}))
		checkCurve(t, name+"/hist-dense", FromHistogram(rd, 64, Sweep{PointsPerDoubling: 4}))
	}
}

// TestCurveFullyAssocDifferential validates the fully associative curve
// against the reference simulator at bucket-aligned capacities, within
// the committed TolFullyAssoc, on every generator.
func TestCurveFullyAssocDifferential(t *testing.T) {
	for name, mk := range generators(t) {
		rd := exactLineHistogram(t, mk)
		curve := FromHistogram(rd, 64, Sweep{})
		for _, lines := range []uint64{16, 64, 256, 1024, 4096} {
			sim, err := cache.Simulate(mk(), cache.Config{SizeBytes: lines * 64, LineBytes: 64, Ways: 0})
			if err != nil {
				t.Fatal(err)
			}
			if pred := curve.At(lines); math.Abs(pred-sim) > TolFullyAssoc {
				t.Errorf("%s @%d lines: predicted %.4f vs simulated %.4f (tol %v)",
					name, lines, pred, sim, TolFullyAssoc)
			}
		}
	}
}

// TestPredictCacheSetAssocDifferential validates the per-set distance
// correction against simulated set-associative caches within
// TolSetAssoc.
func TestPredictCacheSetAssocDifferential(t *testing.T) {
	configs := []cache.Config{
		{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 1}, // direct-mapped
		{SizeBytes: 32 << 10, LineBytes: 64, Ways: 4},
		{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8},
		{SizeBytes: 256 << 10, LineBytes: 64, Ways: 16},
	}
	for name, mk := range generators(t) {
		rd := exactLineHistogram(t, mk)
		for _, cfg := range configs {
			sim, err := cache.Simulate(mk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := PredictCache(rd, cfg, 64)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(pred-sim) > TolSetAssoc {
				t.Errorf("%s %dKiB/%d-way: predicted %.4f vs simulated %.4f (tol %v)",
					name, cfg.SizeBytes>>10, cfg.Ways, pred, sim, TolSetAssoc)
			}
		}
	}
}

// TestPredictLevelsDifferential is the satellite integration test:
// hierarchy predictions track cache.SimulateHierarchy level by level on
// phased and workload-suite generators, within TolHierarchy. Levels the
// simulation barely exercises (under 2% of accesses arriving) are
// skipped — their simulated local ratios are noise.
func TestPredictLevelsDifferential(t *testing.T) {
	specs := []cache.LevelSpec{
		{Name: "L1", Config: cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4}},
		{Name: "L2", Config: cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8}},
		{Name: "L3", Config: cache.Config{SizeBytes: 512 << 10, LineBytes: 64, Ways: 0}},
	}
	for name, mk := range generators(t) {
		rd := exactLineHistogram(t, mk)
		sims, err := cache.SimulateHierarchy(mk(), specs)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := PredictLevels(rd, specs, 64)
		if err != nil {
			t.Fatal(err)
		}
		locals := pred.Locals()
		arrival := 1.0
		for i := range specs {
			if arrival >= 0.02 && math.Abs(locals[i]-sims[i]) > TolHierarchy {
				t.Errorf("%s %s: predicted local %.4f vs simulated %.4f (tol %v)",
					name, specs[i].Name, locals[i], sims[i], TolHierarchy)
			}
			arrival *= sims[i]
		}
		// Global ratios must be monotone non-increasing down the levels.
		for i := 1; i < len(pred.Levels); i++ {
			if pred.Levels[i].Global > pred.Levels[i-1].Global+1e-12 {
				t.Errorf("%s: global ratios not monotone: %v", name, pred.Levels)
			}
		}
	}
}

// TestTransformMissInclusiveIdentity checks the fully associative
// exactness of the hierarchy recursion: the predicted L2 local miss
// ratio equals the inclusive closed form
// (W(d >= C2) + cold) / (W(d >= C1) + cold) evaluated on the same
// histogram — the identity the repo's reference PredictHierarchy is
// validated on — up to sub-bucket re-bucketing blur.
func TestTransformMissInclusiveIdentity(t *testing.T) {
	rd := exactLineHistogram(t, func() trace.Reader {
		return trace.ZipfAccess(21, 0, 1<<14, 0.7, testN)
	})
	const c1, c2 = 64, 512 // bucket-aligned thresholds
	specs := []cache.LevelSpec{
		{Name: "L1", Config: cache.Config{SizeBytes: c1 * 64, LineBytes: 64, Ways: 0}},
		{Name: "L2", Config: cache.Config{SizeBytes: c2 * 64, LineBytes: 64, Ways: 0}},
	}
	pred, err := PredictLevels(rd, specs, 64)
	if err != nil {
		t.Fatal(err)
	}
	outer := rd.FractionAbove(c2)
	inner := rd.FractionAbove(c1)
	if inner == 0 {
		t.Fatal("degenerate test histogram")
	}
	want := outer / inner
	if got := pred.Levels[1].Local; math.Abs(got-want) > 0.05 {
		t.Errorf("L2 local = %.4f, want inclusive identity %.4f", got, want)
	}
	if got, want := pred.Levels[0].Local, rd.FractionAbove(c1); math.Abs(got-want) > 1e-12 {
		t.Errorf("L1 local = %v, want FractionAbove = %v", got, want)
	}
}

// TestFromFootprintSmooth checks the footprint-based curve agrees with
// the histogram-based one at matched capacities and reaches the
// cold-miss floor at huge sizes.
func TestFromFootprintSmooth(t *testing.T) {
	mk := func() trace.Reader { return trace.ZipfAccess(17, 0, 1<<14, 1.0, testN) }
	gt, err := exact.Measure(mk(), mem.LineGranularity)
	if err != nil {
		t.Fatal(err)
	}
	rd := gt.ReuseDistance()
	times := gt.ReuseTime()
	var samples []uint64
	var weights []float64
	for b := 0; b < times.NumBuckets(); b++ {
		if w := times.Weight(b); w > 0 {
			samples = append(samples, histogram.BucketLow(b))
			weights = append(weights, w)
		}
	}
	est := footprint.NewWeightedEstimator(samples, weights, times.Cold(), testN)
	fc := FromFootprint(est, 64, Sweep{MaxLines: 1 << 22})
	checkCurve(t, "footprint", fc)
	hc := FromHistogram(rd, 64, Sweep{})
	for _, lines := range []uint64{64, 256, 1024} {
		if d := math.Abs(fc.At(lines) - hc.At(lines)); d > 0.25 {
			t.Errorf("@%d lines: footprint %.4f vs histogram %.4f differ by %.4f",
				lines, fc.At(lines), hc.At(lines), d)
		}
	}
	// At capacities beyond the footprint, only cold misses remain.
	coldFloor := rd.Cold() / rd.Total()
	if last := fc.Points[len(fc.Points)-1].MissRatio; last > coldFloor+0.05 {
		t.Errorf("saturated curve ends at %.4f, want near cold floor %.4f", last, coldFloor)
	}
}

func TestParseSpec(t *testing.T) {
	base := []cache.LevelSpec{
		{Name: "L1", Config: cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}},
		{Name: "L2", Config: cache.Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16}},
	}
	got, err := ParseSpec("l2.size=2x", base)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Config.SizeBytes != 2<<20 {
		t.Errorf("l2.size=2x -> %d", got[1].Config.SizeBytes)
	}
	if base[1].Config.SizeBytes != 1<<20 {
		t.Error("ParseSpec mutated the base hierarchy")
	}
	got, err = ParseSpec(" L1.ways=4 , l2.size=256KiB ", base)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Config.Ways != 4 || got[1].Config.SizeBytes != 256<<10 {
		t.Errorf("multi-clause spec -> %+v", got)
	}
	got, err = ParseSpec("l2.ways=full", base)
	if err != nil || got[1].Config.Ways != 0 {
		t.Errorf("ways=full -> %+v, %v", got, err)
	}
	got, err = ParseSpec("l1.size=0.5x,l1.line=128", base)
	if err != nil || got[0].Config.SizeBytes != 16<<10 || got[0].Config.LineBytes != 128 {
		t.Errorf("fractional size + line -> %+v, %v", got, err)
	}

	bad := []string{
		"",
		"l2.size",                      // no value
		"size=2x",                      // no level
		"l9.size=2x",                   // unknown level
		"l2.banks=4",                   // unknown parameter
		"l2.size=big",                  // unparsable size
		"l2.size=-1x",                  // negative multiplier
		"l2.ways=-3",                   // negative ways
		"l2.ways=nope",                 // unparsable ways
		"l2.line=0",                    // zero line
		"l2.line=48",                   // not a power of two (Validate)
		"l1.ways=7",                    // ways do not divide lines (Validate)
		"l2.size=2x,l2.size",           // valid clause then malformed
		"l2.size=99999999999999999999", // does not fit uint64
		"l1.size=17179869185GiB",       // 2^64 + 1 GiB: the multiply wraps
		"l1.size=18014398509481985KiB", // 2^64 + 1 KiB: the multiply wraps
		"l1.size=nanx",                 // not-a-number multiplier
		"l1.size=infx",                 // infinite multiplier
		"l1.size=1e300x",               // finite, but past 2^64 bytes
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec, base); err == nil {
			t.Errorf("spec %q accepted, want error", spec)
		}
	}
}

func TestWhatIfReport(t *testing.T) {
	rd := exactLineHistogram(t, func() trace.Reader {
		return trace.ZipfAccess(31, 0, 1<<15, 0.9, testN)
	})
	base := []cache.LevelSpec{
		{Name: "L1", Config: cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4}},
		{Name: "L2", Config: cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 0}},
	}
	rep, err := WhatIf(rd, 64, base, "l2.size=2x", Sweep{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Modified.Levels[1].SizeBytes != 128<<10 {
		t.Errorf("modified L2 size = %d", rep.Modified.Levels[1].SizeBytes)
	}
	// Doubling a fully associative L2 cannot increase its global misses.
	if rep.Modified.Levels[1].Global > rep.Base.Levels[1].Global+1e-9 {
		t.Errorf("doubling L2 raised global miss ratio: %v -> %v",
			rep.Base.Levels[1].Global, rep.Modified.Levels[1].Global)
	}
	checkCurve(t, "whatif", rep.Curve)
	out := rep.String()
	if !strings.Contains(out, "what-if: l2.size=2x") || !strings.Contains(out, "L2") {
		t.Errorf("report text missing fields:\n%s", out)
	}
	if _, err := WhatIf(rd, 64, base, "l2.size=", Sweep{}); err == nil {
		t.Error("malformed spec accepted by WhatIf")
	}
}

func TestAMAT(t *testing.T) {
	p := &HierarchyPrediction{Levels: []LevelPrediction{
		{Name: "L1", Local: 0.5},
		{Name: "L2", Local: 0.2},
	}}
	got, err := p.AMAT([]float64{1, 10}, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 0.5*(10+0.2*100)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AMAT = %v, want %v", got, want)
	}
	if _, err := p.AMAT([]float64{1}, 100); err == nil {
		t.Error("AMAT accepted mismatched latency vector")
	}
}

func TestPredictCacheEdgeCases(t *testing.T) {
	empty := histogram.New()
	mr, err := PredictCache(empty, cache.Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2}, 64)
	if err != nil || mr != 0 {
		t.Errorf("empty histogram -> %v, %v", mr, err)
	}
	if _, err := PredictCache(empty, cache.Config{SizeBytes: 100, LineBytes: 48}, 64); err == nil {
		t.Error("invalid config accepted")
	}
	// All-cold histogram misses everywhere.
	cold := histogram.New()
	cold.Add(histogram.Infinite, 10)
	mr, err = PredictCache(cold, cache.Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 8}, 64)
	if err != nil || mr != 1 {
		t.Errorf("all-cold -> %v, %v, want 1", mr, err)
	}
	if _, err := PredictLevels(cold, nil, 64); err == nil {
		t.Error("empty hierarchy accepted")
	}
}

// TestSweepBounded: a sweep can come from a remote /whatif body, so a
// hostile one must still yield a bounded, increasing grid, and quickly.
// Unbounded, max_lines = 2^64-1 never ended (a float past 2^63 converts
// to 2^63 on amd64, so the octave loop never saw its end), and
// 2^26 points per doubling ran for seconds.
func TestSweepBounded(t *testing.T) {
	rd := histogram.New()
	for v := uint64(1); v < 1<<20; v *= 3 {
		rd.Add(v, 1)
	}
	rd.Add(histogram.Infinite, 1)
	// 49 octaves from one line to MaxSweepLines, each at most
	// MaxPointsPerDoubling sizes, plus the closing MaxLines point.
	const maxPoints = 49*MaxPointsPerDoubling + 1
	cases := []struct {
		name  string
		sweep Sweep
	}{
		{"max_lines 2^64-1", Sweep{MaxLines: math.MaxUint64}},
		{"max_lines 2^63", Sweep{MaxLines: 1 << 63}},
		{"min_lines 2^64-1", Sweep{MinLines: math.MaxUint64}},
		{"both 2^64-1, every point", Sweep{MinLines: math.MaxUint64, MaxLines: math.MaxUint64, PointsPerDoubling: math.MaxInt}},
		{"2^26 points per doubling", Sweep{MaxLines: 1 << 20, PointsPerDoubling: 1 << 26}},
		{"max int points per doubling", Sweep{PointsPerDoubling: math.MaxInt}},
		{"widest grid", Sweep{MinLines: 1, MaxLines: math.MaxUint64, PointsPerDoubling: math.MaxInt}},
		{"min past max", Sweep{MinLines: 1 << 62, MaxLines: 4}},
	}
	for _, tc := range cases {
		done := make(chan *Curve, 1)
		go func() { done <- FromHistogram(rd, 64, tc.sweep) }()
		var c *Curve
		select {
		case c = <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: %+v still sweeping after 5s", tc.name, tc.sweep)
		}
		if n := len(c.Points); n == 0 || n > maxPoints {
			t.Errorf("%s: %d points, want 1..%d", tc.name, n, maxPoints)
			continue
		}
		for i, p := range c.Points {
			if p.Lines == 0 || p.Lines > MaxSweepLines || i > 0 && p.Lines <= c.Points[i-1].Lines {
				t.Errorf("%s: point %d at %d lines, after %d", tc.name, i, p.Lines, c.Points[max(i-1, 0)].Lines)
				break
			}
		}
	}
}
