package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/exact"
	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// testConfig returns a config tuned for the short traces used in unit
// tests: a small sampling period so enough samples land.
func testConfig(period uint64) Config {
	cfg := DefaultConfig()
	cfg.SamplePeriod = period
	return cfg
}

func runRDX(t *testing.T, cfg Config, r trace.Reader) *Result {
	t.Helper()
	p, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(r, cpumodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{SamplePeriod: 100, NumWatchpoints: 0, WatchWidth: 8},
		{SamplePeriod: 100, NumWatchpoints: 4, WatchWidth: 3},
		{SamplePeriod: 100, NumWatchpoints: 4, WatchWidth: 8, Skid: -1},
		{SamplePeriod: 100, NumWatchpoints: 4, WatchWidth: 8, Replacement: ReplaceHybrid + 1},
		{SamplePeriod: 100, NumWatchpoints: 4, WatchWidth: 8, Replacement: -1},
		{SamplePeriod: 100, NumWatchpoints: 4, WatchWidth: 8, Granularity: 13},
		{SamplePeriod: 100, NumWatchpoints: 4, WatchWidth: 8, Granularity: 200},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
		if _, err := NewProfiler(cfg); err == nil {
			t.Errorf("NewProfiler accepted config %d", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	page := DefaultConfig()
	page.Granularity = 12
	if err := page.Validate(); err != nil {
		t.Errorf("4 KiB granularity invalid: %v", err)
	}
}

func TestReplacementPolicyString(t *testing.T) {
	if ReplaceReservoir.String() != "reservoir" ||
		ReplaceAlways.String() != "always" ||
		ReplaceNever.String() != "never" {
		t.Error("policy names wrong")
	}
}

func TestCyclicReuseTimesExact(t *testing.T) {
	// Cyclic over K words: every reuse time is exactly K. Each sampled
	// watchpoint must measure exactly K.
	const k, n = 128, 200000
	res := runRDX(t, testConfig(1000), trace.Cyclic(0, k, n))
	if res.ReusePairs == 0 {
		t.Fatal("no reuse pairs measured")
	}
	rt := res.ReuseTime
	// All finite weight must sit in the bucket containing K.
	wantBucket := 0
	for b := 0; b < rt.NumBuckets(); b++ {
		if histogram.BucketLow(b) <= k && k <= histogram.BucketHigh(b) {
			wantBucket = b
		}
	}
	if got := rt.Weight(wantBucket); math.Abs(got-rt.TotalFinite()) > 1e-9 {
		t.Errorf("reuse time mass outside bucket of %d: %v of %v", k, got, rt.TotalFinite())
	}
}

func TestCyclicDistanceAccuracy(t *testing.T) {
	const k, n = 128, 200000
	res := runRDX(t, testConfig(1000), trace.Cyclic(0, k, n))
	gt, err := exact.Measure(trace.Cyclic(0, k, n), mem.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	acc := histogram.Accuracy(res.ReuseDistance, gt.ReuseDistance())
	if acc < 0.95 {
		t.Errorf("cyclic accuracy = %v, want >= 0.95", acc)
	}
}

func TestRandomWorkloadAccuracy(t *testing.T) {
	const blocks, n = 4096, 500000
	mk := func() trace.Reader { return trace.RandomUniform(3, 0, blocks, n) }
	res := runRDX(t, testConfig(500), mk())
	gt, err := exact.Measure(mk(), mem.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	acc := histogram.Accuracy(res.ReuseDistance, gt.ReuseDistance())
	if acc < 0.90 {
		t.Errorf("random accuracy = %v, want >= 0.90", acc)
	}
}

func TestZipfWorkloadAccuracy(t *testing.T) {
	const blocks, n = 8192, 500000
	mk := func() trace.Reader { return trace.ZipfAccess(9, 0, blocks, 1.0, n) }
	res := runRDX(t, testConfig(500), mk())
	gt, err := exact.Measure(mk(), mem.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	acc := histogram.Accuracy(res.ReuseDistance, gt.ReuseDistance())
	if acc < 0.85 {
		t.Errorf("zipf accuracy = %v, want >= 0.85", acc)
	}
}

func TestSamplesApproximatelyPeriodic(t *testing.T) {
	const n, period = 1000000, 10000
	res := runRDX(t, testConfig(period), trace.Cyclic(0, 64, n))
	want := float64(n) / period
	if got := float64(res.Samples); got < want*0.8 || got > want*1.2 {
		t.Errorf("samples = %v, want ~%v", got, want)
	}
}

func TestColdSamplesForStreaming(t *testing.T) {
	// A pure one-pass stream never reuses: every armed watchpoint stays
	// cold and the distance histogram must be all-cold.
	res := runRDX(t, testConfig(1000), trace.Sequential(0, 100000, 8))
	if res.ReusePairs != 0 {
		t.Errorf("streaming measured %d reuse pairs", res.ReusePairs)
	}
	if res.ColdSamples == 0 {
		t.Error("streaming produced no cold samples")
	}
	rd := res.ReuseDistance
	if rd.TotalFinite() != 0 {
		t.Errorf("streaming distance histogram has finite mass %v", rd.TotalFinite())
	}
}

func TestWatchpointLimitRespected(t *testing.T) {
	// With period 1 every access is sampled; the profiler must survive
	// register exhaustion via its replacement policy.
	for _, pol := range []ReplacementPolicy{ReplaceReservoir, ReplaceAlways, ReplaceNever} {
		cfg := testConfig(1)
		cfg.RandomizePeriod = false
		cfg.Replacement = pol
		res := runRDX(t, cfg, trace.RandomUniform(1, 0, 1024, 50000))
		switch pol {
		case ReplaceNever:
			if res.Dropped == 0 {
				t.Errorf("%v: no drops under sample storm", pol)
			}
		default:
			if res.Evicted == 0 {
				t.Errorf("%v: no evictions under sample storm", pol)
			}
		}
	}
}

func TestDuplicateBlockSamplesDropped(t *testing.T) {
	// Duplicates arise when the granularity is wider than the watch
	// width: a sample lands on a different word of an already-watched
	// line (the watchpoint covers only the first word, so no trap
	// disarmed it). All but the first concurrent sample for a block must
	// be dropped.
	cfg := testConfig(3)
	cfg.RandomizePeriod = false
	cfg.Granularity = mem.LineGranularity
	res := runRDX(t, cfg, trace.Cyclic(0, 64, 100000)) // 8 lines, word stride
	if res.Duplicates == 0 {
		t.Error("no duplicate samples detected on multi-word-per-line workload")
	}
	if res.Dropped < res.Duplicates {
		t.Errorf("dropped %d < duplicates %d", res.Dropped, res.Duplicates)
	}
}

func TestResultTwicePanics(t *testing.T) {
	p, err := NewProfiler(testConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(trace.Cyclic(0, 8, 1000), cpumodel.Default()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("second Result did not panic")
		}
	}()
	p.Result()
}

func TestOverheadSmallAtFeatherlightPeriod(t *testing.T) {
	cfg := testConfig(64 << 10)
	res := runRDX(t, cfg, trace.Cyclic(0, 4096, 2000000))
	if oh := res.TimeOverhead(); oh > 0.10 {
		t.Errorf("featherlight overhead = %v, want <= 10%%", oh)
	}
	if oh := res.TimeOverhead(); oh <= 0 {
		t.Errorf("overhead = %v, want > 0", oh)
	}
}

func TestOverheadScalesWithPeriod(t *testing.T) {
	run := func(period uint64) float64 {
		res := runRDX(t, testConfig(period), trace.Cyclic(0, 4096, 1000000))
		return res.TimeOverhead()
	}
	fast := run(1 << 10)
	slow := run(64 << 10)
	if fast <= slow {
		t.Errorf("overhead did not grow with sampling rate: %v (1K) vs %v (64K)", fast, slow)
	}
}

func TestMemOverhead(t *testing.T) {
	res := runRDX(t, testConfig(1000), trace.Cyclic(0, 4096, 100000))
	if res.StateBytes == 0 {
		t.Fatal("no state bytes reported")
	}
	app := uint64(100 << 20)
	if got := res.MemOverhead(app); math.Abs(got-float64(res.StateBytes)/float64(app)) > 1e-12 {
		t.Errorf("MemOverhead = %v", got)
	}
	if got := res.MemOverhead(0); got != 0 {
		t.Errorf("MemOverhead(0) = %v", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	mk := func() trace.Reader { return trace.ZipfAccess(4, 0, 2048, 1.0, 300000) }
	a := runRDX(t, testConfig(777), mk())
	b := runRDX(t, testConfig(777), mk())
	if a.Samples != b.Samples || a.Traps != b.Traps || a.ReusePairs != b.ReusePairs {
		t.Errorf("same-seed runs differ: %+v vs %+v", a, b)
	}
	if acc := histogram.Accuracy(a.ReuseDistance, b.ReuseDistance); acc != 1 {
		t.Errorf("same-seed histograms differ: accuracy %v", acc)
	}
}

func TestSeedChangesSampling(t *testing.T) {
	mk := func() trace.Reader { return trace.ZipfAccess(4, 0, 2048, 1.0, 300000) }
	cfgA := testConfig(777)
	cfgB := testConfig(777)
	cfgB.Seed = 999
	a := runRDX(t, cfgA, mk())
	b := runRDX(t, cfgB, mk())
	if a.Samples == b.Samples && a.Traps == b.Traps && a.ReusePairs == b.ReusePairs {
		t.Log("different seeds produced identical counters (possible but unlikely)")
	}
}

func TestConvertDistancesOff(t *testing.T) {
	const k, n = 512, 300000
	cfg := testConfig(500)
	cfg.ConvertDistances = false
	res := runRDX(t, cfg, trace.Cyclic(0, k, n))
	// Raw mode: ReuseDistance should equal ReuseTime.
	if acc := histogram.Accuracy(res.ReuseDistance, res.ReuseTime); acc != 1 {
		t.Errorf("raw mode distance != time histogram (accuracy %v)", acc)
	}
}

func TestSkidDegradesGracefully(t *testing.T) {
	// With skid, the sampled address is a few accesses late but the
	// pipeline must still produce a usable histogram.
	const k, n = 128, 300000
	cfg := testConfig(1000)
	cfg.Skid = 8
	res := runRDX(t, cfg, trace.Cyclic(0, k, n))
	gt, err := exact.Measure(trace.Cyclic(0, k, n), mem.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	acc := histogram.Accuracy(res.ReuseDistance, gt.ReuseDistance())
	if acc < 0.90 {
		t.Errorf("skid accuracy = %v, want >= 0.90", acc)
	}
}

func TestLineGranularityExactWhenOneWordPerLine(t *testing.T) {
	// When each line is touched at a single word (line-stride sweeps),
	// watching the sampled word is equivalent to watching the line, so
	// line-granularity RDX must be accurate.
	const lines, laps = 256, 60
	mk := func() trace.Reader {
		return trace.Repeat(laps, func() trace.Reader {
			return trace.Sequential(0, lines, 64) // one word per line
		})
	}
	cfg := testConfig(300)
	cfg.Granularity = mem.LineGranularity
	res := runRDX(t, cfg, mk())
	gt, err := exact.Measure(mk(), mem.LineGranularity)
	if err != nil {
		t.Fatal(err)
	}
	acc := histogram.Accuracy(res.ReuseDistance, gt.ReuseDistance())
	if acc < 0.90 {
		t.Errorf("line-stride line-granularity accuracy = %v, want >= 0.90", acc)
	}
}

func TestLineGranularityWordSweepLimitation(t *testing.T) {
	// Known approximation limit (documented in DESIGN.md, measured by
	// ablation A4): with word-stride sweeps, intra-line reuses never hit
	// the single watched word, so RDX misses the short-distance mass
	// entirely. Pin the failure mode so a behaviour change is noticed.
	const lines, laps = 256, 40
	mk := func() trace.Reader {
		return trace.Cyclic(0, lines*8, lines*8*laps) // 8 words per line
	}
	cfg := testConfig(300)
	cfg.Granularity = mem.LineGranularity
	res := runRDX(t, cfg, mk())
	gt, err := exact.Measure(mk(), mem.LineGranularity)
	if err != nil {
		t.Fatal(err)
	}
	acc := histogram.Accuracy(res.ReuseDistance, gt.ReuseDistance())
	if acc > 0.30 {
		t.Errorf("word-sweep line-granularity accuracy = %v; expected the documented blind spot (< 0.30)", acc)
	}
	// The word-granularity view of the same run is, by contrast, exact.
	cfgW := testConfig(300)
	res = runRDX(t, cfgW, mk())
	gtW, err := exact.Measure(mk(), mem.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	if acc := histogram.Accuracy(res.ReuseDistance, gtW.ReuseDistance()); acc < 0.90 {
		t.Errorf("word-granularity accuracy on same trace = %v, want >= 0.90", acc)
	}
}

func TestCensoredRedistributionConservesMass(t *testing.T) {
	// Under heavy replacement pressure, the histogram's total mass must
	// still equal the program's access count: censored observations are
	// redistributed, never dropped, and the final normalization scales
	// the retained mass to represent every access.
	cfg := testConfig(100)
	cfg.RandomizePeriod = false
	p, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pointer chase with reuse time >> period*k creates eviction storms.
	res, err := p.Run(trace.PointerChase(3, 0, 200001, 600000), cpumodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted == 0 {
		t.Fatal("expected evictions under pressure")
	}
	for _, h := range []struct {
		name string
		tot  float64
	}{{"time", res.ReuseTime.Total()}, {"distance", res.ReuseDistance.Total()}} {
		if math.Abs(h.tot-float64(res.Accesses))/float64(res.Accesses) > 1e-6 {
			t.Errorf("%s histogram mass = %v, want %d accesses", h.name, h.tot, res.Accesses)
		}
	}
}

func TestCensoredRedistributionRecoversLongReuses(t *testing.T) {
	// Pattern with two reuse populations: a hot word (short reuse) and a
	// big cyclic set (long reuse, heavily censored at small periods).
	// With redistribution the long-reuse mass must survive; without it,
	// the histogram collapses toward the short reuses.
	const big, n = 50000, 1000000
	mk := func() trace.Reader {
		return trace.Limit(trace.Mix(5,
			[]trace.Reader{
				trace.Cyclic(0, 1, n/2),       // hot word, reuse time ~2
				trace.Cyclic(1<<30, big, n/2), // long reuses ~2*big
			},
			[]float64{1, 1}), n)
	}
	gt, err := exact.Measure(mk(), mem.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	run := func(correct bool) float64 {
		cfg := testConfig(500)
		cfg.BiasCorrection = correct
		res := runRDX(t, cfg, mk())
		return histogram.Accuracy(res.ReuseDistance, gt.ReuseDistance())
	}
	with := run(true)
	without := run(false)
	if with <= without {
		t.Errorf("bias correction did not help: with %v vs without %v", with, without)
	}
	// Pressure here is extreme (reuse time = 400 periods), so absolute
	// accuracy is bounded by the handful of surviving long completions;
	// the redistribution must still recover a usable histogram.
	if with < 0.60 {
		t.Errorf("corrected accuracy = %v, want >= 0.60", with)
	}
}

func TestHybridPolicyKeepsArmingUnderClog(t *testing.T) {
	// A stream whose reuse time dwarfs period*k clogs patient policies.
	// The hybrid express lane must keep arming (and completing short
	// reuses) anyway.
	const n = 500000
	mk := func() trace.Reader {
		return trace.Limit(trace.Mix(11,
			[]trace.Reader{
				trace.Cyclic(0, 100, n/2),                 // short reuses
				trace.PointerChase(5, 1<<40, 150000, n/2), // clogging chase
			},
			[]float64{1, 1}), n)
	}
	run := func(pol ReplacementPolicy) *Result {
		cfg := testConfig(500)
		cfg.Replacement = pol
		return runRDX(t, cfg, mk())
	}
	hybrid := run(ReplaceHybrid)
	never := run(ReplaceNever)
	if hybrid.ArmedSamples <= never.ArmedSamples {
		t.Errorf("hybrid armed %d <= never %d; the express lane should keep arming",
			hybrid.ArmedSamples, never.ArmedSamples)
	}
	if hybrid.ReusePairs <= never.ReusePairs {
		t.Errorf("hybrid completed %d pairs <= never %d", hybrid.ReusePairs, never.ReusePairs)
	}
}

func TestHybridPolicyAccuracy(t *testing.T) {
	const n = 500000
	mk := func() trace.Reader {
		return trace.Limit(trace.Mix(11,
			[]trace.Reader{
				trace.Cyclic(0, 100, n/2),
				trace.Cyclic(1<<40, 20000, n/2),
			},
			[]float64{1, 1}), n)
	}
	gt, err := exact.Measure(mk(), mem.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(500)
	cfg.Replacement = ReplaceHybrid
	res := runRDX(t, cfg, mk())
	if acc := histogram.Accuracy(res.ReuseDistance, gt.ReuseDistance()); acc < 0.80 {
		t.Errorf("hybrid accuracy = %v, want >= 0.80", acc)
	}
}

func TestStoreOnlySampling(t *testing.T) {
	// Sampling stores only: all armed watchpoints come from store
	// samples, but reuse time is still measured in all accesses.
	const n = 300000
	mk := func() trace.Reader {
		// Stencil has 5 loads + 1 store per point; stores revisit the
		// same word across sweeps.
		return trace.Stencil2D(0, 200, 200, 10)
	}
	cfg := testConfig(200)
	cfg.Event = pmu.StoresOnly
	res := runRDX(t, cfg, trace.Limit(mk(), n))
	if res.Samples == 0 || res.ReusePairs == 0 {
		t.Fatalf("store sampling produced samples=%d pairs=%d", res.Samples, res.ReusePairs)
	}
	// Store samples are 1/6 of accesses; at period 200 over all-access
	// counting we'd see n/200 samples, but store-only counting sees
	// n_store/200.
	wantMax := float64(n) / 6 / 200 * 1.3
	if float64(res.Samples) > wantMax {
		t.Errorf("samples = %d, want <= %v (stores only)", res.Samples, wantMax)
	}
}

func TestPhasedWorkloadProfiles(t *testing.T) {
	// A two-phase program: profiling each phase's segment separately
	// must yield clearly different histograms (the segmented phase
	// profiling workflow of examples/phases).
	full := trace.Concat(
		trace.Cyclic(0, 50, 100000),        // hot phase
		trace.Cyclic(1<<40, 30000, 100000), // big-sweep phase
	)
	resA := runRDX(t, testConfig(200), trace.Limit(full, 100000))
	// full has been partially consumed; the next segment continues it.
	resB := runRDX(t, testConfig(200), trace.Limit(full, 100000))
	if acc := histogram.Accuracy(resA.ReuseDistance, resB.ReuseDistance); acc > 0.5 {
		t.Errorf("phases look identical (accuracy %v); phase structure lost", acc)
	}
	if resA.ReuseDistance.Percentile(0.5) >= resB.ReuseDistance.Percentile(0.5) {
		t.Error("hot phase median distance should be far below big-sweep phase")
	}
}

func TestMarkovWorkloadProfiles(t *testing.T) {
	// RDX over a Markov phase mix: the histogram must contain both
	// phases' reuse populations.
	phases := []trace.MarkovPhase{
		{Name: "hot", New: func() trace.Reader { return trace.Cyclic(0, 50, 1<<30) }, Dwell: 50000},
		{Name: "big", New: func() trace.Reader { return trace.Cyclic(1<<40, 20000, 1<<30) }, Dwell: 50000},
	}
	trans := [][]float64{{0, 1}, {1, 0}}
	res := runRDX(t, testConfig(200), trace.MarkovPhases(5, phases, trans, 400000))
	rd := res.ReuseDistance
	short := rd.Weight(6) + rd.Weight(7) // buckets around distance 49
	long := 0.0
	for b := 11; b < rd.NumBuckets(); b++ { // distances >= 1K
		long += rd.Weight(b)
	}
	if short == 0 || long == 0 {
		t.Errorf("markov mix lost a phase: short=%v long=%v\n%s", short, long, rd)
	}
	// Note: the big phase's distances are underestimated here — the
	// footprint conversion averages over the whole (non-stationary)
	// stream, so within-phase distances blur toward the mixture mean.
	// Segmented profiling (TestPhasedWorkloadProfiles) is the remedy.
}

// TestRunContextFromSliceAllocsPerBatch: profiling an in-memory trace
// reads it as views of the slice, so a run's allocations do not grow
// with its batch count.
func TestRunContextFromSliceAllocsPerBatch(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	cfg := testConfig(1 << 40) // no sample lands: allocations are per run only
	accs, err := trace.Collect(trace.Sequential(0, 64*trace.DefaultBatchSize, 8))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			p, err := NewProfiler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.RunContext(context.Background(), trace.FromSlice(accs[:n]), cpumodel.Default()); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(trace.DefaultBatchSize), allocs(len(accs))
	if many > one {
		t.Fatalf("RunContext allocated %.0f times over 64 batches, %.0f over one: %.2f allocs per extra batch",
			many, one, (many-one)/63)
	}
}
