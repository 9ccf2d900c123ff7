package experiments

import (
	"strings"
	"testing"

	"repro/internal/workloads"
)

// The experiment tests run at Quick() size and assert the paper's
// qualitative shape claims, not absolute numbers (see DESIGN.md).

func TestT1ExhaustiveIsHeavyweight(t *testing.T) {
	res, err := Quick().RunT1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 10 {
		t.Fatalf("T1 covered %d workloads", len(res.Rows))
	}
	if res.GeoSlowdown < 10 {
		t.Errorf("exhaustive geomean slowdown = %v, want >= 10x (orders of magnitude)", res.GeoSlowdown)
	}
	for _, r := range res.Rows {
		if r.Slowdown < 5 {
			t.Errorf("%s: exhaustive slowdown only %v", r.Workload, r.Slowdown)
		}
	}
}

func TestT2AccuracyQuickRegime(t *testing.T) {
	// At Quick's scaled-down regime (512K accesses, 1K period) samples
	// are scarce, so the bar is below the paper's >90% headline — the
	// Defaults regime run recorded in EXPERIMENTS.md carries that claim.
	// This regression test guards against accuracy collapsing.
	res, err := Quick().RunT2()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAccuracy < 0.72 {
		t.Errorf("mean accuracy = %v, want >= 0.72 at quick regime; worst %s at %v",
			res.MeanAccuracy, res.MinWorkload, res.MinAccuracy)
	}
	if res.MinAccuracy < 0.45 {
		t.Errorf("worst-case accuracy %v on %s, want >= 0.45", res.MinAccuracy, res.MinWorkload)
	}
}

func TestT2AccuracyAccurateRegime(t *testing.T) {
	// The Accurate regime (4M accesses, 8K period — the Defaults sample
	// count, scaled) must approach the paper's >90% claim.
	if testing.Short() {
		t.Skip("accurate-regime T2 takes ~1 minute")
	}
	res, err := Accurate().RunT2()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAccuracy < 0.85 {
		t.Errorf("mean accuracy = %v, want >= 0.85; worst %s at %v",
			res.MeanAccuracy, res.MinWorkload, res.MinAccuracy)
	}
	// deepsjeng (a flat Zipf over 3M words whose ground truth spans ~22
	// buckets) is the binding case: resolving it needs more reuse pairs
	// than ~500 samples yield. It reaches ~0.8 at the Defaults regime.
	if res.MinAccuracy < 0.65 {
		t.Errorf("worst-case accuracy %v on %s, want >= 0.65", res.MinAccuracy, res.MinWorkload)
	}
}

func TestF3RunsOnRepresentatives(t *testing.T) {
	var sb strings.Builder
	o := Quick()
	o.Out = &sb
	res, err := o.RunF3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(representative) {
		t.Errorf("F3 covered %v", res.Workloads)
	}
	if !strings.Contains(sb.String(), "ground truth") {
		t.Error("F3 output missing histogram overlay")
	}
}

func TestF4OverheadFeatherlight(t *testing.T) {
	// At the paper's featherlight 64K period, modelled overhead must be
	// single-digit percent (the paper reports ~5%).
	o := Quick()
	o.Accesses = 2 << 20
	o.Period = 64 << 10
	res, err := o.RunF4()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPct <= 0 {
		t.Error("no overhead measured")
	}
	if res.MeanPct > 10 {
		t.Errorf("RDX mean overhead %v%% at featherlight period, want single digits", res.MeanPct)
	}
}

func TestF5MemoryOverheadSingleDigits(t *testing.T) {
	res, err := Quick().RunF5()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPct <= 0 || res.MeanPct > 30 {
		t.Errorf("mean memory overhead = %v%%, want small single digits", res.MeanPct)
	}
}

func TestF6PeriodTradeoff(t *testing.T) {
	res, err := Quick().RunF6()
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate overhead must fall monotonically with period.
	byPeriod := map[uint64][]float64{}
	for _, pt := range res.Points {
		byPeriod[pt.Period] = append(byPeriod[pt.Period], pt.Overhead)
	}
	periods := Quick().F6Periods()
	for i := 1; i < len(periods); i++ {
		prev := mean(byPeriod[periods[i-1]])
		cur := mean(byPeriod[periods[i]])
		if cur > prev {
			t.Errorf("overhead rose with period: %v @%d vs %v @%d", prev, periods[i-1], cur, periods[i])
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestF7MoreRegistersMorePairs(t *testing.T) {
	res, err := Quick().RunF7()
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[int]uint64{}
	for _, pt := range res.Points {
		pairs[pt.Watchpoints] += pt.Pairs
	}
	if pairs[4] <= pairs[1] {
		t.Errorf("4 watchpoints completed %d pairs vs %d with 1; want more", pairs[4], pairs[1])
	}
}

func TestT8CharacterizationShape(t *testing.T) {
	res, err := Quick().RunT8()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]T8Row{}
	for _, r := range res.Rows {
		rows[r.Workload] = r
	}
	// exchange2 is cache-resident: almost nothing beyond L2.
	if r := rows["exchange2"]; r.BeyondL2 > 5 {
		t.Errorf("exchange2 beyond-L2 = %v%%, want ~0", r.BeyondL2)
	}
	// lbm streams a 32MiB lattice: most accesses reach past L2.
	if r := rows["lbm"]; r.BeyondL2 < 50 {
		t.Errorf("lbm beyond-L2 = %v%%, want most accesses", r.BeyondL2)
	}
	// Streaming must look worse than cache-resident at every level.
	if rows["lbm"].BeyondL1 <= rows["exchange2"].BeyondL1 {
		t.Error("characterization does not separate streaming from cache-resident")
	}
}

func TestF9PredictionsTrackSimulation(t *testing.T) {
	res, err := Quick().RunF9()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAbsError > 0.10 {
		t.Errorf("mean |predicted − simulated| = %v, want <= 0.10", res.MeanAbsError)
	}
}

func TestA1ProbabilisticCompetitive(t *testing.T) {
	res, err := Quick().RunA1()
	if err != nil {
		t.Fatal(err)
	}
	byPol := map[string]float64{}
	for _, r := range res.Rows {
		byPol[r.Policy.String()] = r.MeanAccuracy
	}
	if len(byPol) != 5 {
		t.Fatalf("A1 covered %d policies, want 5", len(byPol))
	}
	// The default must beat always-replace (whose censoring destroys
	// long reuses) and not trail any policy by a wide margin.
	if byPol["probabilistic"] < byPol["always"] {
		t.Errorf("probabilistic (%v) should beat always-replace (%v)",
			byPol["probabilistic"], byPol["always"])
	}
	for pol, acc := range byPol {
		if byPol["probabilistic"] < acc-0.08 {
			t.Errorf("probabilistic (%v) trails %s (%v) by more than 0.08",
				byPol["probabilistic"], pol, acc)
		}
	}
}

func TestA2ConversionWins(t *testing.T) {
	res, err := Quick().RunA2()
	if err != nil {
		t.Fatal(err)
	}
	if res.ConversionWin <= 0 {
		t.Errorf("footprint conversion (%v) did not beat raw times (%v)", res.ConvertedMean, res.RawMean)
	}
}

func TestA3ShapeRobustToCalibration(t *testing.T) {
	// A3's "featherlight vs heavyweight" shape claim is about the
	// paper's operating point, so run it at the featherlight period.
	o := Quick()
	o.Accesses = 2 << 20
	o.Period = 64 << 10
	res, err := o.RunA3()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		if !pt.ShapeIntact {
			t.Errorf("cost multiplier %v breaks the headline shape: RDX %v%%, exact %vx",
				pt.Multiplier, pt.RDXPct, pt.ExactGeo)
		}
	}
}

func TestA4GranularityApproximation(t *testing.T) {
	res, err := Quick().RunA4()
	if err != nil {
		t.Fatal(err)
	}
	byPattern := map[string]float64{}
	for _, r := range res.Rows {
		byPattern[r.Pattern] = r.Accuracy
	}
	if acc := byPattern["line-stride (1 word/line)"]; acc < 0.85 {
		t.Errorf("line-stride accuracy = %v, want high (approximation exact here)", acc)
	}
	if acc := byPattern["word-stride (8 words/line)"]; acc > 0.5 {
		t.Errorf("word-stride accuracy = %v; the documented blind spot disappeared?", acc)
	}
}

func TestA5RedistributionWins(t *testing.T) {
	res, err := Quick().RunA5()
	if err != nil {
		t.Fatal(err)
	}
	if res.Win <= 0 {
		t.Errorf("redistribution on (%v) did not beat off (%v)", res.OnMean, res.OffMean)
	}
}

func TestC1AttributionCaseStudy(t *testing.T) {
	res, err := Quick().RunC1()
	if err != nil {
		t.Fatal(err)
	}
	if !res.NaiveWorstIsB {
		t.Error("naive matmul's worst-locality pair is not the B load")
	}
	if res.Improvement < 5 {
		t.Errorf("tiling improved the B-load pair's distance only %vx, want >= 5x", res.Improvement)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("t2", Quick()); err != nil {
		t.Errorf("case-insensitive dispatch failed: %v", err)
	}
	if _, err := Run("nope", Quick()); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(IDs()) != 17 {
		t.Errorf("registry has %d experiments, want 17", len(IDs()))
	}
}

// TestOverheadCeilings: the F4/F5 gate passes a workload at or within
// the margin above its committed value, and fails one above that or one
// with no committed value.
func TestOverheadCeilings(t *testing.T) {
	c := f4Committed["mcf"]
	for _, v := range []float64{0, c, c + f4CeilingMargin} {
		if err := checkCeiling("F4", f4Committed, f4CeilingMargin, "mcf", v); err != nil {
			t.Errorf("overhead %.4f failed: %v", v, err)
		}
	}
	if err := checkCeiling("F4", f4Committed, f4CeilingMargin, "mcf", c+f4CeilingMargin+0.01); err == nil {
		t.Error("overhead above the ceiling passed")
	}
	if err := checkCeiling("F5", f5Committed, f5CeilingMargin, "no-such-workload", 0); err == nil {
		t.Error("workload with no committed value passed")
	}
	for _, w := range workloads.Suite() {
		if _, ok := f4Committed[w.Name]; !ok {
			t.Errorf("f4Committed has no value for %s", w.Name)
		}
		if _, ok := f5Committed[w.Name]; !ok {
			t.Errorf("f5Committed has no value for %s", w.Name)
		}
	}
}
