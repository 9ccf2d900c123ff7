package rdx

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md's experiment index), plus micro
// benchmarks of the performance-critical substrates. Each experiment
// benchmark runs the corresponding experiment end to end and reports its
// headline number as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation alongside Go-level throughput numbers.
// Sizes use a reduced operating point (see internal/experiments) so the
// whole suite completes in minutes; cmd/rdexper runs the same code at
// arbitrary scale. Engine, oracle, codec and server throughput are
// measured by the per-package benchmarks and the perfbench module.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/cpumodel"
	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func benchOpts() experiments.Options {
	o := experiments.Quick()
	o.Seed = 1
	return o
}

// featherOpts is benchOpts at the paper's featherlight 64K period, for
// the overhead benchmarks whose headline numbers are period-determined.
func featherOpts() experiments.Options {
	o := benchOpts()
	o.Accesses = 2 << 20
	o.Period = 64 << 10
	return o
}

// BenchmarkT1_ExhaustiveOverhead regenerates T1: the exhaustive
// baseline's slowdown and memory bloat (the motivation table).
func BenchmarkT1_ExhaustiveOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunT1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeoSlowdown, "geo-slowdown")
		b.ReportMetric(res.MeanMemPct, "mem-ovh-%")
	}
}

// BenchmarkT2_RDXAccuracy regenerates T2: RDX accuracy vs ground truth
// across the suite (paper claim: >90%).
func BenchmarkT2_RDXAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunT2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanAccuracy, "mean-accuracy")
		b.ReportMetric(res.MinAccuracy, "min-accuracy")
	}
}

// BenchmarkF3_HistogramOverlays regenerates F3: RDX vs ground-truth
// histogram overlays on the representative workloads.
func BenchmarkF3_HistogramOverlays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunF3()
		if err != nil {
			b.Fatal(err)
		}
		mean := 0.0
		for _, a := range res.Accuracies {
			mean += a
		}
		b.ReportMetric(mean/float64(len(res.Accuracies)), "mean-accuracy")
	}
}

// BenchmarkF4_RDXTimeOverhead regenerates F4: RDX modelled time overhead
// at the featherlight 64K period (paper claim: ~5%).
func BenchmarkF4_RDXTimeOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := featherOpts().RunF4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanPct, "mean-ovh-%")
	}
}

// BenchmarkF5_RDXMemOverhead regenerates F5: RDX memory overhead (paper
// claim: ~7%).
func BenchmarkF5_RDXMemOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunF5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanPct, "mean-ovh-%")
	}
}

// BenchmarkF6_PeriodSweep regenerates F6: accuracy/overhead vs sampling
// period.
func BenchmarkF6_PeriodSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunF6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Points)), "points")
	}
}

// BenchmarkF7_WatchpointSweep regenerates F7: accuracy vs number of
// debug registers.
func BenchmarkF7_WatchpointSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunF7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Points)), "points")
	}
}

// BenchmarkT8_Characterization regenerates T8: the SPEC-CPU2017-style
// memory characterization table.
func BenchmarkT8_Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunT8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Rows)), "workloads")
	}
}

// BenchmarkF9_MissRatioPrediction regenerates F9: miss ratios predicted
// from RDX histograms vs LRU simulation.
func BenchmarkF9_MissRatioPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunF9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanAbsError, "mean-abs-err")
	}
}

// BenchmarkA1_ReplacementPolicy regenerates ablation A1.
func BenchmarkA1_ReplacementPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunA1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			b.ReportMetric(r.MeanAccuracy, r.Policy.String()+"-accuracy")
		}
	}
}

// BenchmarkA2_FootprintConversion regenerates ablation A2.
func BenchmarkA2_FootprintConversion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunA2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ConvertedMean, "converted-accuracy")
		b.ReportMetric(res.RawMean, "raw-accuracy")
	}
}

// BenchmarkA3_CostSensitivity regenerates ablation A3 at the
// featherlight period (the regime its shape claim concerns).
func BenchmarkA3_CostSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := featherOpts().RunA3()
		if err != nil {
			b.Fatal(err)
		}
		intact := 0.0
		for _, p := range res.Points {
			if p.ShapeIntact {
				intact++
			}
		}
		b.ReportMetric(intact/float64(len(res.Points)), "shape-intact-frac")
	}
}

// BenchmarkA4_GranularityApprox regenerates ablation A4.
func BenchmarkA4_GranularityApprox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunA4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Rows)), "patterns")
	}
}

// BenchmarkC1_AttributionCaseStudy regenerates the C1 case study.
func BenchmarkC1_AttributionCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunC1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Improvement, "tiling-improvement-x")
	}
}

// BenchmarkA5_CensoredRedistribution regenerates ablation A5.
func BenchmarkA5_CensoredRedistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchOpts().RunA5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OnMean, "on-accuracy")
		b.ReportMetric(res.OffMean, "off-accuracy")
	}
}

// --- Substrate micro benchmarks ---

// BenchmarkCacheSimThroughput measures the O(1) LRU simulator.
func BenchmarkCacheSimThroughput(b *testing.B) {
	r := trace.ZipfAccess(1, 0, 1<<22, 1.0, uint64(b.N)+1)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := cache.Simulate(r, cache.Config{SizeBytes: 32 << 20, LineBytes: 64, Ways: 0}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWorkloadGeneration measures suite stream generation speed.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, name := range []string{"lbm", "mcf", "gcc"} {
		b.Run(name, func(b *testing.B) {
			r, err := workloads.Build(name, 1, uint64(b.N)+1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := trace.Count(r); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkUninstrumentedBaseline measures the machine with no profiler
// attached — the denominator of every overhead ratio.
func BenchmarkUninstrumentedBaseline(b *testing.B) {
	r := trace.Cyclic(0, 1<<16, uint64(b.N)+1)
	m := cpu.New(cpumodel.Default())
	b.ResetTimer()
	if err := m.Run(r); err != nil {
		b.Fatal(err)
	}
}
