package exact

import (
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchKernels are the kernels the benchmark suite's local workload
// measures with the oracle, at its trace length.
var benchKernels = []string{"lbm", "mcf", "xalancbmk", "exchange2"}

const benchKernelAccesses = 4 << 20

var benchTraces = struct {
	sync.Once
	m map[string][]mem.Access
}{}

// benchTrace materializes one kernel's trace once per test binary, so
// the benchmarks time the oracle and not trace generation.
func benchTrace(b *testing.B, name string) []mem.Access {
	b.Helper()
	benchTraces.Do(func() {
		benchTraces.m = make(map[string][]mem.Access)
		for _, k := range benchKernels {
			r, err := workloads.Build(k, 1, benchKernelAccesses)
			if err != nil {
				panic(err)
			}
			accs, err := trace.Collect(r)
			if err != nil {
				panic(err)
			}
			benchTraces.m[k] = accs
		}
	})
	return benchTraces.m[name]
}

// BenchmarkMeasure times the sequential oracle over each kernel and
// reports ns/access.
func BenchmarkMeasure(b *testing.B) {
	for _, k := range benchKernels {
		b.Run(k, func(b *testing.B) {
			accs := benchTrace(b, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Measure(trace.FromSlice(accs), mem.WordGranularity); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(accs)), "ns/access")
		})
	}
}

// BenchmarkMeasureAuto times MeasureAuto over each kernel with the
// stream length as its size hint, as the benchmark suite calls it, and
// reports ns/access. Its path follows the effective core count.
func BenchmarkMeasureAuto(b *testing.B) {
	for _, k := range benchKernels {
		b.Run(k, func(b *testing.B) {
			accs := benchTrace(b, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := MeasureAuto(trace.FromSlice(accs), mem.WordGranularity, AutoOptions{SizeHint: uint64(len(accs))})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(accs)), "ns/access")
		})
	}
}
