package cpu_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// BenchmarkRun times Run as in-process profiling drives it: each suite
// kernel's trace held in memory and read through trace.FromSlice into an
// RDX profiler at period 8192, the local suite's operating point, where
// some watchpoint is armed nearly all the time. Reported in ns/access.
// Each iteration profiles the whole kernel trace on a fresh profiler.
func BenchmarkRun(b *testing.B) {
	const accesses = 4 << 20
	for _, kernel := range []string{"lbm", "mcf", "xalancbmk", "exchange2"} {
		b.Run(kernel, func(b *testing.B) {
			r, err := workloads.Build(kernel, 1, accesses)
			if err != nil {
				b.Fatal(err)
			}
			accs, err := trace.Collect(r)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.SamplePeriod = 8192
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, err := core.NewProfiler(cfg)
				if err != nil {
					b.Fatal(err)
				}
				m := p.NewMachine(cpumodel.Default())
				b.StartTimer()
				if err := m.Run(trace.FromSlice(accs)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accs)), "ns/access")
		})
	}
}

// BenchmarkExecuteColumns times ExecuteColumns as a streaming daemon
// runs it: the suite kernels in 8192-access columnar batches through an
// RDX profiler, reported in ns/access. It runs at two operating points:
// BenchmarkRun's (period 8192, 4 Mi accesses), so that rows and columns
// compare on the same work, and the featherlight 64K period over 1 Mi
// accesses, stream-steady's period. Each iteration profiles the whole
// kernel trace on a fresh profiler.
func BenchmarkExecuteColumns(b *testing.B) {
	const batch = 8192
	for _, op := range []struct {
		period, accesses uint64
	}{{8192, 4 << 20}, {64 << 10, 1 << 20}} {
		for _, kernel := range []string{"lbm", "mcf", "xalancbmk", "exchange2"} {
			b.Run(fmt.Sprintf("period=%d/%s", op.period, kernel), func(b *testing.B) {
				r, err := workloads.Build(kernel, 1, op.accesses)
				if err != nil {
					b.Fatal(err)
				}
				accs, err := trace.Collect(r)
				if err != nil {
					b.Fatal(err)
				}
				var batches []trace.Columns
				for off := 0; off < len(accs); off += batch {
					var c trace.Columns
					c.AppendBatch(accs[off:min(off+batch, len(accs))])
					batches = append(batches, c)
				}
				cfg := core.DefaultConfig()
				cfg.SamplePeriod = op.period
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					p, err := core.NewProfiler(cfg)
					if err != nil {
						b.Fatal(err)
					}
					m := p.NewMachine(cpumodel.Default())
					b.StartTimer()
					for k := range batches {
						m.ExecuteColumns(&batches[k])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accs)), "ns/access")
			})
		}
	}
}
