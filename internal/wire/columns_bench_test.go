package wire

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The codec micro-benchmarks stream the suite kernels the way a
// session does — 8192-access batches, columnar-transposed and encoded on
// the client, decoded on the daemon — and report ns/access, so the
// codec can be tuned without an end-to-end benchmark run.

// benchKernels are the suite kernels a streaming session benchmark
// cycles through.
var benchKernels = []string{"lbm", "mcf", "xalancbmk", "exchange2"}

const (
	benchBatch     = 8192    // accesses per wire batch
	kernelAccesses = 1 << 20 // accesses per kernel trace
)

// benchBatches builds a kernel's trace and slices it into wire batches.
func benchBatches(b *testing.B, kernel string) [][]mem.Access {
	b.Helper()
	r, err := workloads.Build(kernel, 1, kernelAccesses)
	if err != nil {
		b.Fatal(err)
	}
	accs, err := trace.Collect(r)
	if err != nil {
		b.Fatal(err)
	}
	var batches [][]mem.Access
	for off := 0; off < len(accs); off += benchBatch {
		batches = append(batches, accs[off:min(off+benchBatch, len(accs))])
	}
	return batches
}

// reportPerAccess reports the benchmark's time per streamed access.
func reportPerAccess(b *testing.B, batches [][]mem.Access) {
	n := 0
	for _, batch := range batches {
		n += len(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/access")
}

// BenchmarkEncodeColumns times the client side of a batch: the columnar
// transpose (Columns.AppendBatch) and EncodeColumns into reused scratch.
func BenchmarkEncodeColumns(b *testing.B) {
	for _, kernel := range benchKernels {
		b.Run(kernel, func(b *testing.B) {
			batches := benchBatches(b, kernel)
			var cols trace.Columns
			var payload []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for seq, batch := range batches {
					cols.Reset()
					cols.AppendBatch(batch)
					var err error
					if payload, err = EncodeColumns(payload, uint64(seq), &cols); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportPerAccess(b, batches)
		})
	}
}

// BenchmarkTransposeColumns times the columnar transpose alone
// (Columns.AppendBatch), so BenchmarkEncodeColumns splits into the
// transpose and the column encoding.
func BenchmarkTransposeColumns(b *testing.B) {
	for _, kernel := range benchKernels {
		b.Run(kernel, func(b *testing.B) {
			batches := benchBatches(b, kernel)
			var cols trace.Columns
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, batch := range batches {
					cols.Reset()
					cols.AppendBatch(batch)
				}
			}
			reportPerAccess(b, batches)
		})
	}
}

// BenchmarkDecodeColumns times the daemon's check of a batch on
// arrival: DecodeColumnsInto reused columns, which verifies every
// column and copies it in still packed. The unpacking execution does is
// BenchmarkIngestColumns's.
func BenchmarkDecodeColumns(b *testing.B) {
	for _, kernel := range benchKernels {
		b.Run(kernel, func(b *testing.B) {
			batches := benchBatches(b, kernel)
			var cols trace.Columns
			payloads := make([][]byte, len(batches))
			for seq, batch := range batches {
				cols.Reset()
				cols.AppendBatch(batch)
				var err error
				if payloads[seq], err = EncodeColumns(nil, uint64(seq), &cols); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, payload := range payloads {
					cols.Reset()
					if _, err := DecodeColumnsInto(&cols, payload); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportPerAccess(b, batches)
		})
	}
}

// BenchmarkIngestColumns times the daemon's whole per-batch work on the
// suite kernels' batches: DecodeColumnsInto, then ExecuteColumns on an
// RDX profiler's machine, which unpacks only the columns it reads. It
// runs at stream-steady's period 65536, where most batches hold no
// event, and at session churn's period 512, where every batch reads
// every column. Each iteration profiles the whole kernel trace on a
// fresh profiler; reported in ns/access.
func BenchmarkIngestColumns(b *testing.B) {
	for _, period := range []uint64{64 << 10, 512} {
		for _, kernel := range benchKernels {
			b.Run(fmt.Sprintf("period=%d/%s", period, kernel), func(b *testing.B) {
				batches := benchBatches(b, kernel)
				cols := GetColumns()
				defer PutColumns(cols)
				payloads := make([][]byte, len(batches))
				for seq, batch := range batches {
					cols.Reset()
					cols.AppendBatch(batch)
					var err error
					if payloads[seq], err = EncodeColumns(nil, uint64(seq), cols); err != nil {
						b.Fatal(err)
					}
				}
				cfg := core.DefaultConfig()
				cfg.SamplePeriod = period
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					p, err := core.NewProfiler(cfg)
					if err != nil {
						b.Fatal(err)
					}
					m := p.NewMachine(cpumodel.Default())
					b.StartTimer()
					for _, payload := range payloads {
						cols.Reset()
						if _, err := DecodeColumnsInto(cols, payload); err != nil {
							b.Fatal(err)
						}
						m.ExecuteColumns(cols)
					}
				}
				reportPerAccess(b, batches)
			})
		}
	}
}
