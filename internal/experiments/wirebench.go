package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// WireBenchRow is one measured workload cell of the wire-bandwidth
// benchmark: the access stream is profiled over loopback in v3
// columnar framing, and the server's batch-byte accounting gives the
// exact wire cost per access.
type WireBenchRow struct {
	Workload    string  `json:"workload"`
	WireVersion int     `json:"wire_version"`
	Accesses    uint64  `json:"accesses"`
	AccessesSec float64 `json:"accesses_per_sec"`
	// BytesPerAccess is batch payload bytes on the wire divided by
	// accesses streamed; CompressionRatio relates it to the 18-byte raw
	// access record.
	BytesPerAccess   float64 `json:"bytes_per_access"`
	CompressionRatio float64 `json:"compression_ratio"`
}

// wireBenchWorkloads are the access shapes the columnar encoding is
// measured on: strided (lane-interleaved scans, the delta-of-delta
// best case), clustered (Zipf reuse, the paper's skewed-locality
// shape) and sequential (a pure unit-stride scan).
func wireBenchWorkloads(seed, n uint64) []struct {
	name string
	r    func() trace.Reader
} {
	return []struct {
		name string
		r    func() trace.Reader
	}{
		{"sequential", func() trace.Reader { return trace.Sequential(0, n, 64) }},
		{"strided", func() trace.Reader { return trace.Strided(0, 8, 1<<10, 64, n) }},
		{"clustered", func() trace.Reader { return trace.ZipfAccess(seed, 0, 1<<14, 1.0, n) }},
	}
}

// RunWireBench measures wire bytes per access for each workload. Each
// cell gets a fresh single-purpose server so the byte accounting in
// /metrics covers exactly one stream.
func (o Options) RunWireBench() ([]WireBenchRow, error) {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = o.Period
	cfg.Seed = o.Seed

	var rows []WireBenchRow
	for _, w := range wireBenchWorkloads(o.Seed, o.Accesses) {
		accs, err := trace.Collect(w.r())
		if err != nil {
			return nil, err
		}
		s, err := server.New(server.Config{Logf: func(string, ...any) {}})
		if err != nil {
			return nil, err
		}
		s.Start()
		start := time.Now()
		if err := StreamSessions(s.Addr(), 1, accs, cfg); err != nil {
			s.Close()
			return nil, fmt.Errorf("wire bench (%s): %w", w.name, err)
		}
		el := time.Since(start).Seconds()
		m := s.MetricsSnapshot()
		s.Close()

		row := WireBenchRow{
			Workload:         w.name,
			WireVersion:      wire.WireV3,
			Accesses:         m.AccessesTotal,
			BytesPerAccess:   m.BytesPerAccess,
			CompressionRatio: m.CompressionRatio,
		}
		if el > 0 {
			row.AccessesSec = float64(m.AccessesTotal) / el
		}
		rows = append(rows, row)
	}

	for _, r := range rows {
		fmt.Fprintf(o.out(), "wire-v%d-%-12s  %12d accesses  %6.2f bytes/access  %6.2fx compression  %14.0f accesses/sec\n",
			r.WireVersion, r.Workload, r.Accesses, r.BytesPerAccess, r.CompressionRatio, r.AccessesSec)
	}
	return rows, nil
}

// StridedCompressionRatio measures just the strided v3 cell and
// returns its compression ratio — the number the scripts/check.sh
// regression gate holds against the committed BENCH_server.json
// baseline. The encoding is deterministic for a fixed workload and
// batch size, so the ratio is a stable gate, unlike throughput.
func (o Options) StridedCompressionRatio() (float64, error) {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = o.Period
	cfg.Seed = o.Seed
	accs, err := trace.Collect(trace.Strided(0, 8, 1<<10, 64, o.Accesses))
	if err != nil {
		return 0, err
	}
	s, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		return 0, err
	}
	s.Start()
	defer s.Close()
	if err := StreamSessions(s.Addr(), 1, accs, cfg); err != nil {
		return 0, fmt.Errorf("strided compression check: %w", err)
	}
	m := s.MetricsSnapshot()
	if m.CompressionRatio <= 0 {
		return 0, fmt.Errorf("strided compression check accounted no batch bytes")
	}
	return m.CompressionRatio, nil
}
