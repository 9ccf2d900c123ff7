package server_test

import (
	"testing"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// BenchmarkSessionChurn measures the per-session fixed cost — dial,
// JSON handshake, stream one short trace, result decode, teardown —
// that drives allocs/batch up when a fixed amount of work is split
// across more sessions. Run with -benchmem; the allocs/op
// figure here is the `fixed` term in the decomposition documented on
// TestAllocCreepRatio16v1.
func BenchmarkSessionChurn(b *testing.B) {
	s, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer s.Close()
	accs, err := trace.Collect(trace.ZipfAccess(1, 0, 1<<12, 1.0, 8192))
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := wire.Dial(s.Addr())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := profilePlain(c, trace.FromSlice(accs), cfg, 8192); err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}
