package server_test

import (
	"context"
	"testing"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// BenchmarkSessionChurn measures the per-session fixed cost — dial,
// JSON handshake, stream one short trace, result decode, teardown —
// that drives allocs/batch up when a fixed amount of work is split
// across more sessions. Run with -benchmem; the plain client's
// allocs/op figure is the `fixed` term in the decomposition documented
// on TestAllocCreepRatio16v1. The resilient case is the same session
// through ReconnectingClient.Profile, the loop every remote run uses:
// its B/op includes the replay copies, which come back from a free
// list session after session.
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
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
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
	})
	b.Run("resilient", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rc := wire.NewReconnectingClient(s.Addr(), cfg, wire.RetryPolicy{})
			if _, err := rc.Profile(context.Background(), trace.FromSlice(accs), wire.ProfileOptions{BatchSize: 8192}, 0, nil); err != nil {
				b.Fatal(err)
			}
			rc.Close()
		}
	})
}
