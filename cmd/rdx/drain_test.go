package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/faultnet"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

func quietLogf(string, ...any) {}

// startBackend spins up one rdxd with an admin listener, the address
// drainBackend talks to.
func startBackend(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	cfg.AdminAddr = "127.0.0.1:0"
	cfg.Logf = quietLogf
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Close() })
	return s
}

// targetSpec is a backend's "addr=adminaddr" migration target.
func targetSpec(s *server.Server) string { return s.Addr() + "=" + s.AdminAddr() }

// collectStreams materializes n deterministic, distinct access streams
// twice: one set for the fleet, one for the local ground truth.
func collectStreams(t *testing.T, n int, perStream uint64) (a, b []trace.Reader) {
	t.Helper()
	for i := 0; i < n; i++ {
		accs, err := trace.Collect(trace.ZipfAccess(uint64(1000+i), mem.Addr(uint64(i)<<32), 4096, 1.0, perStream))
		if err != nil {
			t.Fatal(err)
		}
		a = append(a, trace.FromSlice(accs))
		b = append(b, trace.FromSlice(accs))
	}
	return a, b
}

// wireJSON fingerprints one thread result bit-exactly.
func wireJSON(t *testing.T, r *core.Result) string {
	t.Helper()
	b, err := json.Marshal(wire.FromCore(r, true))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sameMulti asserts two MultiResults are bit-identical: every thread's
// wire fingerprint, the merged histograms and attribution, and the
// merged counters.
func sameMulti(t *testing.T, got, want *core.MultiResult) {
	t.Helper()
	if len(got.Threads) != len(want.Threads) {
		t.Fatalf("thread counts differ: %d vs %d", len(got.Threads), len(want.Threads))
	}
	for i := range want.Threads {
		if g, w := wireJSON(t, got.Threads[i]), wireJSON(t, want.Threads[i]); g != w {
			t.Errorf("thread %d differs:\n got %s\nwant %s", i, g, w)
		}
	}
	type merged struct {
		RD, RT, Attr     string
		Acc, Samp, Pairs uint64
	}
	fp := func(m *core.MultiResult) merged {
		rd, _ := json.Marshal(m.ReuseDistance.Snapshot())
		rt, _ := json.Marshal(m.ReuseTime.Snapshot())
		at, _ := json.Marshal(m.Attribution)
		return merged{string(rd), string(rt), string(at), m.Accesses, m.Samples, m.ReusePairs}
	}
	if g, w := fp(got), fp(want); g != w {
		t.Errorf("merged views differ:\n got %+v\nwant %+v", g, w)
	}
}

// TestDrainEmptyBackendReturnsAtOnce: draining a backend with no
// sessions returns after the first poll, without waiting a tick, and
// leaves the backend refusing new work.
func TestDrainEmptyBackendReturnsAtOnce(t *testing.T) {
	s1, s2 := startBackend(t, server.Config{}), startBackend(t, server.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := drainBackend(ctx, s1.AdminAddr(), []string{targetSpec(s2)}); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited >= drainPoll {
		t.Errorf("draining an empty backend took %v, want under one poll (%v)", waited, drainPoll)
	}
	if m := s1.MetricsSnapshot(); m.SessionsActive != 0 || !m.Draining {
		t.Errorf("drained backend: sessions_active=%d draining=%v, want 0 and true", m.SessionsActive, m.Draining)
	}
}

// TestDrainChaosE2E is the migration chaos smoke: 64 streams over a
// 3-backend pool behind a fault-injecting transport, one backend
// drained live with drainBackend (checkpoint handover under its own
// fault-injecting transport), and one migration *destination* killed
// outright mid-drain. The MultiResult must be bit-identical to local
// ProfileThreads, and the drained backend must finish with zero live
// sessions.
func TestDrainChaosE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("migration chaos E2E is not short")
	}
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = 512
	const streams, perStream = 64, 24_000
	remote, local := collectStreams(t, streams, perStream)
	want, err := core.ProfileThreads(context.Background(), local, cfg, cpumodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Handoffs travel through their own faulty transport: migrations
	// must survive chaos on the backend-to-backend path too.
	handoffFaults := faultnet.NewDialer(faultnet.Options{
		Seed:          1234,
		CorruptProb:   0.02,
		PartialWrites: true,
	}, nil)
	mk := func() *server.Server {
		return startBackend(t, server.Config{
			CheckpointEvery: 4,
			StepDelay:       200 * time.Microsecond, // slow the engine so the schedule lands mid-run
			RetryAfterHint:  5 * time.Millisecond,
			HandoffTimeout:  2 * time.Second,
			HandoffDial:     handoffFaults.DialContext,
		})
	}
	s1, s2, s3 := mk(), mk(), mk()
	doomed := s2 // a migration destination, killed mid-drain

	clientFaults := faultnet.NewDialer(faultnet.Options{
		Seed:          99,
		DropAfterMin:  150_000,
		DropAfterMax:  400_000,
		CorruptProb:   0.01,
		PartialWrites: true,
	}, nil)
	var backends []pool.Backend
	for _, s := range []*server.Server{s1, s2, s3} {
		backends = append(backends, pool.Backend{Addr: s.Addr(), Admin: s.AdminAddr()})
	}
	p, err := pool.New(backends, pool.Options{
		MaxInFlight: 8,
		HealthEvery: 50 * time.Millisecond,
		DownAfter:   1, // a killed or draining backend must leave the set fast
		Retry: wire.RetryPolicy{
			MaxAttempts: 10,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			OpTimeout:   10 * time.Second,
			SyncEvery:   8,
			Seed:        7,
		},
		BatchSize: 2048,
		Dial:      clientFaults.DialContext,
		Logf:      quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	type outcome struct {
		res *core.MultiResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := p.ProfileThreads(context.Background(), remote, cfg)
		done <- outcome{res, err}
	}()

	// The drain schedule, raced against the run. Waits are jittered
	// from a seeded source so the schedule is randomized but repeatable.
	rng := rand.New(rand.NewSource(4242))
	jitter := func(base time.Duration) {
		time.Sleep(base + time.Duration(rng.Int63n(int64(base))))
	}
	drainErr := make(chan error, 1)
	go func() {
		// Wait for the fleet to be demonstrably mid-run.
		deadline := time.Now().Add(20 * time.Second)
		for s1.MetricsSnapshot().AccessesTotal == 0 || s2.MetricsSnapshot().AccessesTotal == 0 {
			if time.Now().After(deadline) {
				drainErr <- context.DeadlineExceeded
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		jitter(10 * time.Millisecond)
		drained := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			drained <- drainBackend(ctx, s1.AdminAddr(), []string{targetSpec(s2), targetSpec(s3)})
		}()
		// Mid-drain, kill one of the migration destinations outright:
		// sessions handed to it must recover through failover, and the
		// drain must still complete onto the survivor.
		jitter(20 * time.Millisecond)
		doomed.Close()
		drainErr <- <-drained
	}()

	out := <-done
	if err := <-drainErr; err != nil {
		t.Fatalf("drain failed: %v (pool stats %+v)", err, p.Stats())
	}
	if out.err != nil {
		t.Fatalf("profile under chaos failed: %v (pool stats %+v)", out.err, p.Stats())
	}
	sameMulti(t, out.res, want)

	m1 := s1.MetricsSnapshot()
	if m1.SessionsActive != 0 {
		t.Errorf("drained backend still holds %d live sessions", m1.SessionsActive)
	}
	if m1.HandoffsOut == 0 {
		t.Errorf("drain migrated no live session: %+v", m1)
	}
	t.Logf("drained backend: handoffs_out=%d handoff_failures=%d moved_resumes=%d; pool stats %+v",
		m1.HandoffsOut, m1.HandoffFailures, m1.MovedResumes, p.Stats())
}
