package ctrl_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/ctrl"
	"repro/internal/faultnet"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

func quietLogf(string, ...any) {}

func testConfig(period uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = period
	return cfg
}

// fastRetry keeps within-backend retries snappy so failures are given
// up on (and failed over from) in test time.
func fastRetry(seed uint64) wire.RetryPolicy {
	return wire.RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		OpTimeout:   10 * time.Second,
		SyncEvery:   8,
		Seed:        seed,
	}
}

// startBackend spins up one rdxd with an admin listener.
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

func backendsOf(srvs ...*server.Server) []pool.Backend {
	bs := make([]pool.Backend, len(srvs))
	for i, s := range srvs {
		bs[i] = pool.Backend{Addr: s.Addr(), Admin: s.AdminAddr()}
	}
	return bs
}

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

// wireJSON fingerprints one thread result bit-exactly (StateBytes
// zeroed: it reports allocated capacity, not profile content).
func wireJSON(t *testing.T, r *core.Result) string {
	t.Helper()
	w := wire.FromCore(r, true)
	w.StateBytes = 0
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sameMulti asserts two MultiResults are bit-identical.
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

// TestTenantQuota: acquisitions past the per-tenant cap fail fast and
// releases free the slots; tenants are isolated from each other.
func TestTenantQuota(t *testing.T) {
	c := ctrl.New(nil, nil, ctrl.Options{MaxSessionsPerTenant: 4, Logf: quietLogf})
	if err := c.AcquireSessions("a", 3); err != nil {
		t.Fatal(err)
	}
	if err := c.AcquireSessions("a", 2); err == nil {
		t.Fatal("acquiring past the quota succeeded")
	} else if !strings.Contains(err.Error(), "quota") {
		t.Fatalf("quota error does not say so: %v", err)
	}
	if err := c.AcquireSessions("b", 4); err != nil {
		t.Fatalf("tenant b blocked by tenant a's sessions: %v", err)
	}
	c.ReleaseSessions("a", 2)
	if err := c.AcquireSessions("a", 3); err != nil {
		t.Fatalf("released slots not reusable: %v", err)
	}
	if n := c.TenantSessions("a"); n != 4 {
		t.Fatalf("tenant a at %d sessions, want 4", n)
	}
	c.ReleaseSessions("a", 4)
	c.ReleaseSessions("b", 4)
	if n := c.TenantSessions("b"); n != 0 {
		t.Fatalf("tenant b at %d sessions after release, want 0", n)
	}
}

// TestQuotaGatesProfileThreads: a run wider than the tenant's quota is
// refused before any stream is dispatched.
func TestQuotaGatesProfileThreads(t *testing.T) {
	s := startBackend(t, server.Config{})
	p, err := pool.New(backendsOf(s), pool.Options{Retry: fastRetry(1), Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := ctrl.New(p, backendsOf(s), ctrl.Options{MaxSessionsPerTenant: 2, Logf: quietLogf})

	streams, _ := collectStreams(t, 3, 1000)
	if _, err := c.ProfileThreads(context.Background(), "small", streams, testConfig(256)); err == nil {
		t.Fatal("3-stream run passed a 2-session quota")
	}
	ok, _ := collectStreams(t, 2, 1000)
	if _, err := c.ProfileThreads(context.Background(), "small", ok, testConfig(256)); err != nil {
		t.Fatalf("within-quota run failed: %v", err)
	}
	if n := c.TenantSessions("small"); n != 0 {
		t.Fatalf("quota not released after the run: %d live", n)
	}
}

// TestDrainEmptyBackendRetires: draining a backend with no sessions
// retires it immediately and takes it out of dispatch.
func TestDrainEmptyBackendRetires(t *testing.T) {
	s1 := startBackend(t, server.Config{})
	s2 := startBackend(t, server.Config{})
	p, err := pool.New(backendsOf(s1, s2), pool.Options{Retry: fastRetry(1), Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := ctrl.New(p, backendsOf(s1, s2), ctrl.Options{DrainPoll: 20 * time.Millisecond, Logf: quietLogf})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx, s1.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Status() {
		want := ctrl.Active
		if m.Backend.Addr == s1.Addr() {
			want = ctrl.Retired
		}
		if m.State != want {
			t.Errorf("member %s in state %s, want %s", m.Backend.Addr, m.State, want)
		}
	}
	// The retired backend must be out of the dispatch set at once, and
	// a run must complete on the survivor alone.
	if p.Healthy() != 1 {
		t.Errorf("pool still dispatches to %d backends, want 1", p.Healthy())
	}
	streams, local := collectStreams(t, 4, 5000)
	cfg := testConfig(256)
	want, err := core.ProfileThreads(context.Background(), local, cfg, cpumodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.ProfileThreads(context.Background(), streams, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameMulti(t, got, want)
	if st := p.Stats(); st.PerBackend[0] != 0 {
		t.Errorf("drained backend still received sessions: %+v", st)
	}
}

// TestControlPlaneE2EChaos is the PR's acceptance test: 64 streams over
// a 3-backend fleet with a randomized control schedule — a replacement
// backend admitted mid-run, a hot backend drained live (checkpoint
// handover under a fault-injecting transport), rebalance orders along
// the way, and one migration *destination* killed outright mid-drain.
// The MultiResult must be bit-identical to local ProfileThreads, and
// the drained backend must finish with zero live sessions.
func TestControlPlaneE2EChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("control-plane chaos E2E is not short")
	}
	cfg := testConfig(512)
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
	p, err := pool.New(backendsOf(s1, s2, s3), pool.Options{
		MaxInFlight: 8,
		HealthEvery: 50 * time.Millisecond,
		DownAfter:   1, // a killed backend must leave the set fast
		Retry:       fastRetry(7),
		BatchSize:   2048,
		Dial:        clientFaults.DialContext,
		Logf:        quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	coord := ctrl.New(p, backendsOf(s1, s2, s3), ctrl.Options{
		DrainPoll:            50 * time.Millisecond,
		MaxSessionsPerTenant: streams, // exactly enough: the quota path is exercised, not slack
		Logf:                 quietLogf,
	})

	type outcome struct {
		res *core.MultiResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := coord.ProfileThreads(context.Background(), "chaos", remote, cfg)
		done <- outcome{res, err}
	}()

	// The control schedule, raced against the run. Waits are jittered
	// from a seeded source so the schedule is randomized but repeatable.
	rng := rand.New(rand.NewSource(4242))
	jitter := func(base time.Duration) {
		time.Sleep(base + time.Duration(rng.Int63n(int64(base))))
	}
	ctlErr := make(chan error, 1)
	go func() {
		// Wait for the fleet to be demonstrably mid-run.
		deadline := time.Now().Add(20 * time.Second)
		for s1.MetricsSnapshot().AccessesTotal == 0 || s2.MetricsSnapshot().AccessesTotal == 0 {
			if time.Now().After(deadline) {
				ctlErr <- context.DeadlineExceeded
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		// Admit the replacement backend, then start draining s1 into the
		// rest of the fleet (s2, s3, s4).
		s4 := mk()
		coord.Admit(pool.Backend{Addr: s4.Addr(), Admin: s4.AdminAddr()})
		jitter(10 * time.Millisecond)

		drainDone := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			drainDone <- coord.Drain(ctx, s1.Addr())
		}()
		// Mid-drain, kill one of the migration destinations outright:
		// sessions handed to it must recover through failover, and the
		// drain must still complete onto the survivors.
		jitter(20 * time.Millisecond)
		doomed.Close()
		// Rebalance orders race the drain and the kill.
		for i := 0; i < 3; i++ {
			jitter(30 * time.Millisecond)
			coord.Rebalance(context.Background())
		}
		ctlErr <- <-drainDone
	}()

	out := <-done
	if err := <-ctlErr; err != nil {
		t.Fatalf("control schedule failed: %v (pool stats %+v)", err, p.Stats())
	}
	if out.err != nil {
		t.Fatalf("profile under chaos failed: %v (pool stats %+v)", out.err, p.Stats())
	}
	sameMulti(t, out.res, want)

	// The drained backend exits empty, and its member record says so.
	if n := s1.MetricsSnapshot().SessionsActive; n != 0 {
		t.Errorf("drained backend still holds %d live sessions", n)
	}
	for _, m := range coord.Status() {
		if m.Backend.Addr == s1.Addr() && m.State != ctrl.Retired {
			t.Errorf("drained member in state %s, want retired", m.State)
		}
	}
	if n := coord.TenantSessions("chaos"); n != 0 {
		t.Errorf("tenant quota not drained after the run: %d live", n)
	}
	m1 := s1.MetricsSnapshot()
	t.Logf("drained backend: handoffs_out=%d handoff_failures=%d moved_resumes=%d; pool stats %+v",
		m1.HandoffsOut, m1.HandoffFailures, m1.MovedResumes, p.Stats())
}
