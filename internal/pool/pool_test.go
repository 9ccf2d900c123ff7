package pool_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync/atomic"
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

func testConfig(period uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = period
	return cfg
}

// fastRetry keeps within-backend retries snappy so a dead backend is
// given up on (and failed over from) in test time.
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

// startBackend spins up one rdxd with an admin listener (so the pool's
// health probes and load refreshes run against the real endpoints).
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
// and returns two independent reader sets over the same accesses (the
// pool consumes one; the local ground truth the other).
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

// wireJSON is the bit-identity fingerprint of one thread result: its
// wire form, the exact payload a backend ships.
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

func TestParseBackends(t *testing.T) {
	bs, err := pool.ParseBackends("a:1, b:2=c:3 ,d:4")
	if err != nil {
		t.Fatal(err)
	}
	want := []pool.Backend{{Addr: "a:1"}, {Addr: "b:2", Admin: "c:3"}, {Addr: "d:4"}}
	if len(bs) != len(want) {
		t.Fatalf("got %d backends, want %d", len(bs), len(want))
	}
	for i := range want {
		if bs[i] != want[i] {
			t.Errorf("backend %d: got %+v want %+v", i, bs[i], want[i])
		}
	}
	if _, err := pool.ParseBackends(""); err == nil {
		t.Error("empty spec should fail")
	}
	if _, err := pool.ParseBackends("=admin"); err == nil {
		t.Error("empty address should fail")
	}
}

// TestPoolMatchesLocalCleanRun checks the composition theorem on the
// happy path: a fault-free pool of two backends produces a MultiResult
// bit-identical to local ProfileThreads.
func TestPoolMatchesLocalCleanRun(t *testing.T) {
	cfg := testConfig(256)
	remote, local := collectStreams(t, 8, 40_000)
	want, err := core.ProfileThreads(context.Background(), local, cfg, cpumodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}

	s1 := startBackend(t, server.Config{})
	s2 := startBackend(t, server.Config{})
	p, err := pool.New(backendsOf(s1, s2), pool.Options{
		Retry: fastRetry(1),
		Logf:  quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got, err := p.ProfileThreads(context.Background(), remote, cfg)
	if err != nil {
		t.Fatalf("pool profile failed: %v (stats %+v)", err, p.Stats())
	}
	sameMulti(t, got, want)

	st := p.Stats()
	if st.Dispatched != 8 || st.Redispatched != 0 {
		t.Errorf("unexpected dispatch counts: %+v", st)
	}
	if st.PerBackend[0] == 0 || st.PerBackend[1] == 0 {
		t.Errorf("least-loaded routing left a backend idle: %+v", st)
	}
}

// TestPoolE2EFaultsAndBackendDeath is the acceptance test: 64 streams
// through a 3-backend pool, every connection subject to seeded drops,
// corruption and partial writes, and one backend killed outright
// mid-run. The MultiResult must still be bit-identical to local
// ProfileThreads — transient faults absorbed by checkpoint/resume
// within a backend, the kill absorbed by re-dispatching its streams.
func TestPoolE2EFaultsAndBackendDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-backend fault E2E is not short")
	}
	cfg := testConfig(512)
	const streams, perStream = 64, 24_000
	remote, local := collectStreams(t, streams, perStream)
	want, err := core.ProfileThreads(context.Background(), local, cfg, cpumodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}

	mk := func() *server.Server {
		return startBackend(t, server.Config{
			CheckpointEvery: 4,
			StepDelay:       200 * time.Microsecond, // slow the engine so the kill lands mid-run
			RetryAfterHint:  5 * time.Millisecond,
		})
	}
	s1, s2, s3 := mk(), mk(), mk()
	doomed := s2

	faults := faultnet.NewDialer(faultnet.Options{
		Seed:          99,
		DropAfterMin:  150_000,
		DropAfterMax:  400_000,
		CorruptProb:   0.01,
		PartialWrites: true,
	}, nil)
	p, err := pool.New(backendsOf(s1, s2, s3), pool.Options{
		MaxInFlight: 8,
		HealthEvery: 50 * time.Millisecond,
		Retry:       fastRetry(7),
		BatchSize:   2048,
		Dial:        faults.DialContext,
		Logf:        quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Kill one backend once it is demonstrably mid-run: sessions open,
	// accesses flowing.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			m := doomed.MetricsSnapshot()
			if m.SessionsActive > 0 && m.AccessesTotal > 0 {
				doomed.Close()
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	got, err := p.ProfileThreads(context.Background(), remote, cfg)
	<-killed
	if err != nil {
		t.Fatalf("pool profile failed: %v (stats %+v)", err, p.Stats())
	}
	sameMulti(t, got, want)

	st := p.Stats()
	if st.Redispatched == 0 {
		t.Errorf("backend kill caused no re-dispatch: %+v", st)
	}
	if st.Dispatched < streams {
		t.Errorf("dispatched %d sessions for %d streams", st.Dispatched, streams)
	}
	if p.Healthy() > 2 {
		t.Errorf("killed backend still considered healthy: %d healthy of 3", p.Healthy())
	}
	t.Logf("pool stats: %+v (dialer made %d connections)", st, faults.Conns())
}

// TestPoolFailoverFromDeadBackend points one of two backends at a
// never-listening address: streams initially routed there must fail
// over and the result must still match the local run.
func TestPoolFailoverFromDeadBackend(t *testing.T) {
	cfg := testConfig(256)
	remote, local := collectStreams(t, 6, 20_000)
	want, err := core.ProfileThreads(context.Background(), local, cfg, cpumodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}

	live := startBackend(t, server.Config{})
	dead := startBackend(t, server.Config{})
	deadBackends := backendsOf(live, dead)
	dead.Close() // address allocated, then gone: dials are refused

	p, err := pool.New(deadBackends, pool.Options{
		Retry: fastRetry(3),
		Logf:  quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got, err := p.ProfileThreads(context.Background(), remote, cfg)
	if err != nil {
		t.Fatalf("pool profile failed: %v (stats %+v)", err, p.Stats())
	}
	sameMulti(t, got, want)
	st := p.Stats()
	if st.PerBackend[0] != 6 {
		t.Errorf("live backend should have completed every stream exactly once: %+v", st)
	}
	if st.Redispatched == 0 {
		t.Errorf("streams routed to the dead backend never failed over: %+v", st)
	}
}

// TestPoolNoHealthyBackend: with every backend dead and a short
// WaitHealthy, dispatch must give up with a descriptive error instead
// of hanging.
func TestPoolNoHealthyBackend(t *testing.T) {
	dead := startBackend(t, server.Config{})
	bs := backendsOf(dead)
	dead.Close()

	retry := fastRetry(5)
	retry.MaxAttempts = 2
	p, err := pool.New(bs, pool.Options{
		WaitHealthy: 200 * time.Millisecond,
		HealthEvery: 20 * time.Millisecond,
		Retry:       retry,
		Logf:        quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	streams, _ := collectStreams(t, 1, 1_000)
	_, err = p.ProfileThreads(context.Background(), streams, testConfig(256))
	if err == nil {
		t.Fatal("profile against a dead pool should fail")
	}
	if !strings.Contains(err.Error(), "no healthy backend") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestPoolContextCancel cancels mid-profile and requires a prompt
// return with the context's error.
func TestPoolContextCancel(t *testing.T) {
	s := startBackend(t, server.Config{StepDelay: time.Millisecond})
	p, err := pool.New(backendsOf(s), pool.Options{Retry: fastRetry(9), Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	streams, _ := collectStreams(t, 4, 200_000)
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Bool
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.ProfileThreads(ctx, streams, testConfig(256))
	done.Store(true)
	if err == nil {
		t.Fatal("cancelled profile should fail")
	}
	if ctx.Err() == nil || time.Since(start) > 10*time.Second {
		t.Errorf("cancellation not prompt: err=%v after %v", err, time.Since(start))
	}
}

// TestPoolProfileSingle routes the one-stream convenience call and
// checks it against a local profile under the unmodified config.
func TestPoolProfileSingle(t *testing.T) {
	cfg := testConfig(128)
	accs, err := trace.Collect(trace.ZipfAccess(42, 0, 2048, 1.0, 30_000))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prof.Run(trace.FromSlice(accs), cpumodel.Default())
	if err != nil {
		t.Fatal(err)
	}

	s := startBackend(t, server.Config{})
	p, err := pool.New(backendsOf(s), pool.Options{Retry: fastRetry(11), Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got, err := p.Profile(context.Background(), trace.FromSlice(accs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := wireJSON(t, got), wireJSON(t, want); g != w {
		t.Errorf("single-stream pool profile differs:\n got %s\nwant %s", g, w)
	}
}

// failingReader yields r's accesses, then fails with err where r would
// have ended.
type failingReader struct {
	r   trace.Reader
	err error
}

func (f *failingReader) Read(dst []mem.Access) (int, error) {
	n, err := f.r.Read(dst)
	if err == io.EOF {
		err = f.err
	}
	return n, err
}

// TestPoolReaderErrorIsPermanent: a stream whose own reader fails is
// not a backend fault. The run returns the reader's error without
// re-dispatching the stream or marking any backend down.
func TestPoolReaderErrorIsPermanent(t *testing.T) {
	s1, s2 := startBackend(t, server.Config{}), startBackend(t, server.Config{})
	p, err := pool.New(backendsOf(s1, s2), pool.Options{
		HealthEvery: 20 * time.Millisecond,
		Retry:       fastRetry(13),
		BatchSize:   1024,
		Logf:        quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	errStream := errors.New("stream source failed")
	good, _ := collectStreams(t, 1, 10_000)
	bad, _ := collectStreams(t, 1, 10_000)
	streams := []trace.Reader{good[0], &failingReader{r: bad[0], err: errStream}}
	_, err = p.ProfileThreads(context.Background(), streams, testConfig(256))
	if !errors.Is(err, errStream) {
		t.Fatalf("got error %v, want the reader's error", err)
	}
	if st := p.Stats(); st.Redispatched != 0 {
		t.Errorf("a reader error was re-dispatched: %+v", st)
	}
	if n := p.Healthy(); n != 2 {
		t.Errorf("%d of 2 backends healthy after a reader error", n)
	}
}

// TestPoolUnfitAccessIsPermanent: a stream holding an access the wire
// cannot carry is not a backend fault either. The run fails with
// trace.ErrUnfitAccess without re-dispatching the stream or marking any
// backend down.
func TestPoolUnfitAccessIsPermanent(t *testing.T) {
	s1, s2 := startBackend(t, server.Config{}), startBackend(t, server.Config{})
	p, err := pool.New(backendsOf(s1, s2), pool.Options{
		HealthEvery: 20 * time.Millisecond,
		Retry:       fastRetry(13),
		BatchSize:   1024,
		Logf:        quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	accs, err := trace.Collect(trace.Sequential(0, 5000, 8))
	if err != nil {
		t.Fatal(err)
	}
	accs[3000].Size = 16
	_, err = p.Profile(context.Background(), trace.FromSlice(accs), testConfig(256))
	if !errors.Is(err, trace.ErrUnfitAccess) {
		t.Fatalf("got error %v, want ErrUnfitAccess", err)
	}
	if st := p.Stats(); st.Redispatched != 0 {
		t.Errorf("an unfit stream was re-dispatched: %+v", st)
	}
	if n := p.Healthy(); n != 2 {
		t.Errorf("%d of 2 backends healthy after an unfit stream", n)
	}
}
