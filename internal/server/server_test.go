package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	rdx "repro"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

func testConfig(period uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = period
	return cfg
}

func quietLogf(string, ...any) {}

// start spins up a server for one test and guarantees teardown.
func start(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Logf = quietLogf
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *server.Server) *wire.Client {
	t.Helper()
	c, err := wire.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// profilePlain streams r through a fresh session on the plain client
// c end to end — Open, SendBatch in batches of batch accesses (0 is
// trace.DefaultBatchSize) to exhaustion, Finish — with no reconnect or
// replay in between, so the server sees exactly one connection.
func profilePlain(c *wire.Client, r trace.Reader, cfg core.Config, batch int) (*wire.Result, error) {
	if batch <= 0 {
		batch = trace.DefaultBatchSize
	}
	if _, err := c.Open(cfg); err != nil {
		return nil, err
	}
	// A pooled buffer, as the resilient client's loop uses, keeps
	// BenchmarkSessionChurn's allocation figure to the session's own.
	var buf []mem.Access
	if batch <= trace.DefaultBatchSize {
		buf = trace.BatchBuf()[:batch]
		defer trace.ReleaseBatchBuf(buf)
	} else {
		buf = make([]mem.Access, batch)
	}
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if err := c.SendBatch(buf[:n]); err != nil {
				return nil, err
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	return c.Finish()
}

// sameWireProfile asserts two results describe bit-identical profiles.
func sameWireProfile(t *testing.T, label string, got, want *wire.Result) {
	t.Helper()
	if got.Config != want.Config {
		t.Errorf("%s: configs differ: %+v vs %+v", label, got.Config, want.Config)
	}
	type counters struct{ a, s, as, tr, rp, cs, d, e, du, sb uint64 }
	c := func(r *wire.Result) counters {
		return counters{r.Accesses, r.Samples, r.ArmedSamples, r.Traps,
			r.ReusePairs, r.ColdSamples, r.Dropped, r.Evicted, r.Duplicates, r.StateBytes}
	}
	if c(got) != c(want) {
		t.Errorf("%s: counters differ: %+v vs %+v", label, c(got), c(want))
	}
	if math.Float64bits(got.TimeOverhead) != math.Float64bits(want.TimeOverhead) {
		t.Errorf("%s: overheads differ: %v vs %v", label, got.TimeOverhead, want.TimeOverhead)
	}
	if !reflect.DeepEqual(got.ReuseDistance.Snapshot(), want.ReuseDistance.Snapshot()) {
		t.Errorf("%s: reuse-distance histograms differ", label)
	}
	if !reflect.DeepEqual(got.ReuseTime.Snapshot(), want.ReuseTime.Snapshot()) {
		t.Errorf("%s: reuse-time histograms differ", label)
	}
	if !reflect.DeepEqual(got.Attribution, want.Attribution) {
		t.Errorf("%s: attributions differ", label)
	}
}

// localProfile is the ground truth: the public rdx Session API run
// in-process on the same stream and config.
func localProfile(t *testing.T, accs []mem.Access, cfg core.Config) *wire.Result {
	t.Helper()
	res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), trace.FromSlice(accs))
	if err != nil {
		t.Fatal(err)
	}
	return wire.FromCore(res, true)
}

// pollProfile streams accs through a fresh session on c in batches of
// batch accesses, polling Client.Snapshot after every every-th batch,
// and returns the polled snapshots and the final result.
func pollProfile(t *testing.T, c *wire.Client, accs []mem.Access, cfg core.Config, batch, every int) ([]*wire.Result, *wire.Result) {
	t.Helper()
	if _, err := c.Open(cfg); err != nil {
		t.Fatal(err)
	}
	var snaps []*wire.Result
	for sent, off := 0, 0; off < len(accs); off += batch {
		if err := c.SendBatch(accs[off:min(off+batch, len(accs))]); err != nil {
			t.Fatal(err)
		}
		if sent++; sent%every == 0 {
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap)
		}
	}
	fin, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return snaps, fin
}

// TestE2ERecordedTraceBitIdentical is the headline acceptance test:
// record a trace, stream the recording to rdxd over loopback, and the
// returned Result must be bit-identical to rdx.Profile on the same
// stream and config.
func TestE2ERecordedTraceBitIdentical(t *testing.T) {
	var rec bytes.Buffer
	if _, err := trace.Record(&rec, trace.ZipfAccess(11, 0, 8192, 1.0, 400000)); err != nil {
		t.Fatal(err)
	}
	replay := func() trace.Reader {
		r, err := trace.NewReader(bytes.NewReader(rec.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cfg := testConfig(300)
	accs, err := trace.Collect(replay())
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	s := start(t, server.Config{})
	// Deliberately awkward batch size so frame boundaries land mid-trace
	// everywhere; results must not depend on them.
	got, err := profilePlain(dial(t, s), replay(), cfg, 1013)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Final {
		t.Error("finish result not marked final")
	}
	if got.Accesses != uint64(len(accs)) {
		t.Errorf("remote accesses = %d, want %d", got.Accesses, len(accs))
	}
	sameWireProfile(t, "remote vs local", got, want)
}

// TestE2EConcurrentSessions runs 16 sessions at once, each with its own
// stream, and every result must still be bit-identical to its local
// counterpart — session state must not bleed.
func TestE2EConcurrentSessions(t *testing.T) {
	const sessions, n = 16, 150000
	cfg := testConfig(400)
	stream := func(i int) []mem.Access {
		accs, err := trace.Collect(trace.ZipfAccess(uint64(i)+1, mem.Addr(i)<<40, 4096, 1.0, n))
		if err != nil {
			t.Fatal(err)
		}
		return accs
	}
	want := make([]*wire.Result, sessions)
	streams := make([][]mem.Access, sessions)
	for i := range want {
		streams[i] = stream(i)
		want[i] = localProfile(t, streams[i], cfg)
	}

	s := start(t, server.Config{Workers: 4})
	var wg sync.WaitGroup
	got := make([]*wire.Result, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := wire.Dial(s.Addr())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			got[i], errs[i] = profilePlain(c, trace.FromSlice(streams[i]), cfg, 4096)
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		sameWireProfile(t, fmt.Sprintf("session %d", i), got[i], want[i])
	}
	if m := s.MetricsSnapshot(); m.SessionsTotal != sessions || m.AccessesTotal != sessions*n {
		t.Errorf("metrics: %d sessions / %d accesses, want %d / %d",
			m.SessionsTotal, m.AccessesTotal, sessions, sessions*n)
	}
}

// TestLiveSnapshots drives a session with periodic snapshot requests:
// they must be non-final, monotone in accesses, and must not perturb
// the final result.
func TestLiveSnapshots(t *testing.T) {
	cfg := testConfig(250)
	accs, err := trace.Collect(trace.ZipfAccess(3, 0, 8192, 1.0, 300000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	s := start(t, server.Config{})
	snaps, got := pollProfile(t, dial(t, s), accs, cfg, 2000, 30)
	sameWireProfile(t, "snapshotted remote vs local", got, want)

	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	prev := uint64(0)
	for i, sn := range snaps {
		if sn.Final {
			t.Errorf("snapshot %d marked final", i)
		}
		if sn.Accesses <= prev || sn.Accesses > got.Accesses {
			t.Errorf("snapshot %d: accesses=%d not monotone (prev %d, final %d)",
				i, sn.Accesses, prev, got.Accesses)
		}
		prev = sn.Accesses
	}
	if m := s.MetricsSnapshot(); m.SnapshotsTotal != uint64(len(snaps)) {
		t.Errorf("metrics snapshots = %d, want %d", m.SnapshotsTotal, len(snaps))
	}
}

// TestBackpressureBoundsSessionMemory: a producer far faster than a
// deliberately slow engine must not balloon server memory. The queue
// high-water mark can never exceed QueueDepth plus the one batch the
// blocked reader holds in hand.
func TestBackpressureBoundsSessionMemory(t *testing.T) {
	const queueDepth = 2
	s := start(t, server.Config{
		Workers:    1,
		QueueDepth: queueDepth,
		StepDelay:  2 * time.Millisecond,
	})
	cfg := testConfig(500)
	accs, err := trace.Collect(trace.ZipfAccess(9, 0, 4096, 1.0, 400000))
	if err != nil {
		t.Fatal(err)
	}
	got, err := profilePlain(dial(t, s), trace.FromSlice(accs), cfg, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Accesses != uint64(len(accs)) {
		t.Errorf("slow engine lost accesses: %d of %d", got.Accesses, len(accs))
	}
	m := s.MetricsSnapshot()
	if m.PeakQueueDepth > queueDepth+1 {
		t.Errorf("queue high-water mark %d exceeds bound %d: backpressure failed",
			m.PeakQueueDepth, queueDepth+1)
	}
	if m.PeakQueueDepth == 0 {
		t.Error("queue never observed — producer was not ahead of the engine")
	}
	if m.DroppedBatches != 0 {
		t.Errorf("%d batches dropped under backpressure; all must execute", m.DroppedBatches)
	}
}

// TestNoSessionStarves: with one execution slot and a slow engine, a
// session that always has a batch queued must not keep a newcomer
// waiting. The newcomer opens, sends one batch and syncs while the
// firehose session keeps its queue full; the sync must return before
// the firehose has executed starveBound further batches. Each
// newcomer item waits behind at most one firehose item for the slot,
// so a handful is the expected count; 16 is the old scheduler's
// per-session quantum.
func TestNoSessionStarves(t *testing.T) {
	const starveBound = 16
	s := start(t, server.Config{Workers: 1, StepDelay: time.Millisecond})
	cfg := testConfig(500)
	accs, err := trace.Collect(trace.ZipfAccess(3, 0, 4096, 1.0, 1024))
	if err != nil {
		t.Fatal(err)
	}

	hose := dial(t, s)
	if _, err := hose.Open(cfg); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	hoseDone := make(chan struct{})
	go func() {
		defer close(hoseDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if hose.SendBatch(accs) != nil {
				return
			}
		}
	}()
	defer func() {
		// The engine keeps draining the firehose's queue, so a send
		// blocked by backpressure returns.
		close(stop)
		<-hoseDone
	}()
	waitFor(t, "firehose running", 10*time.Second, func() bool {
		return s.MetricsSnapshot().BatchesTotal >= 20
	})

	c := dial(t, s)
	if _, err := c.Open(cfg); err != nil {
		t.Fatal(err)
	}
	before := s.MetricsSnapshot().BatchesTotal
	synced := make(chan error, 1)
	go func() {
		if err := c.SendBatch(accs); err != nil {
			synced <- err
			return
		}
		if acked, err := c.Sync(); err != nil || acked != 1 {
			synced <- fmt.Errorf("acked %d, %v", acked, err)
			return
		}
		synced <- nil
	}()
	select {
	case err := <-synced:
		if err != nil {
			t.Fatalf("newcomer: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("newcomer's sync still waiting after 20s; the firehose executed %d batches meanwhile",
			s.MetricsSnapshot().BatchesTotal-before)
	}
	// Every batch executed in between but the newcomer's own was the
	// firehose's.
	if n := s.MetricsSnapshot().BatchesTotal - before - 1; n > starveBound {
		t.Errorf("firehose executed %d batches while the newcomer's batch and sync waited; bound %d", n, starveBound)
	} else {
		t.Logf("firehose executed %d batches while the newcomer waited", n)
	}
}

// TestKilledConnectionFreesSession: a client that disappears mid-stream
// must not leak its session.
func TestKilledConnectionFreesSession(t *testing.T) {
	s := start(t, server.Config{})
	c := dial(t, s)
	if _, err := c.Open(testConfig(500)); err != nil {
		t.Fatal(err)
	}
	accs, err := trace.Collect(trace.Cyclic(0, 512, 50000))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.SendBatch(accs[i*5000 : (i+1)*5000]); err != nil {
			t.Fatal(err)
		}
	}
	c.Close() // vanish without Finish

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := s.MetricsSnapshot(); m.SessionsActive == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not freed after kill: %+v", s.MetricsSnapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server must stay fully usable for the next client.
	cfg := testConfig(500)
	want := localProfile(t, accs, cfg)
	got, err := profilePlain(dial(t, s), trace.FromSlice(accs), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameWireProfile(t, "post-kill session", got, want)
}

// TestShutdownDrainsInFlight: SIGTERM semantics. A session open when
// Shutdown starts completes and gets its final result; new connections
// are refused meanwhile.
func TestShutdownDrainsInFlight(t *testing.T) {
	s := start(t, server.Config{StepDelay: time.Millisecond})
	cfg := testConfig(500)
	accs, err := trace.Collect(trace.ZipfAccess(5, 0, 2048, 1.0, 200000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	c := dial(t, s)
	if _, err := c.Open(cfg); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(accs[:100000]); err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Wait until the drain is externally visible, then check that new
	// sessions are refused.
	deadline := time.Now().Add(5 * time.Second)
	for !s.MetricsSnapshot().Draining {
		if time.Now().After(deadline) {
			t.Fatal("drain never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	if c2, err := wire.Dial(s.Addr()); err == nil {
		if _, err := c2.Open(cfg); err == nil {
			t.Error("new session accepted while draining")
		}
		c2.Close()
	}

	// The in-flight session finishes normally and gets a correct,
	// bit-identical result.
	if err := c.SendBatch(accs[100000:]); err != nil {
		t.Fatalf("in-flight batch refused during drain: %v", err)
	}
	got, err := c.Finish()
	if err != nil {
		t.Fatalf("in-flight finish failed during drain: %v", err)
	}
	sameWireProfile(t, "drained session", got, want)

	if err := <-shutdownErr; err != nil {
		t.Errorf("drain did not complete cleanly: %v", err)
	}
}

// TestShutdownForceClosesStragglers: a session that never finishes is
// cut off when the drain deadline passes, and Shutdown reports it.
func TestShutdownForceClosesStragglers(t *testing.T) {
	s := start(t, server.Config{})
	c := dial(t, s)
	if _, err := c.Open(testConfig(500)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if err == nil || !strings.Contains(err.Error(), "1 sessions open") {
		t.Errorf("Shutdown error = %v, want straggler report", err)
	}
	if _, err := c.Snapshot(); err == nil {
		t.Error("straggler connection still alive after forced drain")
	}
}

// TestOpenRejections: invalid configs and the session cap produce
// remote errors, not hangs or disconnects.
func TestOpenRejections(t *testing.T) {
	s := start(t, server.Config{MaxSessions: 1})

	t.Run("invalid config", func(t *testing.T) {
		c := dial(t, s)
		if _, err := c.Open(core.Config{}); err == nil {
			t.Error("zero config accepted")
		}
	})

	t.Run("session limit", func(t *testing.T) {
		c1 := dial(t, s)
		if _, err := c1.Open(testConfig(500)); err != nil {
			t.Fatal(err)
		}
		c2 := dial(t, s)
		_, err := c2.Open(testConfig(500))
		if err == nil || !strings.Contains(err.Error(), "session limit") {
			t.Errorf("second session: err=%v, want session-limit rejection", err)
		}
	})
}

// TestOversizedBatchRejected: a batch beyond MaxBatch is a protocol
// error ending the session, not an OOM risk.
func TestOversizedBatchRejected(t *testing.T) {
	s := start(t, server.Config{MaxBatch: 1000})
	c := dial(t, s)
	reply, err := c.Open(testConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	if reply.MaxBatch != 1000 {
		t.Errorf("advertised MaxBatch = %d, want 1000", reply.MaxBatch)
	}
	accs, err := trace.Collect(trace.Cyclic(0, 64, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(accs); err != nil {
		t.Fatal(err) // send succeeds; rejection arrives as a reply
	}
	if _, err := c.Finish(); err == nil || !strings.Contains(err.Error(), "exceeds max") {
		t.Errorf("oversized batch: err=%v, want max-batch rejection", err)
	}
}

// TestAdminEndpoints exercises /healthz and /metrics over real HTTP.
func TestAdminEndpoints(t *testing.T) {
	s := start(t, server.Config{AdminAddr: "127.0.0.1:0"})
	base := "http://" + s.AdminAddr()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}

	accs, err := trace.Collect(trace.Cyclic(0, 256, 80000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := profilePlain(dial(t, s), trace.FromSlice(accs), testConfig(500), 0); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m server.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.AccessesTotal != uint64(len(accs)) || m.SessionsTotal != 1 || m.BytesIn == 0 {
		t.Errorf("metrics after one session: %+v", m)
	}

	// Draining flips healthz to 503.
	go s.Shutdown(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			break // admin listener already down: drain finished
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMetricsLoadGauge checks the routing gauge the pool dispatcher
// keys on: zero at rest, >= 1 while a session is admitted, and back to
// zero once it finishes.
func TestMetricsLoadGauge(t *testing.T) {
	s := start(t, server.Config{StepDelay: 2 * time.Millisecond})
	if load := s.MetricsSnapshot().Load; load != 0 {
		t.Fatalf("idle load = %d, want 0", load)
	}
	c := dial(t, s)
	if _, err := c.Open(testConfig(500)); err != nil {
		t.Fatal(err)
	}
	accs, err := trace.Collect(trace.Cyclic(0, 512, 20000))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(accs); off += 4096 {
		end := off + 4096
		if end > len(accs) {
			end = len(accs)
		}
		if err := c.SendBatch(accs[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	m := s.MetricsSnapshot()
	if m.Load < 1 {
		t.Errorf("mid-session load = %d, want >= 1", m.Load)
	}
	if m.Load != m.SessionsActive+m.PipelineQueueDepth {
		t.Errorf("load = %d, want sessions_active(%d) + pipeline(%d)", m.Load, m.SessionsActive, m.PipelineQueueDepth)
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.MetricsSnapshot().Load != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("load never returned to 0: %d", s.MetricsSnapshot().Load)
		}
		time.Sleep(time.Millisecond)
	}
}
