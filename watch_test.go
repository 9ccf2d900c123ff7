package rdx

// Tests for the subscribe-style continuous-profiling surface:
// Session.Watch must deliver every window boundary in order and leave
// the lifetime result bit-identical to ProfileThreads — locally,
// remotely, and across injected connection faults — and the window
// stream must match what Client.Snapshot polls observe at the same
// boundaries.

import (
	"context"
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// watchMultiFP fingerprints a MultiResult the way the Session
// differential tests do: per-thread wire JSON plus the merged
// attribution and reuse-distance aggregates.
func watchMultiFP(t *testing.T, m *MultiResult) string {
	t.Helper()
	var parts []string
	for _, r := range m.Threads {
		parts = append(parts, fingerprint(t, r))
	}
	at, err := json.Marshal(m.Attribution)
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := json.Marshal(m.ReuseDistance.Snapshot())
	parts = append(parts, string(at), string(rd))
	b, _ := json.Marshal(parts)
	return string(b)
}

// drainWatch collects every snapshot from a watch channel, failing on a
// missing, out-of-order or malformed delivery, and returns the window
// snapshots and the final one.
func drainWatch(t *testing.T, ch <-chan WindowSnapshot) ([]WindowSnapshot, WindowSnapshot) {
	t.Helper()
	var wins []WindowSnapshot
	var final WindowSnapshot
	sawFinal := false
	for snap := range ch {
		if sawFinal {
			t.Fatal("snapshot delivered after the final one")
		}
		if snap.Final {
			final, sawFinal = snap, true
			continue
		}
		if want := len(wins) + 1; snap.Seq != want {
			t.Fatalf("window Seq %d delivered, want %d", snap.Seq, want)
		}
		if snap.Window == nil || snap.Cumulative == nil {
			t.Fatalf("window snapshot %d missing its window or cumulative result", snap.Seq)
		}
		wins = append(wins, snap)
	}
	if !sawFinal {
		t.Fatal("watch channel closed without a final snapshot")
	}
	return wins, final
}

// TestWatchLocalLifetimeBitIdentical is the tentpole differential: a
// watched local run must deliver contiguous windows and finish with a
// lifetime MultiResult bit-identical to an unwatched ProfileThreads on
// the same streams and config.
func TestWatchLocalLifetimeBitIdentical(t *testing.T) {
	ctx := context.Background()
	mkStreams := func() []Reader {
		var rs []Reader
		for i := 0; i < 3; i++ {
			rs = append(rs, ZipfAccess(uint64(90+i), Addr(uint64(i)<<40), 2048, 1.0, 50000))
		}
		return rs
	}
	for _, pol := range []ReplacementPolicy{ReplaceProbabilistic, ReplaceHybrid} {
		cfg := policyConfig(pol)
		ch, err := New(WithConfig(cfg), WithWindow(WindowOptions{EveryAccesses: 8192})).
			Watch(ctx, WatchOptions{Streams: mkStreams()})
		if err != nil {
			t.Fatal(err)
		}
		wins, final := drainWatch(t, ch)
		if final.Err != nil {
			t.Fatalf("%v: watch failed: %v", pol, final.Err)
		}
		// 50000 accesses per thread at an 8192-access window = 6 full
		// boundaries per thread = 6 coordinator rounds.
		if len(wins) != 6 {
			t.Fatalf("%v: got %d windows, want 6", pol, len(wins))
		}
		for i := 1; i < len(wins); i++ {
			prev, cur := wins[i-1].Window, wins[i].Window
			if cur.StartAccesses != prev.EndAccesses {
				t.Errorf("%v: window %d starts at %d, previous ended at %d",
					pol, wins[i].Seq, cur.StartAccesses, prev.EndAccesses)
			}
		}

		want, err := New(WithConfig(cfg)).ProfileThreads(ctx, mkStreams())
		if err != nil {
			t.Fatal(err)
		}
		if watchMultiFP(t, final.Cumulative) != watchMultiFP(t, want) {
			t.Errorf("%v: watched lifetime diverges from ProfileThreads", pol)
		}
	}
}

// TestWatchDriftDetectsPhaseChange runs a two-phase workload (tiny
// cyclic working set, then a large random one) through a local watch
// and asserts drift is flagged exactly at the phase boundary, with the
// stationary windows on either side staying clean.
func TestWatchDriftDetectsPhaseChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 64 // dense sampling so every window clears MinSamples
	phased := trace.Concat(
		Cyclic(0, 64, 65536),
		trace.RandomUniform(17, 0, 1<<15, 65536),
	)
	ch, err := New(WithConfig(cfg)).Watch(context.Background(), WatchOptions{
		Streams: []Reader{phased},
		Window:  &WindowOptions{EveryAccesses: 16384},
	})
	if err != nil {
		t.Fatal(err)
	}
	wins, final := drainWatch(t, ch)
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	if len(wins) != 8 {
		t.Fatalf("got %d windows, want 8", len(wins))
	}
	// Windows 1-4 are the cyclic phase, 5-8 the random one. The random
	// phase's reuses resolve with watchpoint latency (mean reuse time is
	// a couple of windows there), so the detector may fire a window or
	// two after the boundary — but never inside the stationary prefix.
	firstDrift := -1
	for _, w := range wins {
		if w.Window.Score != nil && w.Window.Score.Drift {
			firstDrift = w.Seq
			break
		}
	}
	if firstDrift < 5 || firstDrift > 7 {
		t.Errorf("first drift flagged at window %d, want within [5,7] of the phase boundary", firstDrift)
	}
	for _, w := range wins[1:4] {
		if w.Window.Score != nil && w.Window.Score.Drift {
			t.Errorf("stationary window %d flagged as drift", w.Seq)
		}
	}
	if wsOld, wsNew := wins[3].Window.WorkingSetBytes, wins[7].Window.WorkingSetBytes; wsNew <= wsOld {
		t.Errorf("working set did not grow across the phase change: %d -> %d bytes", wsOld, wsNew)
	}
}

// TestWatchRemoteDifferential watches the same stream locally and
// against an rdxd daemon: the runs must agree window by window
// (cumulative snapshots bit-identical) and on the
// lifetime result.
func TestWatchRemoteDifferential(t *testing.T) {
	srv, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	ctx := context.Background()
	cfg := policyConfig(ReplaceProbabilistic)
	accs, err := trace.Collect(ZipfAccess(23, 0, 4096, 1.0, 120000))
	if err != nil {
		t.Fatal(err)
	}
	wo := WindowOptions{EveryAccesses: 16384}

	local, err := New(WithConfig(cfg), WithWindow(wo)).
		Watch(ctx, WatchOptions{Streams: []Reader{FromSlice(accs)}})
	if err != nil {
		t.Fatal(err)
	}
	lwins, lfinal := drainWatch(t, local)
	if lfinal.Err != nil {
		t.Fatal(lfinal.Err)
	}

	// BatchSize 2048 divides the window length, so the remote boundaries
	// (whole batches) land on exactly the local ones.
	remote, err := New(WithConfig(cfg), WithRemote(srv.Addr()),
		WithRemoteOptions(RemoteOptions{BatchSize: 2048}), WithWindow(wo)).
		Watch(ctx, WatchOptions{Streams: []Reader{FromSlice(accs)}})
	if err != nil {
		t.Fatal(err)
	}
	rwins, rfinal := drainWatch(t, remote)
	if rfinal.Err != nil {
		t.Fatal(rfinal.Err)
	}

	if len(rwins) != len(lwins) {
		t.Fatalf("remote delivered %d windows, local %d", len(rwins), len(lwins))
	}
	for i := range rwins {
		if fingerprint(t, rwins[i].Cumulative.Threads[0]) != fingerprint(t, lwins[i].Cumulative.Threads[0]) {
			t.Errorf("window %d: remote cumulative diverges from local", i+1)
		}
	}
	if fingerprint(t, rfinal.Cumulative.Threads[0]) != fingerprint(t, lfinal.Cumulative.Threads[0]) {
		t.Error("remote watched lifetime diverges from local")
	}
}

// pollSnapshots profiles accs on the daemon at addr in frames of batch
// accesses, polling Client.Snapshot after every every-th batch, and
// returns the polled snapshots as JSON.
func pollSnapshots(t *testing.T, addr string, accs []Access, cfg Config, batch, every int) []string {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Open(cfg); err != nil {
		t.Fatal(err)
	}
	var polled []string
	for sent, off := 0, 0; off < len(accs); off += batch {
		if err := c.SendBatch(accs[off:min(off+batch, len(accs))]); err != nil {
			t.Fatal(err)
		}
		if sent++; sent%every == 0 {
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			polled = append(polled, string(b))
		}
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	return polled
}

// TestWatchMatchesSnapshotPolling pins the contract that a remote Watch
// is a paced snapshot poll: at the equivalent cadence it delivers
// cumulative snapshots byte-identical (StateBytes included — same
// daemon, same batches) to what polling Client.Snapshot by hand
// observed.
func TestWatchMatchesSnapshotPolling(t *testing.T) {
	srv, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	ctx := context.Background()
	cfg := policyConfig(ReplaceProbabilistic)
	accs, err := trace.Collect(ZipfAccess(29, 0, 4096, 1.0, 120000))
	if err != nil {
		t.Fatal(err)
	}

	polled := pollSnapshots(t, srv.Addr(), accs, cfg, 2048, 8)

	// EveryAccesses 16384 at BatchSize 2048 is every 8 batches — the
	// same boundaries the poll hit.
	ch, err := New(WithConfig(cfg), WithRemote(srv.Addr()),
		WithRemoteOptions(RemoteOptions{BatchSize: 2048})).
		Watch(ctx, WatchOptions{
			Streams: []Reader{FromSlice(accs)},
			Window:  &WindowOptions{EveryAccesses: 16384},
		})
	if err != nil {
		t.Fatal(err)
	}
	wins, final := drainWatch(t, ch)
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	if len(wins) == 0 || len(wins) != len(polled) {
		t.Fatalf("watch delivered %d windows, polling %d snapshots", len(wins), len(polled))
	}
	for i := range wins {
		b, err := json.Marshal(wire.FromCore(wins[i].Cumulative.Threads[0], false))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != polled[i] {
			t.Errorf("boundary %d: watched snapshot differs from polled snapshot", i+1)
		}
	}
}

// snapshotDropConn is a client connection that loses the reply to
// every other snapshot request: on the client's write of a FrameSnapshot
// frame it passes the frame on, so the daemon serves the snapshot, and
// then closes the connection before the reply can be read. The client
// flushes each frame on its own, so a snapshot request is one write of
// exactly one empty-payload frame.
type snapshotDropConn struct {
	net.Conn
	snapshots *atomic.Int64 // snapshot requests written, across connections
}

func (c snapshotDropConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err == nil && len(p) == 9 && wire.FrameType(p[4]) == wire.FrameSnapshot && c.snapshots.Add(1)%2 == 1 {
		c.Conn.Close()
	}
	return n, err
}

// TestWatchLostSnapshotReply loses the reply to the first request for
// every window boundary of a watched remote run. The resilient client
// must resume, ask again and deliver each boundary once, in order,
// byte-identical to an unfaulted watched run, and finish with a
// lifetime result bit-identical to it.
func TestWatchLostSnapshotReply(t *testing.T) {
	srv, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	ctx := context.Background()
	cfg := policyConfig(ReplaceProbabilistic)
	accs, err := trace.Collect(ZipfAccess(37, 0, 4096, 1.0, 120000))
	if err != nil {
		t.Fatal(err)
	}
	watch := func(policy RetryPolicy) ([]WindowSnapshot, WindowSnapshot) {
		t.Helper()
		ch, err := New(WithConfig(cfg), WithRemote(srv.Addr()), WithRetry(policy),
			WithRemoteOptions(RemoteOptions{BatchSize: 2048})).
			Watch(ctx, WatchOptions{
				Streams: []Reader{FromSlice(accs)},
				Window:  &WindowOptions{EveryAccesses: 16384},
			})
		if err != nil {
			t.Fatal(err)
		}
		wins, final := drainWatch(t, ch)
		if final.Err != nil {
			t.Fatal(final.Err)
		}
		return wins, final
	}

	want, wantFinal := watch(RetryPolicy{})

	var snapshots, conns atomic.Int64
	policy := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
	policy.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		conns.Add(1)
		return snapshotDropConn{Conn: conn, snapshots: &snapshots}, nil
	}
	got, gotFinal := watch(policy)

	// 120000 accesses in 2048-access batches = 59 batches; a boundary
	// every 8 batches = 7 windows, each asked for twice.
	if len(want) != 7 || len(got) != len(want) {
		t.Fatalf("faulted run delivered %d windows, unfaulted %d, want 7", len(got), len(want))
	}
	if n := snapshots.Load(); n != 2*int64(len(want)) {
		t.Errorf("%d snapshot requests written, want %d (each boundary lost once)", n, 2*len(want))
	}
	// A resume may be shed while the daemon still holds the dropped
	// connection's session, so a lost reply costs at least one dial.
	if n := conns.Load(); n < int64(len(want))+1 {
		t.Errorf("%d connections, want at least %d (one per lost reply, plus the first)", n, len(want)+1)
	}
	for i := range got {
		if fingerprint(t, got[i].Cumulative.Threads[0]) != fingerprint(t, want[i].Cumulative.Threads[0]) {
			t.Errorf("boundary %d: snapshot after a lost reply differs from the unfaulted one", i+1)
		}
	}
	if watchMultiFP(t, gotFinal.Cumulative) != watchMultiFP(t, wantFinal.Cumulative) {
		t.Error("faulted watched lifetime diverges from the unfaulted run")
	}
}

// TestWatchRemoteRaisesDaemonAlerts: the daemon windows a watched
// remote run by the boundary snapshots it serves, so a phase change
// (tiny cyclic working set, then a large random one) raises a drift
// event and exactly one working-set alert on its metrics.
func TestWatchRemoteRaisesDaemonAlerts(t *testing.T) {
	srv, err := server.New(server.Config{AlertWorkingSetBytes: 4096, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	cfg := DefaultConfig()
	cfg.SamplePeriod = 64 // dense sampling so every window clears MinSamples
	phased := trace.Concat(
		Cyclic(0, 64, 65536),
		trace.RandomUniform(17, 0, 1<<15, 65536),
	)
	ch, err := New(WithConfig(cfg), WithRemote(srv.Addr()),
		WithRemoteOptions(RemoteOptions{BatchSize: 2048})).
		Watch(context.Background(), WatchOptions{
			Streams: []Reader{phased},
			Window:  &WindowOptions{EveryAccesses: 16384},
		})
	if err != nil {
		t.Fatal(err)
	}
	wins, final := drainWatch(t, ch)
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	m := srv.MetricsSnapshot()
	if m.SnapshotsTotal != uint64(len(wins)) || len(wins) != 8 {
		t.Errorf("daemon served %d snapshots for %d windows, want 8", m.SnapshotsTotal, len(wins))
	}
	if m.DriftEvents < 1 {
		t.Error("no drift event recorded across the phase change")
	}
	if m.WSAlertsTotal != 1 {
		t.Errorf("ws_alerts_total = %d, want exactly 1 (one rising edge)", m.WSAlertsTotal)
	}
}

// TestWatchReconnectDeliversEveryWindowInOrder is the acceptance E2E:
// under an injected fault schedule that kills connections mid-stream,
// a watched remote session must still deliver every window snapshot,
// in order, with none duplicated or dropped, and finish with a result
// bit-identical to an unfaulted run.
func TestWatchReconnectDeliversEveryWindowInOrder(t *testing.T) {
	srv, err := server.New(server.Config{Logf: func(string, ...any) {}, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	ctx := context.Background()
	cfg := policyConfig(ReplaceProbabilistic)
	accs, err := trace.Collect(ZipfAccess(31, 0, 4096, 1.0, 250000))
	if err != nil {
		t.Fatal(err)
	}

	faults := faultnet.NewDialer(faultnet.Options{
		Seed:          99,
		DropAfterMin:  80_000,
		DropAfterMax:  200_000,
		CorruptProb:   0.02,
		PartialWrites: true,
	}, nil)
	policy := RetryPolicy{
		MaxAttempts: 40,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		OpTimeout:   10 * time.Second,
		SyncEvery:   8,
		Seed:        7,
	}
	policy.Dial = faults.DialContext

	ch, err := New(WithConfig(cfg), WithRemote(srv.Addr()), WithRetry(policy),
		WithRemoteOptions(RemoteOptions{BatchSize: 2048})).
		Watch(ctx, WatchOptions{
			Streams: []Reader{FromSlice(accs)},
			Window:  &WindowOptions{EveryAccesses: 16384},
		})
	if err != nil {
		t.Fatal(err)
	}
	wins, final := drainWatch(t, ch)
	if final.Err != nil {
		t.Fatalf("faulted watch failed: %v", final.Err)
	}
	// 250000 accesses in 2048-access batches = 123 batches; a boundary
	// every 8 batches = 15 windows (drainWatch already checked density
	// and order).
	if len(wins) != 15 {
		t.Fatalf("got %d windows, want 15", len(wins))
	}
	if faults.Conns() < 2 {
		t.Fatalf("fault schedule produced %d connections; the test needs at least one reconnect", faults.Conns())
	}

	ref, err := New(WithConfig(cfg), WithRemote(srv.Addr()),
		WithRemoteOptions(RemoteOptions{BatchSize: 2048})).Profile(ctx, FromSlice(accs))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, final.Cumulative.Threads[0]) != fingerprint(t, ref) {
		t.Error("faulted watched lifetime diverges from unfaulted run")
	}
}
