package server_test

// Tests for the subscribe-to-snapshots watch surface: the pushed
// snapshot stream must be byte-identical to what Client.Snapshot polls
// observed at the same batch boundaries, subscriptions must cancel
// cleanly, and the continuous profiler's drift and working-set alerts
// must surface on /metrics.

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestWatchPushMatchesDeprecatedPoll drives the same stream twice: once
// polling Client.Snapshot every few batches, once under a watch
// subscription paced on ReadPush at the same boundaries. Every pushed
// snapshot must be byte-identical to the polled one: a push is exactly
// the poll it replaces.
func TestWatchPushMatchesDeprecatedPoll(t *testing.T) {
	cfg := testConfig(400)
	accs, err := trace.Collect(trace.ZipfAccess(41, 0, 4096, 1.0, 120000))
	if err != nil {
		t.Fatal(err)
	}
	const batch, every = 2048, 8
	s := start(t, server.Config{})

	var polled []string
	snaps, fin1 := pollProfile(t, dial(t, s), accs, cfg, batch, every)
	for _, r := range snaps {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		polled = append(polled, string(b))
	}

	c := dial(t, s)
	if _, err := c.Open(cfg); err != nil {
		t.Fatal(err)
	}
	if err := c.Watch(every); err != nil {
		t.Fatal(err)
	}
	var pushed []string
	var sent uint64
	buf := make([]mem.Access, batch)
	r := trace.FromSlice(accs)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if err := c.SendBatch(buf[:n]); err != nil {
				t.Fatal(err)
			}
			sent++
			if sent%every == 0 {
				p, err := c.ReadPush()
				if err != nil {
					t.Fatal(err)
				}
				if p.Seq != sent {
					t.Fatalf("push covers batch %d, want %d", p.Seq, sent)
				}
				b, err := json.Marshal(p.Result)
				if err != nil {
					t.Fatal(err)
				}
				pushed = append(pushed, string(b))
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
	fin2, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if len(pushed) == 0 || len(pushed) != len(polled) {
		t.Fatalf("got %d pushes vs %d polls", len(pushed), len(polled))
	}
	for i := range pushed {
		if pushed[i] != polled[i] {
			t.Errorf("boundary %d: pushed snapshot differs from polled snapshot", (i+1)*every)
		}
	}
	sameWireProfile(t, "watched final vs polled final", fin2, fin1)
}

// TestWatchCancelStopsPushes re-sends FrameWatch with cadence 0 and
// asserts no further boundary produces a push.
func TestWatchCancelStopsPushes(t *testing.T) {
	cfg := testConfig(300)
	s := start(t, server.Config{})
	c := dial(t, s)
	if _, err := c.Open(cfg); err != nil {
		t.Fatal(err)
	}
	var stray int
	c.OnPush(func(*wire.Push) { stray++ })
	if err := c.Watch(2); err != nil {
		t.Fatal(err)
	}

	accs, err := trace.Collect(trace.ZipfAccess(5, 0, 1024, 1.0, 8*1024))
	if err != nil {
		t.Fatal(err)
	}
	sendBatch := func(i int) {
		t.Helper()
		if err := c.SendBatch(accs[i*1024 : (i+1)*1024]); err != nil {
			t.Fatal(err)
		}
	}
	sendBatch(0)
	sendBatch(1)
	p, err := c.ReadPush()
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq != 2 {
		t.Fatalf("push covers batch %d, want 2", p.Seq)
	}
	if err := c.Watch(0); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 8; i++ {
		sendBatch(i)
	}
	// The snapshot reply would drain any stray push into OnPush first.
	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if stray != 0 {
		t.Errorf("%d pushes arrived after the subscription was cancelled", stray)
	}
}

// TestWatchMetricsAndWorkingSetAlert runs a watched session through a
// phase change (tiny cyclic working set, then a large random one) and
// asserts the continuous profiler surfaces it on /metrics: push and
// subscription counters, a drift event at the phase boundary, and a
// working-set alert once windows outgrow the configured threshold.
func TestWatchMetricsAndWorkingSetAlert(t *testing.T) {
	cfg := testConfig(64) // dense sampling so every window clears MinSamples
	const (
		batch = 2048
		every = 8 // window = 16384 accesses = 256 samples
		phase = 128 * 1024
	)
	accs, err := trace.Collect(trace.Concat(
		trace.Cyclic(0, 64, phase),
		trace.RandomUniform(17, 0, 1<<15, phase),
	))
	if err != nil {
		t.Fatal(err)
	}

	// Threshold far above the cyclic phase's 512-byte working set and far
	// below the random phase's: the alert must fire exactly once, on the
	// first large window.
	s := start(t, server.Config{AlertWorkingSetBytes: 4096})
	c := dial(t, s)
	if _, err := c.Open(cfg); err != nil {
		t.Fatal(err)
	}
	if err := c.Watch(every); err != nil {
		t.Fatal(err)
	}
	var sent uint64
	for off := 0; off < len(accs); off += batch {
		end := off + batch
		if end > len(accs) {
			end = len(accs)
		}
		if err := c.SendBatch(accs[off:end]); err != nil {
			t.Fatal(err)
		}
		sent++
		if sent%every == 0 {
			if _, err := c.ReadPush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Snapshot the metrics while the session is live: the alert listing
	// only covers open sessions.
	m := s.MetricsSnapshot()
	if m.WatchSubscriptions < 1 {
		t.Errorf("watch_subscriptions = %d, want >= 1", m.WatchSubscriptions)
	}
	if want := uint64(2 * phase / (batch * every)); m.SnapshotPushes != want {
		t.Errorf("snapshot_pushes = %d, want %d", m.SnapshotPushes, want)
	}
	if m.DriftEvents < 1 {
		t.Error("no drift event recorded across the phase change")
	}
	if m.WSAlertsTotal != 1 {
		t.Errorf("ws_alerts_total = %d, want exactly 1 (one rising edge)", m.WSAlertsTotal)
	}
	if len(m.Alerts) != 1 || !strings.Contains(m.Alerts[0], "past L3") {
		t.Errorf("alert listing = %q, want one 'past L3' line", m.Alerts)
	}

	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
}
