package server_test

// Tests for the continuous profiler behind watched sessions: every
// snapshot a session serves closes one window, and the drift and
// working-set alerts it raises must surface on /metrics.

import (
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/trace"
)

// TestWatchMetricsAndWorkingSetAlert runs a session through a phase
// change (tiny cyclic working set, then a large random one), polling a
// snapshot at every window boundary as a watched run does, and asserts
// the continuous profiler surfaces it on /metrics: the snapshot
// counter, a drift event at the phase boundary, and a working-set
// alert once windows outgrow the configured threshold.
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
	var sent uint64
	for off := 0; off < len(accs); off += batch {
		if err := c.SendBatch(accs[off:min(off+batch, len(accs))]); err != nil {
			t.Fatal(err)
		}
		if sent++; sent%every == 0 {
			if _, err := c.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Snapshot the metrics while the session is live: the alert listing
	// only covers open sessions.
	m := s.MetricsSnapshot()
	if want := uint64(2 * phase / (batch * every)); m.SnapshotsTotal != want {
		t.Errorf("snapshots_total = %d, want %d", m.SnapshotsTotal, want)
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
