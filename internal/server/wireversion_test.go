package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// rawOpen dials s and sends a FrameOpen offering wire version ver,
// returning the connection and the server's reply frame.
func rawOpen(t *testing.T, s *server.Server, ver int) (net.Conn, wire.FrameType, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req, err := json.Marshal(wire.OpenRequest{Config: testConfig(300), Wire: ver})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.FrameOpen, req); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return conn, ft, payload
}

// TestWireVersionMatrix opens sessions offering each wire version. The
// server speaks only version 4: a v4 client profiles bit-identically to
// the local run over compressed columnar batches, and an open offering
// any other version — its neighbours included — is refused with an error
// naming both versions.
func TestWireVersionMatrix(t *testing.T) {
	cfg := testConfig(300)
	accs, err := trace.Collect(trace.ZipfAccess(21, 0, 8192, 1.0, 150000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	for _, ver := range []int{0, 3, 5} {
		t.Run(fmt.Sprintf("v%d-client-to-v4-server", ver), func(t *testing.T) {
			s := start(t, server.Config{})
			_, ft, payload := rawOpen(t, s, ver)
			if ft != wire.FrameError {
				t.Fatalf("open offering wire %d answered with %s frame, want error", ver, ft)
			}
			msg := string(payload)
			if !strings.Contains(msg, fmt.Sprintf("unsupported wire version %d", ver)) ||
				!strings.Contains(msg, "only version 4") {
				t.Errorf("rejection %q does not name both versions", msg)
			}
			if m := s.MetricsSnapshot(); m.SessionsTotal != 0 {
				t.Errorf("rejected open registered %d sessions", m.SessionsTotal)
			}
		})
	}
	t.Run("v4-client-to-v4-server", func(t *testing.T) {
		s := start(t, server.Config{})
		got, err := profilePlain(dial(t, s), trace.FromSlice(accs), cfg, 2048)
		if err != nil {
			t.Fatal(err)
		}
		sameWireProfile(t, "v4 remote vs local", got, want)
		// The strided-and-clustered Zipf stream must actually compress.
		m := s.MetricsSnapshot()
		if m.BytesPerAccess <= 0 {
			t.Errorf("bytes_per_access not accounted: %+v", m)
		}
		if m.CompressionRatio < 2 {
			t.Errorf("v4 compression ratio %.2f, want >= 2", m.CompressionRatio)
		}
	})
}

// TestWireCompressionRatio streams each workload shape through one
// session and holds the server's measured compression ratio (the
// 18-byte raw access record over batch bytes per access) to the value
// the column codec was committed with. The encoding is deterministic,
// so the 5% tolerance only absorbs batch-boundary differences from the
// 4M-access streams the strided and sequential ratios were recorded on
// (the zero-run mode encodes both, so their bytes are the same as under
// the varint codec before bit-packing); clustered is bit-packed, and its
// ratio was measured on this 1M-access stream.
func TestWireCompressionRatio(t *testing.T) {
	const n = 1 << 20
	for _, c := range []struct {
		name      string
		r         trace.Reader
		committed float64
	}{
		// Lane-interleaved scans: the delta-of-delta best case short of
		// a pure scan.
		{"strided", trace.Strided(0, 8, 1<<10, 64, n), 17.91},
		// Zipf reuse, the paper's skewed-locality shape.
		{"clustered", trace.ZipfAccess(1, 0, 1<<14, 1.0, n), 7.95},
		// A unit-stride scan, which the zero-run mode collapses.
		{"sequential", trace.Sequential(0, n, 64), 2587.9},
	} {
		t.Run(c.name, func(t *testing.T) {
			accs, err := trace.Collect(c.r)
			if err != nil {
				t.Fatal(err)
			}
			s := start(t, server.Config{})
			if _, err := profilePlain(dial(t, s), trace.FromSlice(accs), testConfig(8192), 8192); err != nil {
				t.Fatal(err)
			}
			got := s.MetricsSnapshot().CompressionRatio
			t.Logf("%s compression: %.2fx measured, %.2fx committed", c.name, got, c.committed)
			if got < 0.95*c.committed {
				t.Errorf("%s compression ratio %.2fx < 95%% of committed %.2fx", c.name, got, c.committed)
			}
		})
	}
}

// TestRetiredBatchFrameFailsSession: the retired RDT3 batch frame type
// (0x02) sent mid-session is an unexpected frame, and the session fails
// with an error frame instead of executing it.
func TestRetiredBatchFrameFailsSession(t *testing.T) {
	s := start(t, server.Config{})
	retiredFrameFails(t, s, 0x02, append(make([]byte, 8), "RDT3"...))
	if m := s.MetricsSnapshot(); m.BatchesTotal != 0 {
		t.Errorf("server executed %d batches", m.BatchesTotal)
	}
}

// TestRetiredWatchFrameFailsSession: the retired watch subscription
// frame type (0x08) sent mid-session is an unexpected frame, and the
// session fails with an error frame instead of subscribing.
func TestRetiredWatchFrameFailsSession(t *testing.T) {
	s := start(t, server.Config{})
	retiredFrameFails(t, s, 0x08, []byte(`{"every_batches":1}`))
	if m := s.MetricsSnapshot(); m.SnapshotsTotal != 0 {
		t.Errorf("server served %d snapshots", m.SnapshotsTotal)
	}
}

// retiredFrameFails opens a session on s, sends it one frame of the
// unassigned type ft, and asserts the session answers with an
// unexpected-frame error.
func retiredFrameFails(t *testing.T, s *server.Server, ft wire.FrameType, payload []byte) {
	t.Helper()
	conn, got, reply := rawOpen(t, s, wire.WireV4)
	if got != wire.FrameOpenOK {
		t.Fatalf("v4 open answered with %s frame: %s", got, reply)
	}
	if err := wire.WriteFrame(conn, ft, payload); err != nil {
		t.Fatal(err)
	}
	got, reply, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if got != wire.FrameError || !strings.Contains(string(reply), "unexpected") {
		t.Fatalf("%#x frame answered with %s %q, want an unexpected-frame error", uint8(ft), got, reply)
	}
}

// TestTrailingJSONRefused: an open request with bytes after its JSON
// value is refused with an error frame, not decoded from its first
// value.
func TestTrailingJSONRefused(t *testing.T) {
	s := start(t, server.Config{})
	const junk = ` {"garbage":`
	t.Run("open", func(t *testing.T) {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		req, err := json.Marshal(wire.OpenRequest{Config: testConfig(300), Wire: wire.WireV4})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, wire.FrameOpen, append(req, junk...)); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if ft != wire.FrameError || !strings.Contains(string(payload), "after the JSON value") {
			t.Fatalf("open with trailing bytes answered with %s %q, want a bad-open-request error", ft, payload)
		}
	})
}

// TestReconnectAcrossDaemons is the cross-daemon chaos test: two
// daemons share a checkpoint directory, and every connection goes
// through a fault injector that drops and corrupts mid-stream. The dial
// hook alternates between the daemons, so each reconnect resumes the
// session on the other daemon from the shared checkpoints. The profile
// must come out bit-identical to the local run regardless.
func TestReconnectAcrossDaemons(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(400)
	accs, err := trace.Collect(trace.ZipfAccess(17, 0, 8192, 1.0, 250000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	mk := func() *server.Server {
		return start(t, server.Config{
			CheckpointDir:   dir,
			CheckpointEvery: 4,
			RetryAfterHint:  5 * time.Millisecond,
		})
	}
	sA, sB := mk(), mk()
	addrs := []string{sA.Addr(), sB.Addr()}

	faults := faultnet.NewDialer(faultnet.Options{
		Seed:          41,
		DropAfterMin:  60_000,
		DropAfterMax:  150_000,
		CorruptProb:   0.01,
		PartialWrites: true,
	}, nil)
	var conns atomic.Int64
	policy := testPolicy(9)
	policy.Dial = func(ctx context.Context, _ string) (net.Conn, error) {
		n := conns.Add(1)
		return faults.DialContext(ctx, addrs[int(n)%len(addrs)])
	}

	rc := wire.NewReconnectingClient(sA.Addr(), cfg, policy)
	defer rc.Close()
	got, err := rc.Profile(context.Background(), trace.FromSlice(accs), wire.ProfileOptions{BatchSize: 2048}, 0, nil)
	if err != nil {
		t.Fatalf("cross-daemon profile failed: %v (stats %+v)", err, rc.Stats())
	}
	sameWireProfile(t, "cross-daemon remote vs local", got, want)

	if st := rc.Stats(); st.Reconnects == 0 {
		t.Errorf("no reconnects despite injected drops (dialer made %d connections)", faults.Conns())
	}
	// Both daemons must have carried part of the stream: the session
	// really did resume across daemons mid-run.
	mA, mB := sA.MetricsSnapshot(), sB.MetricsSnapshot()
	if mA.BatchesTotal == 0 || mB.BatchesTotal == 0 {
		t.Errorf("stream did not cross daemons: first saw %d batches, second saw %d",
			mA.BatchesTotal, mB.BatchesTotal)
	}
}
