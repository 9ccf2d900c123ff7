package server_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLiveMigrationBitIdentical is the tentpole's core promise: drain a
// backend mid-run, the session is handed to another backend via
// checkpoint handover, the client follows the redirect transparently,
// and the final result is bit-identical to the local ground truth —
// with the drained backend left holding zero live sessions.
func TestLiveMigrationBitIdentical(t *testing.T) {
	cfg := testConfig(400)
	accs, err := trace.Collect(trace.ZipfAccess(21, 0, 8192, 1.0, 200000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	src := start(t, server.Config{
		AdminAddr:       "127.0.0.1:0",
		CheckpointEvery: 4,
		StepDelay:       time.Millisecond, // slow the run so the drain lands mid-stream
		RetryAfterHint:  5 * time.Millisecond,
	})
	dst := start(t, server.Config{
		AdminAddr:       "127.0.0.1:0",
		CheckpointEvery: 4,
	})

	rc := wire.NewReconnectingClient(src.Addr(), cfg, testPolicy(3))
	defer rc.Close()
	type outcome struct {
		res *wire.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := rc.Profile(context.Background(), trace.FromSlice(accs), wire.ProfileOptions{BatchSize: 1024}, 0, nil)
		done <- outcome{res, err}
	}()

	// Let the session make real progress on the source, then drain it.
	waitFor(t, "session progress on source", 10*time.Second, func() bool {
		return src.MetricsSnapshot().AccessesTotal > 20000
	})
	src.Drain([]server.MigrateTarget{{Addr: dst.Addr(), Admin: dst.AdminAddr()}})

	out := <-done
	if out.err != nil {
		t.Fatalf("profile across migration failed: %v (stats %+v)", out.err, rc.Stats())
	}
	sameWireProfile(t, "migrated remote vs local", out.res, want)

	if st := rc.Stats(); st.Moves == 0 {
		t.Errorf("client followed no redirect: %+v", st)
	}
	sm := src.MetricsSnapshot()
	if sm.HandoffsOut == 0 {
		t.Errorf("source recorded no outbound handoffs: %+v", sm)
	}
	waitFor(t, "source to empty", 5*time.Second, func() bool {
		return src.MetricsSnapshot().SessionsActive == 0
	})
	dm := dst.MetricsSnapshot()
	if dm.HandoffsIn == 0 {
		t.Errorf("destination recorded no inbound handoffs: %+v", dm)
	}
	if dm.AccessesTotal == 0 {
		t.Error("destination executed nothing after the handoff")
	}
	// Ack safety: nothing executed twice across the two backends.
	if total := sm.AccessesTotal + dm.AccessesTotal; total != uint64(len(accs)) {
		t.Errorf("accesses executed across backends = %d, want exactly %d (no double execution)", total, len(accs))
	}
}

// TestDrainRedirectsRetainedResume covers the no-live-runner path: a
// session disconnected before the drain has only a retained checkpoint.
// Its resume attempt during the drain triggers an on-demand handoff and
// a redirect; the client completes the run on the destination and the
// merged execution is still exact.
func TestDrainRedirectsRetainedResume(t *testing.T) {
	cfg := testConfig(400)
	accs, err := trace.Collect(trace.ZipfAccess(23, 0, 4096, 1.0, 60000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	src := start(t, server.Config{AdminAddr: "127.0.0.1:0", CheckpointEvery: 2})
	dst := start(t, server.Config{AdminAddr: "127.0.0.1:0", CheckpointEvery: 2})

	// First leg: stream half the batches to the source, sync (durable
	// checkpoint), drop the connection.
	const batch = 1000
	c1 := dial(t, src)
	reply, err := c1.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	token := reply.Token
	half := len(accs) / 2
	for off := 0; off < half; off += batch {
		if err := c1.SendBatch(accs[off:min(off+batch, half)]); err != nil {
			t.Fatal(err)
		}
	}
	synced, err := c1.Sync()
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	waitFor(t, "source session teardown", 5*time.Second, func() bool {
		return src.MetricsSnapshot().SessionsActive == 0
	})

	// Drain with the session disconnected: nothing live to migrate, so
	// the handoff happens on demand when the client comes back.
	src.Drain([]server.MigrateTarget{{Addr: dst.Addr(), Admin: dst.AdminAddr()}})

	c2 := dial(t, src)
	_, err = c2.Resume(cfg, token, synced)
	var mv *wire.MovedError
	if !errors.As(err, &mv) {
		t.Fatalf("resume on draining source: got %v, want a moved redirect", err)
	}
	if mv.Addr != dst.Addr() {
		t.Fatalf("redirected to %s, want %s", mv.Addr, dst.Addr())
	}
	if mv.Seq != synced {
		t.Fatalf("redirect covers batch %d, want the synced %d", mv.Seq, synced)
	}

	// A second resume on the source must hit the tombstone and answer
	// identically — the redirect is stable.
	c3 := dial(t, src)
	_, err = c3.Resume(cfg, token, synced)
	var mv2 *wire.MovedError
	if !errors.As(err, &mv2) || mv2.Addr != mv.Addr {
		t.Fatalf("second resume: got %v, want the same redirect to %s", err, mv.Addr)
	}

	// Second leg: resume on the destination from the handed-over
	// checkpoint and finish the stream there.
	c4 := dial(t, dst)
	r2, err := c4.Resume(cfg, token, synced)
	if err != nil {
		t.Fatalf("resume on destination: %v", err)
	}
	if r2.ResumeSeq != synced {
		t.Fatalf("destination resumes from batch %d, want %d", r2.ResumeSeq, synced)
	}
	c4.SetNextSeq(r2.ResumeSeq + 1)
	for off := half; off < len(accs); off += batch {
		if err := c4.SendBatch(accs[off:min(off+batch, len(accs))]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c4.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sameWireProfile(t, "handed-over resume vs local", got, want)
}

// TestMigrationRefusedKeepsSessionLocal: when every handoff destination
// refuses (here: the destination is itself draining), the draining
// source's session must keep running there and complete normally —
// migration is an optimization, never a correctness risk.
func TestMigrationRefusedKeepsSessionLocal(t *testing.T) {
	cfg := testConfig(400)
	accs, err := trace.Collect(trace.ZipfAccess(29, 0, 4096, 1.0, 80000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	src := start(t, server.Config{
		AdminAddr:       "127.0.0.1:0",
		CheckpointEvery: 4,
		StepDelay:       500 * time.Microsecond,
		HandoffTimeout:  time.Second,
	})
	dst := start(t, server.Config{AdminAddr: "127.0.0.1:0"})
	dst.Drain(nil) // destination refuses handoffs from now on

	rc := wire.NewReconnectingClient(src.Addr(), cfg, testPolicy(5))
	defer rc.Close()
	type outcome struct {
		res *wire.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := rc.Profile(context.Background(), trace.FromSlice(accs), wire.ProfileOptions{BatchSize: 1024}, 0, nil)
		done <- outcome{res, err}
	}()
	waitFor(t, "session progress on source", 10*time.Second, func() bool {
		return src.MetricsSnapshot().AccessesTotal > 10000
	})
	src.Drain([]server.MigrateTarget{{Addr: dst.Addr(), Admin: dst.AdminAddr()}})

	out := <-done
	if out.err != nil {
		t.Fatalf("profile failed after refused migration: %v", out.err)
	}
	sameWireProfile(t, "refused migration vs local", out.res, want)
	sm := src.MetricsSnapshot()
	if sm.HandoffsOut != 0 {
		t.Errorf("source handed off despite a draining destination: %+v", sm)
	}
	if sm.MigrationsOrdered == 0 {
		t.Errorf("no migration was ever ordered: %+v", sm)
	}
	if sm.HandoffFailures == 0 {
		t.Errorf("the refused handoff was not counted: %+v", sm)
	}
}
