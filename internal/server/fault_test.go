package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/mem"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// testPolicy is a retry policy tuned for test time: fast backoff, many
// attempts, frequent syncs so the replay buffer is exercised.
func testPolicy(seed uint64) wire.RetryPolicy {
	return wire.RetryPolicy{
		MaxAttempts: 40,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		OpTimeout:   10 * time.Second,
		SyncEvery:   8,
		Seed:        seed,
	}
}

// TestResilientProfileUnderFaults is the fault-injection acceptance
// test: seeded connection drops, partial writes and bit corruption on
// every connection, and the final result must still be bit-identical
// to the local rdx.Profile ground truth.
func TestResilientProfileUnderFaults(t *testing.T) {
	cfg := testConfig(400)
	accs, err := trace.Collect(trace.ZipfAccess(17, 0, 8192, 1.0, 250000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	s := start(t, server.Config{
		CheckpointEvery: 4,
		RetryAfterHint:  5 * time.Millisecond,
	})
	faults := faultnet.NewDialer(faultnet.Options{
		Seed:          99,
		DropAfterMin:  80_000,
		DropAfterMax:  200_000,
		CorruptProb:   0.02,
		PartialWrites: true,
	}, nil)
	policy := testPolicy(7)
	policy.Dial = faults.DialContext

	rc := wire.NewReconnectingClient(s.Addr(), cfg, policy)
	defer rc.Close()
	got, err := rc.Profile(context.Background(), trace.FromSlice(accs), wire.ProfileOptions{BatchSize: 2048}, 0, nil)
	if err != nil {
		t.Fatalf("resilient profile failed: %v (stats %+v)", err, rc.Stats())
	}
	sameWireProfile(t, "faulted remote vs local", got, want)

	st := rc.Stats()
	if st.Reconnects == 0 {
		t.Errorf("no reconnects despite injected drops (dialer made %d connections)", faults.Conns())
	}
	if st.AckedSeq == 0 {
		t.Error("no durable acknowledgment ever arrived")
	}
	m := s.MetricsSnapshot()
	if m.ResumedSessions == 0 {
		t.Errorf("server resumed no sessions: %+v", m)
	}
	if m.CheckpointsTotal == 0 || m.CheckpointBytes == 0 {
		t.Errorf("no checkpoints recorded: total=%d bytes=%d", m.CheckpointsTotal, m.CheckpointBytes)
	}
}

// recordConn records every byte the client writes through it, before
// the fault injector beneath it tears or drops the connection.
type recordConn struct {
	net.Conn
	buf *bytes.Buffer
}

func (c recordConn) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.Conn.Write(p)
}

// TestReplayResendsEncodedBytes: a resilient session replays a batch by
// resending the bytes it first sent, not by encoding the batch again.
// Every connection's client-side byte stream is recorded and split into
// frames; each batch sequence number sent on more than one connection
// must carry a byte-identical payload every time (the replay buffer
// holds the encoded payload), at least one batch must be replayed, and
// the profile must still match the local run.
func TestReplayResendsEncodedBytes(t *testing.T) {
	cfg := testConfig(400)
	accs, err := trace.Collect(trace.ZipfAccess(23, 0, 8192, 1.0, 200000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)
	s := start(t, server.Config{CheckpointEvery: 4, RetryAfterHint: 5 * time.Millisecond})
	faults := faultnet.NewDialer(faultnet.Options{Seed: 5, DropAfterMin: 30_000, DropAfterMax: 90_000}, nil)
	var streams []*bytes.Buffer
	policy := testPolicy(11)
	policy.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := faults.DialContext(ctx, addr)
		if err != nil {
			return nil, err
		}
		streams = append(streams, new(bytes.Buffer))
		return recordConn{Conn: conn, buf: streams[len(streams)-1]}, nil
	}
	rc := wire.NewReconnectingClient(s.Addr(), cfg, policy)
	defer rc.Close()
	got, err := rc.Profile(context.Background(), trace.FromSlice(accs), wire.ProfileOptions{BatchSize: 2048}, 0, nil)
	if err != nil {
		t.Fatalf("resilient profile failed: %v (stats %+v)", err, rc.Stats())
	}
	sameWireProfile(t, "replayed remote vs local", got, want)

	sent := make(map[uint64][]byte)
	resent := 0
	for _, stream := range streams {
		for {
			ft, payload, err := wire.ReadFrame(stream)
			if err != nil {
				break // end of stream, or a frame torn by the drop
			}
			if ft != wire.FrameBatchV3 {
				continue
			}
			seq := binary.BigEndian.Uint64(payload)
			if first, ok := sent[seq]; !ok {
				sent[seq] = payload
			} else if resent++; !bytes.Equal(first, payload) {
				t.Fatalf("batch %d resent with different bytes (%d vs %d)", seq, len(payload), len(first))
			}
		}
	}
	if st := rc.Stats(); st.ReplayedBatches == 0 || resent == 0 {
		t.Errorf("no batch was replayed (stats %+v, %d connections, %d resent frames)", st, len(streams), resent)
	}
}

// TestResilientSurvivesDaemonRestart kills the entire server process
// state mid-stream (Close, then a fresh Server on the same address and
// checkpoint directory) and requires the client to resume from the
// spilled checkpoint and finish with a bit-identical result.
func TestResilientSurvivesDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(400)
	accs, err := trace.Collect(trace.ZipfAccess(5, 0, 4096, 1.0, 200000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	// Reserve a concrete port so the restarted server can take over the
	// client's address.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	mkServer := func(delay time.Duration) *server.Server {
		var srv *server.Server
		deadline := time.Now().Add(10 * time.Second)
		for {
			srv, err = server.New(server.Config{
				Addr:            addr,
				CheckpointDir:   dir,
				CheckpointEvery: 2,
				StepDelay:       delay,
				Logf:            quietLogf,
			})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rebinding %s: %v", addr, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		srv.Start()
		return srv
	}

	// First incarnation: deliberately slow so the kill lands mid-stream.
	s1 := mkServer(2 * time.Millisecond)

	rc := wire.NewReconnectingClient(addr, cfg, testPolicy(3))
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

	// Wait for real progress, then kill the daemon outright.
	deadline := time.Now().Add(15 * time.Second)
	for s1.MetricsSnapshot().BatchesTotal < 10 {
		if time.Now().After(deadline) {
			t.Fatal("first server never made progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Close()

	// Second incarnation on the same address and checkpoint directory.
	s2 := mkServer(0)
	defer s2.Close()

	out := <-done
	if out.err != nil {
		t.Fatalf("profile across restart failed: %v (stats %+v)", out.err, rc.Stats())
	}
	sameWireProfile(t, "restarted remote vs local", out.res, want)
	if rc.Stats().Reconnects == 0 {
		t.Error("client never reconnected despite the restart")
	}
	if m := s2.MetricsSnapshot(); m.ResumedSessions == 0 {
		t.Errorf("restarted server resumed no sessions: %+v", m)
	}
}

// TestResumeRejectsUnknownAndMalformedTokens: a resume for a token the
// server has never seen (or one that is not even token-shaped) is a
// prompt, descriptive error — not a hang, not a fresh session.
func TestResumeRejectsUnknownAndMalformedTokens(t *testing.T) {
	s := start(t, server.Config{CheckpointDir: t.TempDir()})

	c := dial(t, s)
	_, err := c.Resume(testConfig(500), strings.Repeat("ab", 16), 0)
	if err == nil || !strings.Contains(err.Error(), "unknown or expired") {
		t.Errorf("unknown token: err=%v, want unknown-token rejection", err)
	}

	c2 := dial(t, s)
	_, err = c2.Resume(testConfig(500), "../../etc/passwd", 0)
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("malformed token: err=%v, want malformed-token rejection", err)
	}
}

// TestResumeRejectsCorruptCheckpoint flips bytes in a spilled
// checkpoint file and requires the resume (after a restart, so the
// disk copy is authoritative) to fail with a checksum error instead of
// restoring garbage.
func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(500)
	accs, err := trace.Collect(trace.Cyclic(0, 512, 50000))
	if err != nil {
		t.Fatal(err)
	}

	s1 := start(t, server.Config{CheckpointDir: dir, CheckpointEvery: 2})
	c := dial(t, s1)
	reply, err := c.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Token == "" {
		t.Fatal("open reply carries no resume token")
	}
	if err := c.SendBatch(accs); err != nil {
		t.Fatal(err)
	}
	if acked, err := c.Sync(); err != nil || acked != 1 {
		t.Fatalf("sync: acked=%d err=%v, want 1, nil", acked, err)
	}
	c.Close()
	s1.Close()

	path := filepath.Join(dir, reply.Token+".rdxs")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("spilled checkpoint missing: %v", err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o600); err != nil {
		t.Fatal(err)
	}

	s2 := start(t, server.Config{CheckpointDir: dir})
	c2 := dial(t, s2)
	_, err = c2.Resume(cfg, reply.Token, 1)
	if err == nil || !strings.Contains(err.Error(), "corrupt checkpoint") {
		t.Errorf("corrupt checkpoint resume: err=%v, want corruption rejection", err)
	}
	if m := s2.MetricsSnapshot(); m.ResumeFailures == 0 {
		t.Errorf("resume failure not counted: %+v", m)
	}
}

// TestResumeRejectsConfigMismatch: resuming a checkpoint under a
// different profiler configuration must be refused — silently adopting
// either config would produce a result matching neither run.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	s := start(t, server.Config{CheckpointEvery: 1})
	cfg := testConfig(500)
	c := dial(t, s)
	reply, err := c.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Wait for the disconnect checkpoint to land (session unregisters
	// after checkpointing).
	deadline := time.Now().Add(5 * time.Second)
	for s.MetricsSnapshot().SessionsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never freed")
		}
		time.Sleep(time.Millisecond)
	}

	other := testConfig(999)
	c2 := dial(t, s)
	if _, err := c2.Resume(other, reply.Token, 0); err == nil || !strings.Contains(err.Error(), "config") {
		t.Errorf("config-mismatch resume: err=%v, want config rejection", err)
	}
}

// TestShutdownRacesResume: a resume arriving while the server drains is
// shed with an explicit retry-after, and Shutdown still completes.
func TestShutdownRacesResume(t *testing.T) {
	s := start(t, server.Config{CheckpointEvery: 1, StepDelay: time.Millisecond})
	cfg := testConfig(500)

	// A checkpointed, disconnected session to resume later.
	c := dial(t, s)
	reply, err := c.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.MetricsSnapshot().SessionsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never freed")
		}
		time.Sleep(time.Millisecond)
	}

	// An in-flight session keeps the drain pending while we probe, and
	// a second connection is established BEFORE the drain starts — its
	// resume request lands after, racing the shutdown.
	holder := dial(t, s)
	if _, err := holder.Open(cfg); err != nil {
		t.Fatal(err)
	}
	racer := dial(t, s)
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	for !s.MetricsSnapshot().Draining {
		if time.Now().After(deadline.Add(5 * time.Second)) {
			t.Fatal("drain never became visible")
		}
		time.Sleep(time.Millisecond)
	}

	_, rerr := racer.Resume(cfg, reply.Token, 0)
	var ra *wire.RetryAfterError
	if !errors.As(rerr, &ra) {
		t.Errorf("resume during drain: err=%v, want *RetryAfterError", rerr)
	} else if !strings.Contains(ra.Reason, "draining") {
		t.Errorf("shed reason %q, want draining", ra.Reason)
	}
	if m := s.MetricsSnapshot(); m.ShedRequests == 0 {
		t.Errorf("shed requests not counted: %+v", m)
	}

	if _, err := holder.Finish(); err != nil {
		t.Fatalf("in-flight finish during drain: %v", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("shutdown did not complete cleanly: %v", err)
	}
}

// TestSessionLimitShedsWithRetryAfter: capacity rejections carry an
// explicit retry hint so well-behaved clients back off instead of
// hammering.
func TestSessionLimitShedsWithRetryAfter(t *testing.T) {
	s := start(t, server.Config{MaxSessions: 1, RetryAfterHint: 40 * time.Millisecond})
	cfg := testConfig(500)
	c1 := dial(t, s)
	if _, err := c1.Open(cfg); err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, s)
	_, err := c2.Open(cfg)
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("over-capacity open: err=%v, want *RetryAfterError", err)
	}
	if ra.After != 40*time.Millisecond {
		t.Errorf("retry hint %v, want 40ms", ra.After)
	}
	if !strings.Contains(ra.Reason, "session limit") {
		t.Errorf("shed reason %q, want session limit", ra.Reason)
	}
	if m := s.MetricsSnapshot(); m.ShedRequests != 1 {
		t.Errorf("shed requests = %d, want 1", m.ShedRequests)
	}
}

// TestFinalResultSurvivesLostReply: the server retains a finished
// session's result, so a client whose result frame was lost fetches
// the identical result by resuming and retrying Finish.
func TestFinalResultSurvivesLostReply(t *testing.T) {
	s := start(t, server.Config{})
	cfg := testConfig(500)
	accs, err := trace.Collect(trace.ZipfAccess(2, 0, 2048, 1.0, 100000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	c := dial(t, s)
	reply, err := c.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(accs); err != nil {
		t.Fatal(err)
	}
	got1, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c.Close() // the reply arrived here, but pretend the client lost it

	// A resume against the finished session reports Done and serves the
	// retained result to a retried Finish.
	c2, r2 := resumeRetrying(t, s, cfg, reply.Token, 1)
	if !r2.Done {
		t.Error("resume of finished session not marked done")
	}
	got2, err := c2.Finish()
	if err != nil {
		t.Fatalf("refetching final result: %v", err)
	}
	sameWireProfile(t, "first fetch vs local", got1, want)
	sameWireProfile(t, "refetched vs first", got2, got1)

	if got2.StateBytes != got1.StateBytes || got2.Accesses != got1.Accesses {
		t.Error("retained result differs from the original reply")
	}
}

// resumeRetrying resumes token on a fresh connection, retrying while
// the server sheds the resume with a retry-after — as it does while the
// previous connection's teardown still holds the token — the way
// ReconnectingClient does, until a deadline.
func resumeRetrying(t *testing.T, s *server.Server, cfg core.Config, token string, lastAcked uint64) (*wire.Client, wire.OpenReply) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c := dial(t, s)
		r, err := c.Resume(cfg, token, lastAcked)
		if err == nil {
			return c, r
		}
		var ra *wire.RetryAfterError
		if !errors.As(err, &ra) || time.Now().After(deadline) {
			t.Fatalf("resume of session %s: %v", token, err)
		}
		c.Close()
		time.Sleep(time.Millisecond)
	}
}

// TestReplayedBatchesAreDiscarded: sending a batch the server already
// executed (same sequence number) must not change the profile — the
// metric counts it, the engine never sees it.
func TestReplayedBatchesAreDiscarded(t *testing.T) {
	s := start(t, server.Config{CheckpointEvery: 1})
	cfg := testConfig(500)
	accs, err := trace.Collect(trace.Cyclic(0, 256, 60000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)
	half := len(accs) / 2

	c := dial(t, s)
	reply, err := c.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(accs[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	c.Close() // drop mid-session

	deadline := time.Now().Add(5 * time.Second)
	for s.MetricsSnapshot().SessionsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never freed")
		}
		time.Sleep(time.Millisecond)
	}

	c2 := dial(t, s)
	r2, err := c2.Resume(cfg, reply.Token, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ResumeSeq != 1 {
		t.Fatalf("resume seq = %d, want 1", r2.ResumeSeq)
	}
	// Replay batch 1 (already executed) by resetting the counter, then
	// send the genuine second half.
	c2.SetNextSeq(1)
	if err := c2.SendBatch(accs[:half]); err != nil {
		t.Fatal(err)
	}
	if err := c2.SendBatch(accs[half:]); err != nil {
		t.Fatal(err)
	}
	got, err := c2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sameWireProfile(t, "replayed remote vs local", got, want)
	if m := s.MetricsSnapshot(); m.ReplayedBatches != 1 {
		t.Errorf("replayed batches = %d, want 1", m.ReplayedBatches)
	}
}

// TestSequenceGapRejected: skipping a sequence number is a protocol
// error — executing out of order would silently corrupt the profile.
func TestSequenceGapRejected(t *testing.T) {
	s := start(t, server.Config{})
	c := dial(t, s)
	if _, err := c.Open(testConfig(500)); err != nil {
		t.Fatal(err)
	}
	accs := make([]mem.Access, 100)
	for i := range accs {
		accs[i] = mem.Access{Addr: mem.Addr(i * 64), Size: 8}
	}
	c.SetNextSeq(5) // skip 1..4
	if err := c.SendBatch(accs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finish(); err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Errorf("gapped batch: err=%v, want sequence-gap rejection", err)
	}
}

// TestRestartResumesOrRefusesTornCheckpoint damages the spilled
// checkpoint of a synced session at a few offsets (envelope kind and
// seq, checksum, body) and cuts it short, then restarts the daemon on
// each damaged copy and resumes the session the way a client does:
// replaying every batch after the resume point. Each resume must either
// be refused or finish bit-identical to the local profile; a damaged
// file must never finish as a different profile.
func TestRestartResumesOrRefusesTornCheckpoint(t *testing.T) {
	const batch = 4096
	cfg := testConfig(500)
	accs, err := trace.Collect(trace.ZipfAccess(17, 0, 8192, 1.0, 16*batch))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)
	batches := make([][]mem.Access, 0, len(accs)/batch)
	for off := 0; off < len(accs); off += batch {
		batches = append(batches, accs[off:off+batch])
	}

	dir := t.TempDir()
	s1 := start(t, server.Config{CheckpointDir: dir, CheckpointEvery: -1})
	c := dial(t, s1)
	reply, err := c.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:len(batches)/2] {
		if err := c.SendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	acked, err := c.Sync()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	s1.Close()
	orig, err := os.ReadFile(filepath.Join(dir, reply.Token+".rdxs"))
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string][]byte{"intact": orig}
	for _, off := range []int{5, 13, 17, 22, len(orig) / 2, len(orig) - 1} {
		for _, mask := range []byte{0x01, 0xFF} {
			data := append([]byte(nil), orig...)
			data[off] ^= mask
			damage[fmt.Sprintf("byte %d flipped by %#x", off, mask)] = data
		}
	}
	damage["cut to the header"] = orig[:22]
	damage["cut by one byte"] = orig[:len(orig)-1]

	resumed := 0
	for label, data := range damage {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, reply.Token+".rdxs"), data, 0o600); err != nil {
			t.Fatal(err)
		}
		s2 := start(t, server.Config{CheckpointDir: d})
		c2 := dial(t, s2)
		r, err := c2.Resume(cfg, reply.Token, acked)
		if err != nil {
			if label == "intact" {
				t.Fatalf("intact checkpoint refused: %v", err)
			}
			s2.Close()
			continue
		}
		got, err := func() (*wire.Result, error) {
			if r.ResumeSeq > uint64(len(batches)) {
				return nil, fmt.Errorf("resume point %d past the stream's %d batches", r.ResumeSeq, len(batches))
			}
			for _, b := range batches[r.ResumeSeq:] {
				if err := c2.SendBatch(b); err != nil {
					return nil, err
				}
			}
			return c2.Finish()
		}()
		if err != nil {
			t.Errorf("%s: resumed at batch %d, then: %v", label, r.ResumeSeq, err)
		} else {
			sameWireProfile(t, label, got, want)
			resumed++
		}
		s2.Close()
	}
	if resumed == 0 {
		t.Error("not even the intact checkpoint resumed")
	}
}
