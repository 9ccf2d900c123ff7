package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/wire"
)

// Live session migration: how rdxd drains without losing sessions.
//
// A migration moves one session's complete state — the profiler
// checkpoint (or a finished session's retained result) — from this
// backend to another, so a backend can be drained live (POST /drain,
// `rdx -drain`) instead of cutting its sessions off. The handover is
// strictly ordered for the client's ack safety:
//
//  1. The runner reaches a batch boundary and takes a durable local
//     checkpoint (the anchor: nothing is riskier than before).
//  2. The checkpoint is pushed to the destination (wire.PushHandoff)
//     and the destination acknowledges only after its own durable
//     install.
//  3. Only then is the token tombstoned and the client redirected
//     (FrameMoved in-band; or as the answer to a later resume attempt).
//
// The handed-over state covers batch sequence numbers up to the
// migration checkpoint; the client trims its replay buffer to that
// sequence on resume, exactly as after any reconnect, so no batch is
// executed twice and none is lost: batches beyond the checkpoint are
// still in the client's replay buffer because they were never
// acknowledged. If every destination refuses the handoff, the session
// simply keeps running here — migration is an optimization, never a
// correctness risk.

// MigrateTarget names a destination backend for live migration: the
// wire-protocol address plus the optional admin address advertised to
// redirected clients (a pool uses it for health probes).
type MigrateTarget struct {
	Addr  string `json:"addr"`
	Admin string `json:"admin,omitempty"`
}

// ParseMigrateTargets parses destination specs, each "addr" or
// "addr=adminaddr" — the same element format pool backend lists use.
func ParseMigrateTargets(specs []string) ([]MigrateTarget, error) {
	var ts []MigrateTarget
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		addr, admin, _ := strings.Cut(spec, "=")
		if addr == "" {
			return nil, fmt.Errorf("server: empty migration target in %q", spec)
		}
		ts = append(ts, MigrateTarget{Addr: addr, Admin: admin})
	}
	return ts, nil
}

// maxMovedTombstones bounds the token→destination redirect map; beyond
// it the oldest tombstones are forgotten (their clients fall back to
// the pool's full re-dispatch path, which is correct, just slower).
const maxMovedTombstones = 4096

// recordMoved tombstones a migrated token. The first writer wins: if a
// concurrent handoff already recorded a destination, that one is
// returned, so every answer for a token names the same backend.
func (s *Server) recordMoved(token string, mv wire.Moved) wire.Moved {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.moved[token]; ok {
		return old
	}
	s.moved[token] = mv
	s.movedOrder = append(s.movedOrder, token)
	for len(s.moved) > maxMovedTombstones && len(s.movedOrder) > 0 {
		delete(s.moved, s.movedOrder[0])
		s.movedOrder = s.movedOrder[1:]
	}
	return mv
}

// lookupMoved reports where a migrated token's session now lives.
func (s *Server) lookupMoved(token string) (wire.Moved, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mv, ok := s.moved[token]
	return mv, ok
}

// movedSessionError carries a migration redirect out of the resume
// path; handleConn answers it with FrameMoved instead of FrameError.
type movedSessionError struct{ to wire.Moved }

func (e *movedSessionError) Error() string {
	return fmt.Sprintf("session moved to %s", e.to.Addr)
}

// Drain puts the server into drain mode and orders every live session
// to migrate to one of the targets: new opens are shed, /healthz
// reports 503, live runners hand their sessions off at the next batch
// boundary, and resume attempts for retained (disconnected) sessions
// are answered with an on-demand handoff plus redirect. It returns the
// number of sessions ordered to move. Draining is idempotent; calling
// it again re-orders sessions whose earlier handoff failed. With no
// targets the server just stops admitting work, like the SIGTERM path.
func (s *Server) Drain(targets []MigrateTarget) int {
	s.mu.Lock()
	s.draining = true
	if len(targets) > 0 {
		s.drainTo = append([]MigrateTarget(nil), targets...)
	}
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if len(targets) == 0 {
		return 0
	}
	ordered := 0
	for i, sess := range sessions {
		if s.orderMigration(sess, rotateTargets(targets, i)) {
			ordered++
		}
	}
	return ordered
}

// rotateTargets spreads migrations round-robin: session i tries the
// targets starting at offset i.
func rotateTargets(targets []MigrateTarget, i int) []MigrateTarget {
	if len(targets) <= 1 {
		return targets
	}
	off := i % len(targets)
	out := make([]MigrateTarget, 0, len(targets))
	out = append(out, targets[off:]...)
	return append(out, targets[:off]...)
}

// orderMigration delivers one migration order to a session
// (non-blocking: an order already pending is not duplicated); an idle
// session's runSession is waiting on the channel and acts on it at once.
func (s *Server) orderMigration(sess *session, targets []MigrateTarget) bool {
	select {
	case sess.migrate <- migrateOrder{targets: targets}:
		s.metrics.migrationsOrdered.Add(1)
		return true
	default:
		return false
	}
}

// migrateSession executes a migration order on the session's own
// goroutine, between items (the machine is quiescent at a batch
// boundary): durable local checkpoint, handoff to the first willing
// target, tombstone, client redirect. It reports whether the session
// was handed off — true means the session is terminal here; false means
// every target refused and the session keeps running.
func (s *Server) migrateSession(sess *session, bw *bufio.Writer, ord migrateOrder) bool {
	if sess.completed {
		return false
	}
	// Anchor locally first: after this the migration can fail at any
	// point with nothing lost.
	if err := s.checkpointSession(sess); err != nil {
		s.cfg.Logf("rdxd: session %d: migration checkpoint: %v", sess.id, err)
		return false
	}
	blob := sess.prof.Checkpoint()
	for _, tgt := range ord.targets {
		err := wire.PushHandoff(context.Background(), s.cfg.HandoffDial, tgt.Addr,
			wire.HandoffLive, sess.lastApplied, sess.token, blob, s.cfg.HandoffTimeout)
		if err != nil {
			s.metrics.handoffFailures.Add(1)
			s.cfg.Logf("rdxd: session %d: handoff to %s: %v", sess.id, tgt.Addr, err)
			continue
		}
		mv := s.recordMoved(sess.token, wire.Moved{Addr: tgt.Addr, Admin: tgt.Admin, Seq: sess.lastApplied})
		s.metrics.handoffsOut.Add(1)
		s.ckpts.drop(sess.token)
		sess.migrated = true
		// Best-effort in-band redirect; if the write is lost the client
		// reconnects here and the tombstone answers the resume.
		s.armWrite(sess.conn)
		writeJSONFrame(bw, wire.FrameMoved, mv)
		sess.conn.Close() // unblocks the reader; the connection is done
		s.cfg.Logf("rdxd: session %d migrated to %s (state through batch %d)", sess.id, tgt.Addr, sess.lastApplied)
		return true
	}
	return false
}

// handoffRetained pushes a retained (disconnected or finished) session
// state to one of the drain targets, on demand, when its client shows
// up to resume during a drain. Returns the redirect to answer with.
func (s *Server) handoffRetained(token string, ent *ckptEntry, targets []MigrateTarget) (wire.Moved, bool) {
	kind, body := wire.HandoffLive, ent.blob
	if ent.final != nil {
		kind, body = wire.HandoffFinal, ent.final
	}
	for _, tgt := range targets {
		err := wire.PushHandoff(context.Background(), s.cfg.HandoffDial, tgt.Addr,
			kind, ent.seq, token, body, s.cfg.HandoffTimeout)
		if err != nil {
			s.metrics.handoffFailures.Add(1)
			s.cfg.Logf("rdxd: resume handoff to %s: %v", tgt.Addr, err)
			continue
		}
		mv := s.recordMoved(token, wire.Moved{Addr: tgt.Addr, Admin: tgt.Admin, Seq: ent.seq})
		s.metrics.handoffsOut.Add(1)
		s.ckpts.drop(token)
		return mv, true
	}
	return wire.Moved{}, false
}

// handleHandoff is the receiving half of a migration: it installs the
// transferred session state durably and acknowledges. payload is the
// connection's frame buffer.
func (s *Server) handleHandoff(conn net.Conn, bw *bufio.Writer, payload []byte) {
	reject := func(err error) {
		s.armWrite(conn)
		wire.WriteFrame(bw, wire.FrameError, []byte(err.Error()))
		bw.Flush()
	}
	kind, seq, token, body, err := wire.DecodeHandoff(payload)
	if err != nil {
		reject(err)
		return
	}
	if !validToken(token) {
		reject(fmt.Errorf("malformed handoff token"))
		return
	}
	// The body outlives the connection's frame buffer: copy it out.
	state := append([]byte(nil), body...)

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		reject(fmt.Errorf("server draining"))
		return
	}
	// A live checkpoint must decode before we promise to serve resumes
	// from it; refusing now keeps the session running at the source.
	if kind == wire.HandoffLive {
		if _, _, err := core.RestoreProfiler(state); err != nil {
			reject(fmt.Errorf("handoff checkpoint does not decode: %v", err))
			return
		}
	}
	req := ckptReq{token: token, seq: seq, done: make(chan error, 1)}
	if kind == wire.HandoffFinal {
		req.final = state
	} else {
		req.blob = state
	}
	s.ckptq <- req
	if err := <-req.done; err != nil {
		reject(fmt.Errorf("installing handoff: %v", err))
		return
	}
	// The session lives here now: a stale tombstone from an earlier
	// migration epoch must not bounce its client away again.
	s.mu.Lock()
	delete(s.moved, token)
	s.mu.Unlock()
	s.metrics.handoffsIn.Add(1)
	s.armWrite(conn)
	wire.WriteFrame(bw, wire.FrameHandoffOK, nil)
	bw.Flush()
}

// maxControlBody bounds admin request bodies (/drain and /whatif):
// target lists and cache hierarchies are tiny, so anything larger is a
// client bug or abuse. A list body decodes at up to about 70 heap bytes
// per byte, so the cap also bounds what one request can allocate.
const maxControlBody = 64 << 10

// drainRequest is the POST /drain body.
type drainRequest struct {
	// To lists migration destinations, each "addr" or "addr=adminaddr".
	// Empty drains without migrating (sessions run to completion).
	To []string `json:"to"`
}

// drainReply is the POST /drain response.
type drainReply struct {
	Draining bool `json:"draining"`
	Sessions int  `json:"sessions"`
	Ordered  int  `json:"ordered"`
}

// handleDrain is POST /drain: enter drain mode and migrate every live
// session to the given destinations. Idempotent: `rdx -drain` polls
// /metrics and re-POSTs until sessions_active reaches zero.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, ok := readBody(w, r, maxControlBody)
	if !ok {
		return
	}
	targets, err := decodeDrainRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ordered := s.Drain(targets)
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Write(mustJSON(drainReply{Draining: true, Sessions: n, Ordered: ordered}))
}

// decodeDrainRequest decodes a POST /drain body, strictly, into its
// target list, refusing one over maxControlBody. An empty body drains
// without migrating.
func decodeDrainRequest(body []byte) ([]MigrateTarget, error) {
	if len(body) > maxControlBody {
		return nil, fmt.Errorf("body of %d bytes exceeds limit %d", len(body), maxControlBody)
	}
	var req drainRequest
	if len(body) > 0 {
		if err := unmarshalStrict(body, &req); err != nil {
			return nil, fmt.Errorf("bad request body: %v", err)
		}
	}
	return ParseMigrateTargets(req.To)
}

// readBody reads an admin request's body, at most limit bytes. It
// answers the request itself when it reports false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}
