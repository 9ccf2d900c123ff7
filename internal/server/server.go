// Package server implements rdxd, the streaming remote-profiling
// service: it accepts wire-protocol sessions over TCP, feeds each
// session's access batches through the batched cpu.Machine engine, and
// answers live snapshot requests from core.Profiler.Snapshot.
//
// # Concurrency model
//
// Each connection owns two goroutines: a reader that decodes frames into
// a bounded per-session queue, and the connection's own goroutine, which
// runs the session (runSession): it takes the queue's items in order and
// executes each while holding one of Config.Workers slots (default
// GOMAXPROCS), so at most that many sessions execute at once. Only that
// goroutine executes the session or writes its replies, so its batches
// run in queue order and its reply frames never interleave — per-session
// order is sequential by construction, and results are bit-identical to
// a local run. Which session runs on which core is the Go scheduler's
// business.
// Backpressure is emergent: a full session queue blocks the reader, the
// kernel's TCP window fills, and the client's SendBatch blocks —
// per-session server memory stays bounded by QueueDepth×MaxBatch
// regardless of how fast the client produces.
//
// # Drain semantics
//
// Shutdown stops accepting connections and waits for in-flight
// sessions to Finish naturally. Sessions still open when the context
// expires are force-closed. The admin /healthz endpoint reports 503
// from the moment draining starts, so load balancers stop routing new
// sessions before the listener closes.
//
// # Fault tolerance
//
// Every session is identified by a random token handed out at open.
// The server checkpoints the session's full profiler state (lossless,
// via core.Profiler.Checkpoint) at open, every CheckpointEvery
// batches, on an explicit client sync, and when the connection drops
// mid-session. Checkpoints live in an in-memory LRU and, when
// CheckpointDir is set, on disk — surviving a daemon restart. A client
// reconnecting with its token resumes exactly where the last
// checkpoint left off: the open reply carries the last executed batch
// sequence number, the client replays its unacknowledged tail, and
// the runner discards any batch it already executed — replay is
// idempotent. A finished session's final result is retained the same
// way, so a result frame lost in flight can be fetched again. When the
// server is at MaxSessions or draining, opens are shed with an
// explicit retry-after reply instead of a hard error.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/freelist"
	"repro/internal/trace"
	"repro/internal/window"
	"repro/internal/wire"
)

// Config configures an rdxd server. The zero value is usable for
// tests: it listens on an ephemeral loopback port with defaults.
type Config struct {
	// Addr is the profiling listener address (default "127.0.0.1:0").
	Addr string
	// AdminAddr, when non-empty, serves /healthz and /metrics on a
	// separate HTTP listener.
	AdminAddr string
	// Workers bounds how many sessions execute at once: each queue item
	// runs holding one of Workers slots (default runtime.GOMAXPROCS(0),
	// matching the parallelism the Go scheduler can actually deliver).
	Workers int
	// QueueDepth is the per-session bounded batch queue (default 8).
	// Together with MaxBatch it caps per-session buffered memory.
	QueueDepth int
	// MaxBatch is the largest accepted batch, in accesses (default
	// 1<<20). Larger batches are a protocol error.
	MaxBatch int
	// MaxSessions bounds concurrent sessions (default 64); further
	// opens are refused with a wire error.
	MaxSessions int
	// Costs is the CPU cost model sessions run under (default
	// cpumodel.Default()).
	Costs *cpumodel.Costs
	// StepDelay, when set, sleeps after executing each batch while
	// still holding the execution slot. Test hook: it makes the engine
	// slow so backpressure is observable.
	StepDelay time.Duration
	// Logf receives server diagnostics (default log.Printf; use a
	// no-op in tests).
	Logf func(format string, args ...any)

	// CheckpointEvery checkpoints each session every that many batches
	// (default 64; negative disables periodic checkpoints). Sessions
	// are also checkpointed at open, on client sync, and on disconnect.
	CheckpointEvery int
	// CheckpointDir, when non-empty, spills checkpoints to disk so
	// sessions survive a daemon restart. The directory is created if
	// missing.
	CheckpointDir string
	// MaxCheckpoints bounds retained in-memory checkpoints (default
	// 128); the least recently used are evicted first.
	MaxCheckpoints int
	// MaxDiskCheckpoints bounds spilled checkpoint files (default
	// 1024); the oldest are swept first.
	MaxDiskCheckpoints int
	// ReadTimeout bounds the wait for each inbound frame (default 5m;
	// negative disables). An idle connection past it is dropped — and
	// checkpointed, so the client can resume.
	ReadTimeout time.Duration
	// WriteTimeout bounds each outbound reply write (default 1m;
	// negative disables).
	WriteTimeout time.Duration
	// RetryAfterHint is the backoff suggested to shed clients (default
	// 500ms).
	RetryAfterHint time.Duration
	// EnablePprof registers net/http/pprof handlers under /debug/pprof/
	// on the admin listener (no effect without AdminAddr), so the ingest
	// path can be profiled in place.
	EnablePprof bool

	// AdminTimeout bounds each admin API request end to end: handlers
	// run under http.TimeoutHandler and the listener enforces a request
	// read deadline, so a stalled or slow-drip admin client can never
	// pin a handler goroutine (default 10s; negative disables). pprof
	// endpoints are exempt — profile and trace captures legitimately
	// run long.
	AdminTimeout time.Duration
	// HandoffTimeout bounds one live-migration handoff RPC to a
	// destination backend, dial included (default 10s).
	HandoffTimeout time.Duration
	// HandoffDial overrides the transport used for outbound migration
	// handoffs (nil = plain TCP). Test hook: chaos tests inject a
	// faultnet dialer here.
	HandoffDial func(ctx context.Context, addr string) (net.Conn, error)

	// AlertWorkingSetBytes is the working-set threshold the continuous
	// profiler alerts at: a watched session whose latest window needs
	// more than this many bytes raises a "working set grew past L3"
	// alert on /metrics (default 32 MiB, the typical LLC capacity;
	// negative disables).
	AlertWorkingSetBytes int64
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1 << 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.Costs == nil {
		d := cpumodel.Default()
		c.Costs = &d
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	if c.MaxCheckpoints <= 0 {
		c.MaxCheckpoints = 128
	}
	if c.MaxDiskCheckpoints <= 0 {
		c.MaxDiskCheckpoints = 1024
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = time.Minute
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = 500 * time.Millisecond
	}
	if c.AdminTimeout == 0 {
		c.AdminTimeout = 10 * time.Second
	}
	if c.HandoffTimeout <= 0 {
		c.HandoffTimeout = 10 * time.Second
	}
	if c.AlertWorkingSetBytes == 0 {
		c.AlertWorkingSetBytes = 32 << 20 // the TypicalHierarchy LLC
	}
}

// Server is an rdxd instance.
type Server struct {
	cfg     Config
	ln      net.Listener
	adminLn net.Listener
	admin   *http.Server
	// slots is the execution semaphore: a session holds one of its
	// Workers entries while it executes a queue item.
	slots chan struct{}

	mu       sync.Mutex
	sessions map[uint64]*session
	tokens   map[string]struct{} // tokens with a live session attached
	nextID   uint64
	draining bool
	closed   bool
	// moved tombstones migrated tokens so a resume attempt is answered
	// with a redirect to the session's new home; movedOrder bounds the
	// map (oldest forgotten first). drainTo holds the destinations for
	// on-demand handoffs of retained sessions while draining.
	moved      map[string]wire.Moved
	movedOrder []string
	drainTo    []MigrateTarget

	wg       sync.WaitGroup // accept loop + one per connection
	metrics  metrics
	ckpts    *ckptStore
	stopRate chan struct{}
	// scratch holds the buffers of ended connections (see connScratch).
	scratch *freelist.List[*connScratch]

	// ckptq feeds the serial checkpoint writer goroutine: blob capture
	// stays on each session's runner (it needs the machine quiescent),
	// but the LRU insert and the durable disk write happen here, off the
	// execute critical path. The writer preserves FIFO order, so when a
	// waited request returns, every earlier save is durable too — the
	// ack-after-durable promise survives the move.
	ckptq    chan ckptReq
	ckptDone chan struct{}
}

// ckptReq is one state-retention request for the checkpoint writer:
// either a live checkpoint blob or a finished session's final result.
// A non-nil done makes the requester wait for durability (session open,
// client sync, disconnect, finish); nil marks a periodic fire-and-forget
// save whose failure is only logged.
type ckptReq struct {
	token string
	seq   uint64
	blob  []byte // live checkpoint; nil for final results
	final []byte // final-result JSON; nil for live checkpoints
	done  chan error
}

// New creates a server and binds its listeners; connections are not
// accepted until Start.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o700); err != nil {
			return nil, fmt.Errorf("server: checkpoint dir: %w", err)
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listening on %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		sessions: make(map[uint64]*session),
		tokens:   make(map[string]struct{}),
		moved:    make(map[string]wire.Moved),
		ckpts:    newCkptStore(cfg.CheckpointDir, cfg.MaxCheckpoints, cfg.MaxDiskCheckpoints, cfg.Logf),
		stopRate: make(chan struct{}),
		ckptq:    make(chan ckptReq, 16),
		ckptDone: make(chan struct{}),
		slots:    make(chan struct{}, cfg.Workers),
	}
	s.scratch = freelist.New[*connScratch](cfg.Workers)
	if cfg.AdminAddr != "" {
		adminLn, err := net.Listen("tcp", cfg.AdminAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("server: admin listener on %s: %w", cfg.AdminAddr, err)
		}
		s.adminLn = adminLn
		mux := http.NewServeMux()
		// Every API handler runs under a timeout so a stalled client or a
		// wedged handler cannot pin its goroutine; pprof stays unwrapped
		// (profile/trace captures run as long as they were asked to).
		api := func(h http.HandlerFunc) http.Handler {
			if cfg.AdminTimeout > 0 {
				return http.TimeoutHandler(h, cfg.AdminTimeout, "admin request timed out\n")
			}
			return h
		}
		mux.Handle("/healthz", api(s.handleHealthz))
		mux.Handle("/metrics", api(s.handleMetrics))
		mux.Handle("/whatif", api(s.handleWhatIf))
		mux.Handle("/drain", api(s.handleDrain))
		if cfg.EnablePprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		s.admin = &http.Server{Handler: mux}
		if cfg.AdminTimeout > 0 {
			// http.TimeoutHandler cannot interrupt a handler blocked
			// reading a slow request body; the server-level read deadline
			// can. No WriteTimeout: pprof profile/trace responses stream
			// for longer than any fixed bound.
			s.admin.ReadHeaderTimeout = cfg.AdminTimeout
			s.admin.ReadTimeout = 2 * cfg.AdminTimeout
		}
	}
	// The writer starts with the server object, not with Start: sessions
	// cannot exist before Start, but finishClose waits on ckptDone and
	// must not hang for a server that was never started.
	go s.ckptWriter()
	return s, nil
}

// ckptWriter serially applies checkpoint requests: LRU insert plus, when
// a spill directory is configured, the durable disk write. Serial FIFO
// processing is the ordering guarantee the rest of the server leans on.
func (s *Server) ckptWriter() {
	defer close(s.ckptDone)
	for req := range s.ckptq {
		var err error
		if req.final != nil {
			err = s.ckpts.saveFinal(req.token, req.seq, req.final)
		} else {
			err = s.ckpts.save(req.token, req.seq, req.blob)
		}
		if err == nil {
			s.metrics.checkpointsTotal.Add(1)
			s.metrics.checkpointBytes.Add(uint64(len(req.blob) + len(req.final)))
		}
		if req.done != nil {
			req.done <- err
		} else if err != nil {
			s.cfg.Logf("rdxd: periodic checkpoint (batch %d): %v", req.seq, err)
		}
	}
}

// Addr is the profiling listener's bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// AdminAddr is the admin listener's bound address, or "" if disabled.
func (s *Server) AdminAddr() string {
	if s.adminLn == nil {
		return ""
	}
	return s.adminLn.Addr().String()
}

// Start launches the accept loop (and admin server, if configured) in
// the background and returns immediately.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.acceptLoop()
	go s.metrics.rateLoop(s.stopRate)
	if s.admin != nil {
		go func() {
			if err := s.admin.Serve(s.adminLn); err != nil && err != http.ErrServerClosed {
				s.cfg.Logf("rdxd: admin server: %v", err)
			}
		}()
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Shutdown drains the server: it stops accepting connections, waits
// for in-flight sessions to finish, and force-closes any still open
// when ctx expires. It is the SIGTERM path.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.ln.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Sessions that did not finish in time lose their connection;
		// their state is freed on the way out.
		s.mu.Lock()
		n := len(s.sessions)
		for _, sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		err = fmt.Errorf("server: drain deadline passed with %d sessions open", n)
		<-done
	}
	s.finishClose()
	return err
}

// Close force-closes everything without draining.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for _, sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	s.finishClose()
	return nil
}

func (s *Server) finishClose() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return
	}
	// s.wg has drained, so every session is done, and every enqueuer
	// ran inside s.wg, so the queue can close; waiting for the writer
	// makes Shutdown/Close imply "all requested checkpoints are durable".
	close(s.ckptq)
	<-s.ckptDone
	close(s.stopRate)
	if s.admin != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.admin.Shutdown(ctx)
	}
}

// register admits a new session, or explains why it can't. shed
// reports whether the rejection is transient (capacity, draining) and
// should be answered with a retry-after rather than a hard error.
func (s *Server) register(sess *session) (id uint64, shed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0, true, fmt.Errorf("server draining")
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return 0, true, fmt.Errorf("session limit reached (%d)", s.cfg.MaxSessions)
	}
	if _, busy := s.tokens[sess.token]; busy {
		// The original connection may not have noticed its death yet; a
		// moment later the token frees up, so this too is retryable.
		return 0, true, fmt.Errorf("session token already active")
	}
	s.nextID++
	s.sessions[s.nextID] = sess
	s.tokens[sess.token] = struct{}{}
	s.metrics.sessionsTotal.Add(1)
	s.metrics.sessionsActive.Add(1)
	return s.nextID, false, nil
}

func (s *Server) unregister(id uint64) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	if ok {
		delete(s.tokens, sess.token)
	}
	s.mu.Unlock()
	if ok {
		s.metrics.sessionsActive.Add(-1)
	}
}

// connScratch is everything a connection keeps from frame to frame:
// its bufio pair (256 KiB read, 64 KiB write), the buffer it reads every
// frame into, and its session's free-column ring. handleConn takes a
// set when the connection arrives and returns it when the connection's
// reader and runner are both done, so sessions come and go without
// allocating any of it afresh. The server keeps at most Workers sets
// (s.scratch): what the sessions that can execute at once hand to their
// successors. So the columns it retains are at most
// Workers × (QueueDepth + 2), each sized for a batch of at most
// MaxBatch accesses, and its frame buffers at most Workers × 4 MiB.
type connScratch struct {
	br    *bufio.Reader
	bw    *bufio.Writer
	frame []byte
	// cols is the session's free-column ring: decoded-batch columns
	// go from execution back to the reader through it. It holds
	// QueueDepth + 2, one past all a session can have in flight (its
	// queue, the batch being decoded and the one executing), so
	// scratch is always returnable without blocking and a session's
	// steady state runs on a fixed set of columns: zero allocations
	// per batch. Every Columns in it is Reset before use.
	cols chan *trace.Columns
}

func (s *Server) getScratch(conn net.Conn) *connScratch {
	sc, ok := s.scratch.Get()
	if !ok {
		return &connScratch{
			br:   bufio.NewReaderSize(conn, 256<<10),
			bw:   bufio.NewWriterSize(conn, 64<<10),
			cols: make(chan *trace.Columns, s.cfg.QueueDepth+2),
		}
	}
	sc.br.Reset(conn)
	sc.bw.Reset(conn)
	return sc
}

func (s *Server) putScratch(sc *connScratch) {
	sc.br.Reset(nil)
	sc.bw.Reset(nil)
	s.scratch.Put(sc)
}

// recycle returns a batch's columns to the session's ring. The ring
// holds all a session can have in flight, so it only refuses columns in
// the impossible case of a full ring; those go to the collector.
func (sess *session) recycle(cols *trace.Columns) {
	select {
	case sess.freeCols <- cols:
	default:
	}
}

// handleConn owns one connection: the open (or resume) handshake
// inline, then the session itself (runSession) with a reader goroutine
// feeding it, then the disconnect checkpoint if the session did not
// finish.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()

	// Returned when handleConn returns: by then the session's reader
	// and runner are done with it.
	sc := s.getScratch(conn)
	defer s.putScratch(sc)
	bw := sc.bw
	reject := func(err error) {
		s.armWrite(conn)
		wire.WriteFrame(bw, wire.FrameError, []byte(err.Error()))
		bw.Flush()
	}
	shed := func(err error) {
		s.metrics.shedRequests.Add(1)
		s.armWrite(conn)
		writeJSONFrame(bw, wire.FrameRetryAfter, wire.RetryAfter{
			AfterMillis: s.cfg.RetryAfterHint.Milliseconds(),
			Reason:      err.Error(),
		})
	}

	s.armRead(conn)
	t, payload, err := wire.ReadFrameInto(sc.br, &sc.frame)
	if err != nil {
		return // client vanished before speaking
	}
	s.metrics.bytesIn.Add(uint64(5 + len(payload)))
	if t == wire.FrameHandoff {
		// A peer backend is migrating a session here.
		s.handleHandoff(conn, bw, payload)
		return
	}
	if t != wire.FrameOpen {
		reject(fmt.Errorf("expected open frame, got %s", t))
		return
	}
	req, err := decodeOpenRequest(payload)
	if err != nil {
		reject(fmt.Errorf("bad open request: %v", err))
		return
	}

	if req.Wire != wire.WireV4 {
		reject(fmt.Errorf("unsupported wire version %d: this server speaks only version %d", req.Wire, wire.WireV4))
		return
	}

	var sess *session
	if req.ResumeToken != "" {
		sess, err = s.resumeSession(conn, req)
		if err != nil {
			var moved *movedSessionError
			if errors.As(err, &moved) {
				// Not a failure: the session migrated. Redirect the
				// client; it resumes by token at the new backend.
				s.metrics.movedResumes.Add(1)
				s.armWrite(conn)
				writeJSONFrame(bw, wire.FrameMoved, moved.to)
				return
			}
			s.metrics.resumeFailures.Add(1)
			reject(fmt.Errorf("resume: %v", err))
			return
		}
	} else {
		prof, err := core.NewProfiler(req.Config)
		if err != nil {
			reject(err)
			return
		}
		sess = &session{
			conn:    conn,
			prof:    prof,
			machine: prof.NewMachine(*s.cfg.Costs),
			token:   newSessionToken(),
		}
	}
	sess.migrate = make(chan migrateOrder, 1)
	id, retryable, err := s.register(sess)
	if err != nil {
		if retryable {
			shed(err)
		} else {
			reject(err)
		}
		return
	}
	sess.id = id
	defer s.unregister(id)
	if req.ResumeToken != "" {
		s.metrics.resumedSessions.Add(1)
	} else if err := s.checkpointSession(sess); err != nil {
		// The open checkpoint anchors the token durably: once the
		// client holds it, a resume must find something. Refuse the
		// session rather than hand out a token that can dangle.
		reject(fmt.Errorf("initial checkpoint: %v", err))
		return
	}

	s.armWrite(conn)
	if err := writeJSONFrame(bw, wire.FrameOpenOK, wire.OpenReply{
		SessionID:       id,
		QueueDepth:      s.cfg.QueueDepth,
		MaxBatch:        s.cfg.MaxBatch,
		Token:           sess.token,
		ResumeSeq:       sess.lastApplied,
		Done:            sess.completed,
		CheckpointEvery: s.cfg.CheckpointEvery,
		Wire:            wire.WireV4,
	}); err != nil {
		return
	}

	sess.queue = make(chan item, s.cfg.QueueDepth)
	sess.freeCols = sc.cols
	sess.bw = bw
	sess.done = make(chan struct{})
	go s.readLoop(sess, sc)
	// runSession returns, closing done, at the session's terminal item
	// (finish, protocol error, disconnect, or migration handoff).
	s.runSession(sess)
	// The reader exits once it notices (its blocked enqueue aborts on
	// done, or its next read fails); drain whatever it had queued,
	// keeping the pipeline-depth gauge honest.
	for it := range sess.queue {
		if it.kind == itemBatch {
			s.metrics.pipelineDepth.Add(-1)
			sess.recycle(it.cols)
		}
	}
	if sess.failed {
		// The error frame went out with the linger deadline armed;
		// absorbing the linger here keeps our close from becoming a TCP
		// reset that discards the frame before the client reads it.
		io.Copy(io.Discard, conn)
	}
	// The reader and runner are both done with the profiler now; a
	// disconnect checkpoint lets the client resume mid-stream. (It runs
	// before the deferred unregister frees the token, so a racing
	// resume cannot observe the stale pre-disconnect checkpoint.) A
	// migrated session's state lives on its new backend — checkpointing
	// it here would resurrect a stale copy behind the tombstone.
	if !sess.completed && !sess.migrated {
		if err := s.checkpointSession(sess); err != nil {
			s.cfg.Logf("rdxd: session %d: disconnect checkpoint: %v", sess.id, err)
		}
	}
}

// resumeSession rebuilds a session from its retained checkpoint. For a
// finished session it carries the retained final result instead of a
// live profiler; runSession serves it to a retried Finish.
func (s *Server) resumeSession(conn net.Conn, req wire.OpenRequest) (*session, error) {
	// Tombstone first: a migrated session's client must be redirected
	// even while this server drains (register would shed it otherwise,
	// and it would retry here forever).
	if mv, ok := s.lookupMoved(req.ResumeToken); ok {
		return nil, &movedSessionError{to: mv}
	}
	ent, err := s.ckpts.load(req.ResumeToken)
	if err != nil {
		return nil, err
	}
	// Draining with migration targets: this retained session has no
	// live runner to hand it off, so push its state on demand, right
	// now, and redirect the client along with it. Only safe while the
	// token has no live session attached — a concurrent runner would
	// fork the state. If every target refuses, fall through: register
	// sheds the resume with a retry-after, as before.
	s.mu.Lock()
	_, busy := s.tokens[req.ResumeToken]
	draining, targets := s.draining, s.drainTo
	s.mu.Unlock()
	if draining && len(targets) > 0 && !busy {
		if mv, ok := s.handoffRetained(req.ResumeToken, ent, targets); ok {
			return nil, &movedSessionError{to: mv}
		}
	}
	if ent.seq < req.LastAcked {
		return nil, fmt.Errorf("checkpoint covers batch %d but client holds ack %d", ent.seq, req.LastAcked)
	}
	sess := &session{
		conn:        conn,
		token:       req.ResumeToken,
		lastApplied: ent.seq,
	}
	if ent.final != nil {
		sess.completed = true
		sess.finalResult = append([]byte(nil), ent.final...)
		return sess, nil
	}
	prof, machine, err := core.RestoreProfiler(ent.blob)
	if err != nil {
		return nil, fmt.Errorf("corrupt checkpoint: %v", err)
	}
	if prof.Config() != req.Config {
		return nil, fmt.Errorf("config does not match the checkpointed session")
	}
	if machine == nil {
		machine = prof.NewMachine(*s.cfg.Costs)
	}
	sess.prof, sess.machine = prof, machine
	sess.accesses.Store(machine.Account().Accesses)
	sess.stateBytes.Store(prof.StateBytes())
	return sess, nil
}

// checkpointSession captures the session's full profiler state and
// waits for the checkpoint writer to make it durable. Capture must only
// run while the session's machine is quiescent (between the items
// runSession executes, or after its terminal one); the writer does the
// rest.
func (s *Server) checkpointSession(sess *session) error {
	done := make(chan error, 1)
	s.enqueueCheckpoint(sess, done)
	return <-done
}

// checkpointSessionAsync is checkpointSession without the durability
// wait: capture happens now (state at this batch boundary), but the
// store insert and disk write overlap with subsequent execution. Used
// for periodic checkpoints, where a lost save only widens the replay
// window of a later resume.
func (s *Server) checkpointSessionAsync(sess *session) {
	s.enqueueCheckpoint(sess, nil)
}

func (s *Server) enqueueCheckpoint(sess *session, done chan error) {
	// Capture into a recycled blob when the store has one; the blob's
	// ownership passes to the writer and then the store.
	blob := sess.prof.CheckpointInto(s.ckpts.blobBuf())
	sess.sinceCkpt = 0
	s.ckptq <- ckptReq{token: sess.token, seq: sess.lastApplied, blob: blob, done: done}
}

// saveFinalDurable routes a finished session's result through the
// checkpoint writer (keeping it ordered after the session's earlier
// saves) and waits for durability.
func (s *Server) saveFinalDurable(token string, seq uint64, result []byte) error {
	done := make(chan error, 1)
	s.ckptq <- ckptReq{token: token, seq: seq, final: result, done: done}
	return <-done
}

// armRead arms the per-frame read deadline on conn.
func (s *Server) armRead(conn net.Conn) {
	if s.cfg.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	}
}

// armWrite arms the per-frame write deadline on conn.
func (s *Server) armWrite(conn net.Conn) {
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
}

// item is one unit of session work, produced by the reader and
// consumed by runSession.
type item struct {
	kind itemKind
	cols *trace.Columns // itemBatch: the decoded batch
	seq  uint64         // itemBatch: the batch's sequence number
	err  error          // itemFail: the protocol error to report
}

// readLoop decodes frames into the session queue. It is the only
// sender on queue and closes it when the session's inbound side ends —
// after Finish, on protocol error (itemFail carries it), or when the
// connection dies (sess.dead is set so runSession discards leftovers).
// Each frame gets a fresh read deadline; a client silent for longer
// loses the connection and resumes from the disconnect checkpoint.
//
// The loop is allocation-free at steady state: every frame is read into
// the connection's frame buffer, which decoding copies out of, and
// decode targets are recirculated columns runSession returns through
// freeCols after execution.
func (s *Server) readLoop(sess *session, sc *connScratch) {
	queue, freeCols := sess.queue, sess.freeCols
	defer close(queue)
	enqueue := func(it item) bool {
		select {
		case queue <- it:
			return true
		case <-sess.done:
			return false
		}
	}
	for {
		s.armRead(sess.conn)
		t, payload, err := wire.ReadFrameInto(sc.br, &sc.frame)
		if err != nil {
			// io.EOF without Finish, a mid-frame cut, or a frame that
			// failed its checksum: the stream is unusable. Nothing to
			// reply to; the client reconnects and resumes.
			sess.dead.Store(true)
			return
		}
		s.metrics.bytesIn.Add(uint64(5 + len(payload)))
		switch t {
		case wire.FrameBatchV3:
			var cols *trace.Columns
			select {
			case cols = <-freeCols:
			default: // ring empty: the session's first batches
				cols = new(trace.Columns)
			}
			cols.Reset()
			s.metrics.batchBytes.Add(uint64(len(payload)))
			seq, err := wire.DecodeColumnsInto(cols, payload)
			if err != nil {
				sess.recycle(cols)
				enqueue(item{kind: itemFail, err: fmt.Errorf("corrupt batch: %w", err)})
				return
			}
			if cols.Len() > s.cfg.MaxBatch {
				sess.recycle(cols)
				enqueue(item{kind: itemFail, err: fmt.Errorf("batch of %d accesses exceeds max %d", cols.Len(), s.cfg.MaxBatch)})
				return
			}
			s.metrics.noteQueueDepth(len(queue) + 1)
			s.metrics.pipelineDepth.Add(1)
			if !enqueue(item{kind: itemBatch, cols: cols, seq: seq}) {
				s.metrics.pipelineDepth.Add(-1)
				sess.recycle(cols)
				return
			}
		case wire.FrameSync:
			if !enqueue(item{kind: itemSync}) {
				return
			}
		case wire.FrameSnapshot:
			if !enqueue(item{kind: itemSnapshot}) {
				return
			}
		case wire.FrameFinish:
			enqueue(item{kind: itemFinish})
			return
		default:
			enqueue(item{kind: itemFail, err: fmt.Errorf("unexpected %s frame", t)})
			return
		}
	}
}

// errorLinger bounds how long a failed session keeps reading after the
// error frame went out, so our close doesn't become a TCP reset that
// discards the frame before the client reads it.
const errorLinger = 2 * time.Second

// runSession runs the session on its connection's goroutine until a
// terminal item, then closes done. Migration orders come first (they
// land at batch boundaries, which is exactly between items); then each
// queue item executes holding one of the server's Workers slots.
// Replayed duplicates are discarded by sequence number, snapshots and
// syncs answered inline, and the final result emitted on Finish. This
// goroutine is the only writer on sess.bw, and every reply write runs
// under the configured write deadline.
func (s *Server) runSession(sess *session) {
	defer close(sess.done)
	for {
		select {
		case ord := <-sess.migrate:
			// A handed-off session is terminal here; one that every
			// target refused keeps running.
			if s.migrateSession(sess, sess.bw, ord) {
				return
			}
			continue
		default:
		}
		select {
		case ord := <-sess.migrate:
			if s.migrateSession(sess, sess.bw, ord) {
				return
			}
		case it, ok := <-sess.queue:
			if !ok {
				// Queue closed without Finish: the connection dropped or
				// the client abandoned the session. handleConn takes the
				// disconnect checkpoint once runSession returns.
				if n := sess.accesses.Load(); n > 0 {
					s.cfg.Logf("rdxd: session %d disconnected after %d accesses", sess.id, n)
				}
				return
			}
			s.slots <- struct{}{}
			s.metrics.executorSteps.Add(1)
			done := s.processItem(sess, it)
			<-s.slots
			if done {
				return
			}
		}
	}
}

// processItem executes one queue item; true means the session reached
// a terminal state and must not run again.
func (s *Server) processItem(sess *session, it item) (done bool) {
	bw := sess.bw
	fail := func(err error) {
		s.armWrite(sess.conn)
		wire.WriteFrame(bw, wire.FrameError, []byte(err.Error()))
		bw.Flush()
		// Arm the linger window now but don't sit in it: handleConn
		// absorbs the linger (sess.failed) after the slot is released,
		// before closing the connection.
		sess.conn.SetReadDeadline(time.Now().Add(errorLinger))
		sess.failed = true
	}
	if it.kind == itemBatch {
		s.metrics.pipelineDepth.Add(-1)
	}
	if sess.dead.Load() && it.kind == itemBatch {
		// The client is gone; executing its leftovers would be
		// work nobody reads.
		s.metrics.droppedBatches.Add(1)
		sess.recycle(it.cols)
		return false
	}
	switch it.kind {
	case itemBatch:
		if it.seq <= sess.lastApplied {
			// Already executed before a reconnect; the resume
			// replay is discarded, so re-delivery is idempotent.
			s.metrics.replayedBatches.Add(1)
			sess.recycle(it.cols)
			return false
		}
		if it.seq != sess.lastApplied+1 {
			fail(fmt.Errorf("batch sequence gap: got %d, want %d", it.seq, sess.lastApplied+1))
			return true
		}
		if sess.completed {
			fail(fmt.Errorf("session already finished"))
			return true
		}
		n := it.cols.Len()
		sess.machine.ExecuteColumns(it.cols)
		if s.cfg.StepDelay > 0 {
			// The sleep deliberately holds the slot: StepDelay models a
			// slow engine, and a slot-holding slow engine is what the
			// backpressure and throttled-scaling tests need.
			time.Sleep(s.cfg.StepDelay)
		}
		sess.recycle(it.cols)
		sess.lastApplied = it.seq
		sess.sinceCkpt++
		sess.accesses.Store(sess.machine.Account().Accesses)
		sess.stateBytes.Store(sess.prof.StateBytes())
		s.metrics.batchesTotal.Add(1)
		s.metrics.accessesTotal.Add(uint64(n))
		if s.cfg.CheckpointEvery > 0 && sess.sinceCkpt >= s.cfg.CheckpointEvery {
			// Capture now, persist concurrently: execution of the
			// next batch overlaps the checkpoint's disk write.
			s.checkpointSessionAsync(sess)
		}
	case itemSync:
		// A sync acknowledgment promises durability: the checkpoint
		// must land before the ack goes out, or the session fails.
		if !sess.completed {
			if err := s.checkpointSession(sess); err != nil {
				fail(fmt.Errorf("checkpoint failed: %v", err))
				return true
			}
		}
		var ack [8]byte
		binary.BigEndian.PutUint64(ack[:], sess.lastApplied)
		s.armWrite(sess.conn)
		if err := wire.WriteFrame(bw, wire.FrameAck, ack[:]); err != nil {
			return true
		}
		if err := bw.Flush(); err != nil {
			return true
		}
	case itemSnapshot:
		if sess.completed {
			fail(fmt.Errorf("session already finished"))
			return true
		}
		snap := sess.prof.Snapshot()
		s.metrics.snapshotsTotal.Add(1)
		s.observeWindow(sess, snap)
		s.armWrite(sess.conn)
		if err := writeJSONFrame(bw, wire.FrameSnapshotResult, wire.FromCore(snap, false)); err != nil {
			return true
		}
	case itemFinish:
		if sess.completed {
			// A resumed finished session: serve the retained result
			// again; the original reply was lost in flight.
			s.armWrite(sess.conn)
			wire.WriteFrame(bw, wire.FrameResult, sess.finalResult)
			bw.Flush()
			return true
		}
		sess.machine.Finish()
		res := sess.prof.Result()
		payload := mustJSON(wire.FromCore(res, true))
		sess.completed = true
		sess.finalResult = payload
		// Retain the result before replying: if the reply is lost,
		// a resume fetches it again instead of losing the run.
		if err := s.saveFinalDurable(sess.token, sess.lastApplied, payload); err != nil {
			s.cfg.Logf("rdxd: session %d: retaining final result: %v", sess.id, err)
		}
		s.armWrite(sess.conn)
		wire.WriteFrame(bw, wire.FrameResult, payload)
		bw.Flush()
		return true
	case itemFail:
		fail(it.err)
		return true
	}
	return false
}

// observeWindow folds one served snapshot into the session's window
// accounting: the window collector (created at the session's first
// snapshot) closes the window since the previous one, and its drift
// score and working set feed the drift counter, the per-session
// working-set gauge and the "working set grew past L3" alert. A
// watched run snapshots at every window boundary, so these fire at its
// boundaries.
func (s *Server) observeWindow(sess *session, snap *core.Result) {
	if sess.winCol == nil {
		sess.winCol = window.NewCollector(sess.prof.Config().Granularity.BlockSize(), 0, window.DriftOptions{})
	}
	w := sess.winCol.Observe(snap.Accesses, snap.Samples, snap.ReuseDistance, snap.ReuseTime)
	sess.windowWS.Store(w.WorkingSetBytes)
	if w.Score != nil && w.Score.Drift {
		s.metrics.driftEvents.Add(1)
	}
	if s.cfg.AlertWorkingSetBytes > 0 && w.WorkingSetBytes > uint64(s.cfg.AlertWorkingSetBytes) {
		if !sess.wsAlert.Swap(true) { // rising edge: count and log once per excursion
			s.metrics.wsAlerts.Add(1)
			s.cfg.Logf("rdxd: session %d: working set %d bytes grew past the %d-byte (L3) threshold",
				sess.id, w.WorkingSetBytes, s.cfg.AlertWorkingSetBytes)
		}
	} else {
		sess.wsAlert.Store(false)
	}
}

func writeJSONFrame(bw *bufio.Writer, t wire.FrameType, v any) error {
	if err := wire.WriteFrame(bw, t, mustJSON(v)); err != nil {
		return err
	}
	return bw.Flush()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(mustJSON(s.MetricsSnapshot()))
}
