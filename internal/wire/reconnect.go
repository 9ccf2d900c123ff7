package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/freelist"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RetryPolicy tunes a ReconnectingClient's fault handling. The zero
// value means "use the defaults" for every field.
type RetryPolicy struct {
	// MaxAttempts is the number of consecutive failed attempts (dial,
	// open/resume or RPC) after which an operation gives up (default 8).
	// The counter resets on every success, so a long session survives
	// any number of isolated faults.
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 50ms); each further
	// consecutive failure doubles it up to MaxDelay (default 2s), with
	// ±50% deterministic jitter from Seed.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// DialTimeout bounds each connection attempt (default
	// DefaultDialTimeout).
	DialTimeout time.Duration
	// OpTimeout is the per-RPC I/O deadline (default 30s): no send or
	// reply wait can hang longer, even without a context deadline.
	OpTimeout time.Duration
	// SyncEvery requests a durable server checkpoint (and replay-buffer
	// trim) every that many batches (default 32; negative disables).
	SyncEvery int
	// Seed makes the backoff jitter deterministic.
	Seed uint64
	// Dial overrides the transport (fault-injection tests plug their
	// wrapped dialer in here). Default: DialContext on addr.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

func (p *RetryPolicy) fill() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.DialTimeout <= 0 {
		p.DialTimeout = DefaultDialTimeout
	}
	if p.OpTimeout <= 0 {
		p.OpTimeout = 30 * time.Second
	}
	if p.SyncEvery == 0 {
		p.SyncEvery = defaultSyncEvery
	}
}

// defaultSyncEvery is RetryPolicy.SyncEvery's default.
const defaultSyncEvery = 32

// replayBufs holds replay buffers between batches and between
// sessions. Each live client reserves its unacked window (replayWindow)
// from its first batch until it finishes or closes, on top of
// clientFloor default windows (see pool.go).
var replayBufs = freelist.New[[]byte](clientFloor * defaultSyncEvery)

// replayWindow is how many replay buffers a client holds at most in
// steady state: one per batch between syncs. A client that syncs by
// hand (SyncEvery < 0) is assumed to sync at the default cadence; its
// buffers beyond the window are left to the garbage collector.
func (p *RetryPolicy) replayWindow() int {
	if p.SyncEvery > 0 {
		return p.SyncEvery
	}
	return defaultSyncEvery
}

// ReconnectStats counts a ReconnectingClient's fault-tolerance events.
type ReconnectStats struct {
	// Reconnects is the number of connections established after the
	// first (each one followed a fault).
	Reconnects uint64
	// ReplayedBatches counts batches re-sent from the replay buffer
	// during resumes.
	ReplayedBatches uint64
	// Syncs counts successful durable-checkpoint acknowledgments.
	Syncs uint64
	// AckedSeq is the highest batch sequence number the server has
	// durably acknowledged.
	AckedSeq uint64
	// Moves counts migration redirects followed: the session was handed
	// to another backend and this client resumed it there.
	Moves uint64
}

// pendingBatch is one unacknowledged batch held for replay: its encoded
// payload, resent verbatim, so a replay costs no second encode and the
// replay buffer holds a few bytes per access instead of the rows.
type pendingBatch struct {
	seq     uint64
	payload []byte
}

// ReconnectingClient is a fault-tolerant session against an rdxd
// daemon: it wraps Client with automatic reconnection, exponential
// backoff with jitter, idempotent replay of unacknowledged batches via
// the checkpoint/resume handshake, and an I/O deadline on every RPC.
// Like Client it is not safe for concurrent use.
type ReconnectingClient struct {
	addr   string
	cfg    core.Config
	policy RetryPolicy
	rng    *stats.RNG

	c     *Client
	conn  net.Conn
	reply OpenReply

	token     string
	lastAcked uint64
	nextSeq   uint64 // session-level sequence of the next new batch
	pending   []pendingBatch
	reserved  int          // replay buffers reserved on replayBufs
	enc       batchEncoder // returned to encoders by Finish and Close
	sinceSync int
	connected bool // a connection has succeeded at least once
	finished  bool
	moves     int // moved redirects followed since the last successful op

	stats ReconnectStats
}

// NewReconnectingClient prepares a resilient session against addr with
// the given profiler configuration. No connection is made until the
// first operation.
func NewReconnectingClient(addr string, cfg core.Config, policy RetryPolicy) *ReconnectingClient {
	policy.fill()
	return &ReconnectingClient{
		addr:    addr,
		cfg:     cfg,
		policy:  policy,
		rng:     stats.NewRNG(policy.Seed ^ 0x5e551077),
		nextSeq: 1,
	}
}

// Stats returns the fault-tolerance counters accumulated so far.
func (r *ReconnectingClient) Stats() ReconnectStats { return r.stats }

// Open establishes the session eagerly and returns the server's reply.
// It is optional: every operation connects on demand.
func (r *ReconnectingClient) Open(ctx context.Context) (OpenReply, error) {
	err := r.withRetry(ctx, func(*Client) error { return nil })
	return r.reply, err
}

// SendBatch streams one batch, buffering its encoded payload for replay
// until the server acknowledges a covering checkpoint. The accesses are
// encoded before SendBatch returns, so the caller may reuse its slice.
// Every RetryPolicy.SyncEvery batches a durable checkpoint is requested
// and the replay buffer trimmed.
func (r *ReconnectingClient) SendBatch(ctx context.Context, accs []mem.Access) error {
	if r.finished {
		return fmt.Errorf("wire: session already finished")
	}
	if len(accs) == 0 {
		return nil
	}
	seq := r.nextSeq
	payload, err := r.encode(seq, accs)
	if err != nil {
		return err
	}
	r.nextSeq++
	r.pending = append(r.pending, pendingBatch{seq: seq, payload: payload})

	err = r.withRetry(ctx, func(c *Client) error {
		if c.NextSeq() > seq {
			return nil // already delivered by resume replay
		}
		if c.NextSeq() < seq {
			return fmt.Errorf("wire: sequence gap: connection at %d, batch %d", c.NextSeq(), seq)
		}
		return c.sendEncoded(payload)
	})
	if err != nil {
		return err
	}
	r.sinceSync++
	if r.policy.SyncEvery > 0 && r.sinceSync >= r.policy.SyncEvery {
		if _, err := r.Sync(ctx); err != nil {
			return err
		}
	}
	return nil
}

// encode encodes accs as batch seq and copies the payload into a
// replay buffer from replayBufs (acked batches return theirs via
// noteAcked), so a steady-state stream stops allocating once the replay
// window's worth of buffers exists. The copy is compact: the encode
// scratch reserves the worst case, a replay buffer only what the batch
// took.
func (r *ReconnectingClient) encode(seq uint64, accs []mem.Access) ([]byte, error) {
	payload, err := r.enc.encode(seq, accs)
	if err != nil {
		return nil, err
	}
	if r.reserved == 0 {
		r.reserved = r.policy.replayWindow()
		replayBufs.Grow(r.reserved)
	}
	buf, _ := replayBufs.Get()
	return append(buf[:0], payload...), nil
}

// Sync requests a durable server checkpoint, trims the replay buffer to
// the batches after the acknowledged sequence number, and returns it.
func (r *ReconnectingClient) Sync(ctx context.Context) (uint64, error) {
	var acked uint64
	err := r.withRetry(ctx, func(c *Client) error {
		a, err := c.Sync()
		if err != nil {
			return err
		}
		acked = a
		return nil
	})
	if err != nil {
		return 0, err
	}
	r.noteAcked(acked)
	r.stats.Syncs++
	r.sinceSync = 0
	return acked, nil
}

// Snapshot returns the session's live intermediate result: the profile
// it would report if the stream ended after the last batch sent. A
// reply lost with its connection is asked for again after the resume
// replays the unacknowledged tail, which puts the session back at the
// same batch; profiling is deterministic, so the retried snapshot is
// the one the lost reply carried.
func (r *ReconnectingClient) Snapshot(ctx context.Context) (*Result, error) {
	var res *Result
	err := r.withRetry(ctx, func(c *Client) error {
		s, err := c.Snapshot()
		if err != nil {
			return err
		}
		res = s
		return nil
	})
	return res, err
}

// Finish ends the stream and returns the final result. If the final
// result frame is lost in flight, the retry resumes the session — the
// server retains a finished session's result for exactly this replay —
// and fetches it again.
func (r *ReconnectingClient) Finish(ctx context.Context) (*Result, error) {
	var res *Result
	err := r.withRetry(ctx, func(c *Client) error {
		f, err := c.Finish()
		if err != nil {
			return err
		}
		res = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.finished = true
	r.releaseBuffers()
	return res, nil
}

// Close ends the client: it releases the current connection, if any,
// and the client's buffers. Closing without Finish abandons the
// session. The client is unusable afterwards.
func (r *ReconnectingClient) Close() error {
	r.dropConn()
	r.finished = true
	r.releaseBuffers()
	return nil
}

// releaseBuffers returns the replay buffers still pending and the
// encode scratch, and ends the client's reservation on replayBufs. No
// connection is left to read a pending buffer.
func (r *ReconnectingClient) releaseBuffers() {
	for _, p := range r.pending {
		replayBufs.Put(p.payload)
	}
	r.pending = nil
	replayBufs.Shrink(r.reserved)
	r.reserved = 0
	r.enc.release()
}

// Profile streams tr through the resilient session end to end and
// returns the final result, bit-identical to a local run of the same
// stream and config. It is the one loop that streams a Reader to a
// daemon: a single remote run, a pool dispatch and a watched thread all
// run it. A read error ends the run with an error that wraps it.
//
// With watchEvery > 0 the run is watched: after every watchEvery-th
// batch the loop takes that boundary's snapshot (Snapshot) and hands
// it to onWatch before sending more, so every boundary reaches onWatch
// exactly once, in order, across reconnects and migrations. An error
// from onWatch ends the run with that error. onWatch is not called
// when watchEvery is 0.
func (r *ReconnectingClient) Profile(ctx context.Context, tr trace.Reader, opts ProfileOptions, watchEvery int, onWatch func(*Result) error) (*Result, error) {
	batch := opts.BatchSize
	if batch <= 0 {
		batch = trace.DefaultBatchSize
	}
	var buf []mem.Access
	if batch <= trace.DefaultBatchSize {
		buf = trace.BatchBuf()[:batch]
		defer trace.ReleaseBatchBuf(buf)
	} else {
		buf = make([]mem.Access, batch)
	}
	for {
		n, rerr := tr.Read(buf)
		if n > 0 {
			if err := r.SendBatch(ctx, buf[:n]); err != nil {
				return nil, err
			}
			if watchEvery > 0 && (r.nextSeq-1)%uint64(watchEvery) == 0 {
				snap, err := r.Snapshot(ctx)
				if err != nil {
					return nil, err
				}
				if err := onWatch(snap); err != nil {
					return nil, err
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("wire: reading access stream: %w", rerr)
		}
	}
	return r.Finish(ctx)
}

// maxConsecutiveMoves bounds moved redirects followed without an
// intervening successful operation: legitimate migration chains are
// short, and under injected corruption a mangled moved frame must not
// bounce the client around forever.
const maxConsecutiveMoves = 16

// withRetry runs op against a live connection, transparently
// redialing, resuming and replaying after any failure, until op
// succeeds, ctx is done, or MaxAttempts consecutive attempts failed.
// Every kind of failure is retried — under injected corruption even a
// server-reported error can be a mangled frame, so no error is treated
// as conclusively fatal; MaxAttempts bounds the damage. A moved
// redirect (live migration) is not a failure: the client follows it to
// the new backend immediately, without backoff and without spending an
// attempt, bounded by maxConsecutiveMoves.
func (r *ReconnectingClient) withRetry(ctx context.Context, op func(*Client) error) error {
	var lastErr error
	for failures := 0; ; failures++ {
		if failures >= r.policy.MaxAttempts {
			return fmt.Errorf("wire: giving up after %d attempts: %w", failures, lastErr)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if failures > 0 {
			if err := r.backoff(ctx, failures, lastErr); err != nil {
				return err
			}
		}
		c, err := r.ensure(ctx)
		if err != nil {
			if r.followMove(err) {
				failures = -1 // a redirect, not a fault: restart the budget
			}
			lastErr = err
			continue
		}
		r.armDeadline(ctx)
		err = r.checkCtx(ctx, op(c))
		r.disarmDeadline()
		if err == nil {
			r.moves = 0
			return nil
		}
		lastErr = err
		r.dropConn()
		if r.followMove(err) {
			failures = -1
		}
	}
}

// followMove redirects the session to the backend named by a moved
// error, if err is one and the redirect budget allows. The token stays;
// the next ensure resumes it on the new backend from the handed-over
// state.
func (r *ReconnectingClient) followMove(err error) bool {
	var mv *MovedError
	if !errors.As(err, &mv) {
		return false
	}
	if r.moves++; r.moves > maxConsecutiveMoves {
		return false
	}
	r.addr = mv.Addr
	r.stats.Moves++
	r.dropConn()
	return true
}

// ensure returns a live, opened (or resumed) connection, establishing
// one if needed and replaying the unacknowledged batch tail.
func (r *ReconnectingClient) ensure(ctx context.Context) (*Client, error) {
	if r.c != nil {
		return r.c, nil
	}
	dial := r.policy.Dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			d := net.Dialer{Timeout: r.policy.DialTimeout}
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	dctx, cancel := context.WithTimeout(ctx, r.policy.DialTimeout)
	conn, err := dial(dctx, r.addr)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", r.addr, err)
	}
	c := NewClient(conn)
	r.c, r.conn = c, conn
	r.armDeadline(ctx)
	defer r.disarmDeadline()

	if r.token == "" {
		reply, err := c.Open(r.cfg)
		if err != nil {
			r.dropConn()
			return nil, r.checkCtx(ctx, err)
		}
		r.reply = reply
		r.token = reply.Token
		r.connected = true
		return c, nil
	}

	if r.connected {
		r.stats.Reconnects++
	}
	reply, err := c.Resume(r.cfg, r.token, r.lastAcked)
	if err != nil {
		r.dropConn()
		return nil, r.checkCtx(ctx, err)
	}
	r.reply = reply
	r.connected = true
	r.noteAcked(reply.ResumeSeq)
	if reply.Done {
		// The session finished server-side; nothing to replay, the
		// retried Finish will fetch the retained result.
		return c, nil
	}
	for _, p := range r.pending {
		if c.NextSeq() != p.seq {
			r.dropConn()
			return nil, fmt.Errorf("wire: resume replay gap: connection at %d, buffered batch %d", c.NextSeq(), p.seq)
		}
		r.armDeadline(ctx) // a fresh window per replayed batch
		if err := c.sendEncoded(p.payload); err != nil {
			r.dropConn()
			return nil, r.checkCtx(ctx, err)
		}
		r.stats.ReplayedBatches++
	}
	return c, nil
}

// noteAcked records a durable acknowledgment: batches up to seq are
// captured in a server checkpoint and leave the replay buffer.
func (r *ReconnectingClient) noteAcked(seq uint64) {
	if seq <= r.lastAcked {
		return
	}
	r.lastAcked = seq
	r.stats.AckedSeq = seq
	keep := r.pending[:0]
	for _, p := range r.pending {
		if p.seq > seq {
			keep = append(keep, p)
		} else {
			replayBufs.Put(p.payload)
		}
	}
	r.pending = keep
}

// backoff sleeps the exponential, jittered delay for the given failure
// count, honoring a server-provided retry-after hint and ctx.
func (r *ReconnectingClient) backoff(ctx context.Context, failures int, lastErr error) error {
	d := r.policy.BaseDelay << (failures - 1)
	if d <= 0 || d > r.policy.MaxDelay {
		d = r.policy.MaxDelay
	}
	// ±50% jitter, deterministic from the policy seed.
	d = d/2 + time.Duration(r.rng.Uint64n(uint64(d)+1))
	var ra *RetryAfterError
	if errors.As(lastErr, &ra) && ra.After > d {
		d = ra.After
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// armDeadline bounds the next RPC's I/O: OpTimeout from now, or the
// context deadline if that is sooner.
func (r *ReconnectingClient) armDeadline(ctx context.Context) {
	d := time.Now().Add(r.policy.OpTimeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(d) {
		d = cd
	}
	r.conn.SetDeadline(d)
}

func (r *ReconnectingClient) disarmDeadline() {
	if r.conn != nil {
		r.conn.SetDeadline(time.Time{})
	}
}

// checkCtx prefers the context's cancellation/deadline error over the
// I/O error it caused, so callers see context.DeadlineExceeded rather
// than a timeout dressed as a transport fault.
func (r *ReconnectingClient) checkCtx(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// dropConn closes and forgets the current connection.
func (r *ReconnectingClient) dropConn() {
	if r.c != nil {
		r.c.Close()
		r.c, r.conn = nil, nil
	}
}
