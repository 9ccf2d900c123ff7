package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/freelist"
	"repro/internal/mem"
	"repro/internal/trace"
)

// ErrRemote wraps error messages reported by the daemon, so callers can
// distinguish a server-side rejection from a transport failure.
var ErrRemote = errors.New("wire: remote error")

// DefaultDialTimeout bounds each connection attempt unless a
// RetryPolicy or a handoff sets its own.
const DefaultDialTimeout = 10 * time.Second

// Client is one profiling session against an rdxd daemon. It is not safe
// for concurrent use; a caller wanting parallel sessions opens one
// Client per session (the daemon multiplexes).
type Client struct {
	conn    net.Conn
	bufs    *connBuffers // returned to connBufs at Close
	enc     batchEncoder // returned to encoders at Close
	opened  bool
	done    bool
	closed  bool // Close ran; the buffers are gone
	reply   OpenReply
	nextSeq uint64 // sequence number of the next batch (first batch is 1)
}

// Dial connects a plain Client to an rdxd daemon, giving up after
// DefaultDialTimeout. A plain Client is driven by hand and has no
// fault tolerance; streaming a Reader is ReconnectingClient.Profile's
// job.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// connBuffers is what a client connection reads and writes through:
// its bufio pair and the buffer it reads every frame into. A Client
// holds one set from NewClient to Close.
type connBuffers struct {
	br    *bufio.Reader
	bw    *bufio.Writer
	frame []byte
}

// connBufs holds the client connections' buffer sets (see pool.go).
var connBufs = freelist.New[*connBuffers](clientFloor)

// NewClient wraps an established connection (loopback pipes in tests,
// TCP in production).
func NewClient(conn net.Conn) *Client {
	b := acquire(connBufs)
	if b.br == nil {
		b.br = bufio.NewReaderSize(conn, 64<<10)
		b.bw = bufio.NewWriterSize(conn, 256<<10)
	} else {
		b.br.Reset(conn)
		b.bw.Reset(conn)
	}
	return &Client{conn: conn, bufs: b}
}

// batchEncoder is the scratch batches are encoded through: columns and
// a payload buffer, taken from encoders on first use and reused, so a
// steady-state encode allocates nothing.
type batchEncoder struct {
	s *encodeScratch
}

type encodeScratch struct {
	cols    trace.Columns
	payload []byte
}

// encoders holds the encode scratch of ended encoders (see pool.go).
var encoders = freelist.New[*encodeScratch](clientFloor)

// encode encodes accs as batch seq. The returned slice is valid until
// the next encode.
func (e *batchEncoder) encode(seq uint64, accs []mem.Access) ([]byte, error) {
	if e.s == nil {
		e.s = acquire(encoders)
	}
	e.s.cols.Reset()
	e.s.cols.AppendBatch(accs)
	var err error
	e.s.payload, err = EncodeColumns(e.s.payload[:0], seq, &e.s.cols)
	return e.s.payload, err
}

// release returns the scratch to encoders.
func (e *batchEncoder) release() {
	if e.s != nil {
		release(encoders, e.s)
		e.s = nil
	}
}

// Open starts the session with the given profiler configuration and
// returns the server's session geometry. If the server sheds the open
// (at capacity or draining), the error is a *RetryAfterError.
func (c *Client) Open(cfg core.Config) (OpenReply, error) {
	return c.open(OpenRequest{Config: cfg})
}

// Resume reopens an interrupted session identified by token: the server
// restores it from its checkpoint and reports, via OpenReply.ResumeSeq,
// the last batch sequence number already executed. The caller replays
// batches after it (SetNextSeq positions the outgoing counter).
func (c *Client) Resume(cfg core.Config, token string, lastAcked uint64) (OpenReply, error) {
	return c.open(OpenRequest{Config: cfg, ResumeToken: token, LastAcked: lastAcked})
}

func (c *Client) open(req OpenRequest) (OpenReply, error) {
	if c.opened {
		return OpenReply{}, fmt.Errorf("wire: session already open")
	}
	req.Wire = WireV4
	body, err := json.Marshal(req)
	if err != nil {
		return OpenReply{}, err
	}
	if err := c.send(FrameOpen, body); err != nil {
		return OpenReply{}, err
	}
	payload, err := c.expect(FrameOpenOK)
	if err != nil {
		return OpenReply{}, err
	}
	reply, err := decodeOpenReply(payload)
	if err != nil {
		return OpenReply{}, err
	}
	c.reply = reply
	c.opened = true
	c.nextSeq = c.reply.ResumeSeq + 1
	return c.reply, nil
}

// NextSeq returns the sequence number the next SendBatch will use.
func (c *Client) NextSeq() uint64 { return c.nextSeq }

// SetNextSeq positions the outgoing batch sequence counter, used when
// replaying an unacknowledged tail after a resume.
func (c *Client) SetNextSeq(seq uint64) { c.nextSeq = seq }

// SendBatch streams one batch of accesses to the session. It blocks when
// the daemon applies backpressure (its bounded session queue is full and
// the transport buffers have filled) — the client slows to the daemon's
// pace instead of growing a queue.
func (c *Client) SendBatch(accs []mem.Access) error {
	if err := c.ensureStreaming(); err != nil {
		return err
	}
	if len(accs) == 0 {
		return nil
	}
	payload, err := c.enc.encode(c.nextSeq, accs)
	if err != nil {
		return err
	}
	return c.sendEncoded(payload)
}

// sendEncoded streams one encoded batch payload (EncodeColumns) whose
// sequence number must be the connection's next, and advances it. A
// ReconnectingClient sends each batch's bytes through here first and
// resends the same bytes when it replays the batch after a resume.
func (c *Client) sendEncoded(payload []byte) error {
	if err := c.ensureStreaming(); err != nil {
		return err
	}
	if seq := binary.BigEndian.Uint64(payload); seq != c.nextSeq {
		return fmt.Errorf("wire: encoded batch %d out of order: connection at %d", seq, c.nextSeq)
	}
	if err := c.send(FrameBatchV3, payload); err != nil {
		return err
	}
	c.nextSeq++
	return nil
}

// Sync asks the server to durably checkpoint the session and returns
// the acknowledged batch sequence number: every batch up to it has been
// executed and captured in a checkpoint, so a replay buffer can be
// trimmed to the batches after it.
func (c *Client) Sync() (uint64, error) {
	if err := c.ensureStreaming(); err != nil {
		return 0, err
	}
	if err := c.send(FrameSync, nil); err != nil {
		return 0, err
	}
	payload, err := c.expect(FrameAck)
	if err != nil {
		return 0, err
	}
	if len(payload) != 8 {
		return 0, fmt.Errorf("wire: ack payload of %d bytes, want 8", len(payload))
	}
	return binary.BigEndian.Uint64(payload), nil
}

// Snapshot requests a live intermediate result: the profile the session
// would report if the stream ended now. The session keeps running.
func (c *Client) Snapshot() (*Result, error) {
	if err := c.ensureStreaming(); err != nil {
		return nil, err
	}
	if err := c.send(FrameSnapshot, nil); err != nil {
		return nil, err
	}
	return c.readResult(FrameSnapshotResult)
}

// Finish ends the stream and returns the session's final result.
func (c *Client) Finish() (*Result, error) {
	if err := c.ensureStreaming(); err != nil {
		return nil, err
	}
	c.done = true
	if err := c.send(FrameFinish, nil); err != nil {
		return nil, err
	}
	return c.readResult(FrameResult)
}

// Close releases the connection and returns the client's buffers.
// Closing without Finish abandons the session; the daemon frees its
// state. The client is unusable afterwards.
func (c *Client) Close() error {
	err := c.conn.Close()
	if c.closed {
		return err
	}
	c.closed = true
	c.bufs.br.Reset(nil)
	c.bufs.bw.Reset(nil)
	release(connBufs, c.bufs)
	c.bufs = nil
	c.enc.release()
	return err
}

// ProfileOptions tunes ReconnectingClient.Profile.
type ProfileOptions struct {
	// BatchSize is the number of accesses per frame (default
	// trace.DefaultBatchSize).
	BatchSize int
}

func (c *Client) ensureStreaming() error {
	if !c.opened {
		return fmt.Errorf("wire: session not open")
	}
	if c.done {
		return fmt.Errorf("wire: session already finished")
	}
	return nil
}

// send writes one frame and flushes, so server-side backpressure
// propagates to the caller as a blocking write.
func (c *Client) send(t FrameType, payload []byte) error {
	if c.closed {
		return fmt.Errorf("wire: client is closed")
	}
	if err := WriteFrame(c.bufs.bw, t, payload); err != nil {
		return err
	}
	return c.bufs.bw.Flush()
}

// expect reads the server's reply to the pending request, converting
// FrameError into an ErrRemote-wrapped error, FrameRetryAfter into a
// *RetryAfterError and FrameMoved into a *MovedError; any other frame
// but the wanted one is an error. The payload is the connection's
// frame buffer, valid until the next read: callers decode it before
// reading again.
func (c *Client) expect(want FrameType) ([]byte, error) {
	if c.closed {
		return nil, fmt.Errorf("wire: client is closed")
	}
	t, payload, err := ReadFrameInto(c.bufs.br, &c.bufs.frame)
	if err == io.EOF {
		return nil, fmt.Errorf("wire: server closed the connection before replying")
	}
	if err != nil {
		return nil, err
	}
	if t == FrameError {
		return nil, fmt.Errorf("%w: %s", ErrRemote, payload)
	}
	if t == FrameRetryAfter {
		ra, err := decodeRetryAfter(payload)
		if err != nil {
			return nil, err
		}
		return nil, ra
	}
	if t == FrameMoved {
		mv, err := decodeMoved(payload)
		if err != nil {
			return nil, err
		}
		return nil, mv
	}
	if t != want {
		return nil, fmt.Errorf("wire: server sent %s frame, want %s", t, want)
	}
	return payload, nil
}

// unmarshalOpen decodes the JSON payload of a server's answer to an
// open into v, refusing one over MaxOpenPayload.
func unmarshalOpen(what string, payload []byte, v any) error {
	if len(payload) > MaxOpenPayload {
		return fmt.Errorf("wire: %s of %d bytes exceeds limit %d", what, len(payload), MaxOpenPayload)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("wire: decoding %s: %w", what, err)
	}
	return nil
}

// decodeOpenReply decodes a FrameOpenOK payload, refusing any wire
// version but WireV4.
func decodeOpenReply(payload []byte) (OpenReply, error) {
	var r OpenReply
	if err := unmarshalOpen("open reply", payload, &r); err != nil {
		return OpenReply{}, err
	}
	if r.Wire != WireV4 {
		return OpenReply{}, fmt.Errorf("wire: server answered with wire version %d: this client speaks only version %d", r.Wire, WireV4)
	}
	return r, nil
}

// maxRetryAfterMillis is the longest retry-after hint a time.Duration
// holds.
const maxRetryAfterMillis = math.MaxInt64 / int64(time.Millisecond)

// decodeRetryAfter decodes a FrameRetryAfter payload into the error the
// open fails with, refusing a negative hint or one no Duration holds.
func decodeRetryAfter(payload []byte) (*RetryAfterError, error) {
	var ra RetryAfter
	if err := unmarshalOpen("retry-after", payload, &ra); err != nil {
		return nil, err
	}
	if ra.AfterMillis < 0 || ra.AfterMillis > maxRetryAfterMillis {
		return nil, fmt.Errorf("wire: retry-after hint of %d ms is out of range", ra.AfterMillis)
	}
	return &RetryAfterError{After: time.Duration(ra.AfterMillis) * time.Millisecond, Reason: ra.Reason}, nil
}

// decodeMoved decodes a FrameMoved payload into the redirect error,
// refusing one without an address.
func decodeMoved(payload []byte) (*MovedError, error) {
	var mv Moved
	if err := unmarshalOpen("moved redirect", payload, &mv); err != nil {
		return nil, err
	}
	if mv.Addr == "" {
		return nil, fmt.Errorf("wire: moved redirect without an address")
	}
	return &MovedError{Addr: mv.Addr, Admin: mv.Admin, Seq: mv.Seq}, nil
}

func (c *Client) readResult(want FrameType) (*Result, error) {
	payload, err := c.expect(want)
	if err != nil {
		return nil, err
	}
	return decodeResult(payload)
}

// decodeResult decodes a FrameSnapshotResult or FrameResult payload.
func decodeResult(payload []byte) (*Result, error) {
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, fmt.Errorf("wire: decoding result: %w", err)
	}
	return &res, nil
}
