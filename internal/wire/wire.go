// Package wire defines the streaming protocol between rdx clients and
// the rdxd profiling daemon: a length-prefixed frame layer, the JSON
// control/result messages carried in frames, and the compressed
// columnar access-batch payload (see EncodeColumns).
//
// # Framing
//
// Every frame is
//
//	length [4]byte  big-endian; covers type + checksum + payload
//	type   byte     FrameType
//	crc    [4]byte  big-endian IEEE crc32 over type + payload
//	payload         length-5 bytes
//
// The checksum makes in-flight corruption a detectable transport error
// everywhere at once — batch sequence numbers, acks, JSON results and
// the open handshake — instead of silently altering profile data. A
// frame that fails its checksum is indistinguishable from a cut
// connection: the client reconnects and resumes, the server checkpoints
// the session as disconnected.
//
// Frames never interleave within one direction of a connection. The
// client speaks first (FrameOpen); the server replies to each
// result-bearing request (FrameSnapshot, FrameFinish, FrameSync) in
// request order, so the client can match replies without ids. Every
// server frame answers exactly one request: the server never speaks
// unasked. FrameError may replace any reply and is terminal for the
// session; FrameRetryAfter may replace the open reply and asks the
// client to come back later; FrameMoved may replace any reply of a
// migrated session.
//
// # Batch payloads
//
// A FrameBatchV3 payload is an 8-byte big-endian sequence number, a
// 4-byte big-endian access count, then the address, PC and meta
// columns, each in its own section with an encoding tag, a length and
// a crc32 (see EncodeColumns). Sequence numbers start at 1 and
// increase by 1 per batch within a session; a resumed session replays
// its unacknowledged tail and the server discards batches whose
// sequence number it has already executed, making replay idempotent.
// Delta state resets at each frame boundary, so frames are
// independently decodable, and a frame cut off by a dying connection
// fails the frame layer's checks instead of executing half-way.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/footprint"
	"repro/internal/histogram"
)

// FrameType identifies a frame's meaning and payload encoding.
type FrameType uint8

const (
	// FrameOpen (client→server) opens a session; payload OpenRequest.
	FrameOpen FrameType = 0x01
	// FrameSnapshot (client→server) requests a live intermediate result;
	// empty payload.
	FrameSnapshot FrameType = 0x03
	// FrameFinish (client→server) ends the stream and requests the final
	// result; empty payload.
	FrameFinish FrameType = 0x04
	// FrameSync (client→server) asks the server to durably checkpoint
	// the session and acknowledge the last executed batch sequence
	// number; empty payload. The reply is FrameAck.
	FrameSync FrameType = 0x05
	// FrameBatchV3 (client→server) is the columnar batch frame: one
	// access batch in the column encoding of EncodeColumns. Types 0x02
	// and 0x08 are unassigned: a session that receives either fails.
	FrameBatchV3 FrameType = 0x06
	// FrameHandoff (backend→backend) transfers one retained session
	// state — a live checkpoint or a finished session's final result —
	// during live migration. It is sent as a connection's first frame
	// in place of FrameOpen; the receiver installs the state durably
	// and answers FrameHandoffOK. Payload: see EncodeHandoff.
	FrameHandoff FrameType = 0x07

	// FrameOpenOK (server→client) acknowledges FrameOpen; payload
	// OpenReply.
	FrameOpenOK FrameType = 0x10
	// FrameResult (server→client) carries the final Result (JSON).
	FrameResult FrameType = 0x11
	// FrameSnapshotResult (server→client) carries an intermediate Result
	// (JSON).
	FrameSnapshotResult FrameType = 0x12
	// FrameError (server→client) carries a UTF-8 error message and ends
	// the session.
	FrameError FrameType = 0x13
	// FrameAck (server→client) answers FrameSync; payload is the 8-byte
	// big-endian sequence number of the last batch covered by a durable
	// checkpoint. The client may discard its replay buffer up to it.
	FrameAck FrameType = 0x14
	// FrameRetryAfter (server→client) replaces the open reply when the
	// server is at capacity or draining; payload RetryAfter (JSON). The
	// session was not admitted and the client should back off.
	FrameRetryAfter FrameType = 0x15
	// FrameMoved (server→client) replaces any reply when the session has
	// been migrated to another backend; payload Moved (JSON). The client
	// should reconnect to the named backend and resume by token there.
	FrameMoved FrameType = 0x16
	// FrameHandoffOK (server→backend) acknowledges FrameHandoff: the
	// transferred session state is installed durably and a client
	// resuming by token will find it; empty payload. Types 0x18 and
	// 0x19 are unassigned.
	FrameHandoffOK FrameType = 0x17
)

// String names the frame type for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameOpen:
		return "open"
	case FrameSnapshot:
		return "snapshot"
	case FrameFinish:
		return "finish"
	case FrameSync:
		return "sync"
	case FrameBatchV3:
		return "batch"
	case FrameHandoff:
		return "handoff"
	case FrameOpenOK:
		return "open-ok"
	case FrameResult:
		return "result"
	case FrameSnapshotResult:
		return "snapshot-result"
	case FrameError:
		return "error"
	case FrameAck:
		return "ack"
	case FrameRetryAfter:
		return "retry-after"
	case FrameMoved:
		return "moved"
	case FrameHandoffOK:
		return "handoff-ok"
	default:
		return fmt.Sprintf("FrameType(%#x)", uint8(t))
	}
}

// MaxFramePayload bounds a frame payload. It exists to stop a corrupt or
// hostile length prefix from allocating unbounded memory; legitimate
// batch frames are a few hundred KiB.
const MaxFramePayload = 64 << 20

// MaxOpenPayload bounds the JSON payload of the open handshake's
// frames: the open request and the open reply, retry-after and moved
// answers. Legitimate ones are a few hundred bytes. A string of invalid
// UTF-8 costs a JSON decoder up to about 40 heap bytes per payload
// byte, so without the bound one hostile 64 MiB frame could make a
// daemon or client allocate gigabytes.
const MaxOpenPayload = 64 << 10

// frameOverhead is the frame body's fixed prefix: type byte + crc32.
const frameOverhead = 5

// frameCRC computes the checksum carried in a frame: IEEE crc32 over
// the type byte followed by the payload.
// typeCRCs[b] is the crc32 state after hashing the single byte b — the
// type-byte prefix of every frame checksum. Precomputing it keeps
// frameCRC to one crc32.Update call over the payload: a per-call byte
// buffer would escape through Update and cost a heap allocation per
// frame.
var typeCRCs = func() (t [256]uint32) {
	var b [1]byte
	for i := range t {
		b[0] = byte(i)
		t[i] = crc32.Update(0, crc32.IEEETable, b[:])
	}
	return
}()

func frameCRC(t FrameType, payload []byte) uint32 {
	return crc32.Update(typeCRCs[byte(t)], crc32.IEEETable, payload)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("wire: %s frame payload %d bytes exceeds limit %d", t, len(payload), MaxFramePayload)
	}
	hp := hdrPool.Get().(*[9]byte)
	defer hdrPool.Put(hp)
	hdr := hp[:]
	binary.BigEndian.PutUint32(hdr[:4], uint32(frameOverhead+len(payload)))
	hdr[4] = byte(t)
	binary.BigEndian.PutUint32(hdr[5:], frameCRC(t, payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readChunk bounds the up-front allocation while reading a
// length-prefixed body beyond maxPooledPayload: memory grows
// with the bytes actually received, so a lying length prefix cannot
// allocate MaxFramePayload up front.
const readChunk = 1 << 20

// ReadFrame reads one frame from r, verifying its checksum. io.EOF is
// returned untouched when the stream ends cleanly between frames; a
// stream cut inside a frame, an impossible length, or a checksum
// mismatch (in-flight corruption) returns a descriptive error. The
// payload is freshly allocated; a reader of many frames should prefer
// ReadFrameInto.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	return readFrame(r, nil, false)
}

// ReadFrameInto is ReadFrame reading the payload into *buf, which it
// replaces with a larger buffer when the frame does not fit (keeping
// at most maxPooledPayload). The payload aliases *buf and is valid
// until the next read into it: a connection reads every frame into its
// own buffer, so its steady-state frame reads allocate nothing.
func ReadFrameInto(r io.Reader, buf *[]byte) (FrameType, []byte, error) {
	return readFrame(r, buf, false)
}

// ReadFramePooled is ReadFrame drawing the payload from the payload
// size classes, for a reader without a buffer of its own. The caller
// must release the payload with PutPayload once nothing references its
// contents — typically immediately after decoding it.
func ReadFramePooled(r io.Reader) (FrameType, []byte, error) {
	return readFrame(r, nil, true)
}

// hdrPool recycles frame-prefix scratch buffers. A local [9]byte array
// in readFrame escapes through the io.ReadFull interface call and costs
// one heap allocation per frame; pool Get/Put on an array pointer is
// allocation-free in both directions.
var hdrPool = sync.Pool{New: func() any { return new([9]byte) }}

func readFrame(r io.Reader, buf *[]byte, pooled bool) (FrameType, []byte, error) {
	hp := hdrPool.Get().(*[9]byte)
	defer hdrPool.Put(hp)
	hdr := hp[:]
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: stream cut inside frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 {
		return 0, nil, fmt.Errorf("wire: zero-length frame")
	}
	if n < frameOverhead {
		return 0, nil, fmt.Errorf("wire: %d-byte frame shorter than its %d-byte fixed prefix", n, frameOverhead)
	}
	if n > MaxFramePayload+frameOverhead {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFramePayload+frameOverhead)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return 0, nil, fmt.Errorf("wire: stream cut inside frame prefix: %w", err)
	}
	t := FrameType(hdr[4])
	want := binary.BigEndian.Uint32(hdr[5:])

	size := int(n) - frameOverhead
	var payload []byte
	if size <= maxPooledPayload && (buf != nil || pooled) {
		// Kept buffers top out at maxPooledPayload, so the up-front
		// allocation a lying prefix can force stays bounded even here.
		if pooled {
			payload = GetPayload(size)
		} else {
			poolGets.Add(1)
			if cap(*buf) < size {
				poolMisses.Add(1)
				*buf = make([]byte, size)
			}
			payload = (*buf)[:size]
		}
		if _, err := io.ReadFull(r, payload); err != nil {
			if pooled {
				PutPayload(payload)
			}
			return 0, nil, fmt.Errorf("wire: stream cut inside %d-byte frame: %w", n, err)
		}
	} else {
		// Single destination slice, grown chunk by chunk as the bytes
		// actually arrive and filled in place — no per-chunk scratch
		// buffer.
		payload = make([]byte, 0, min(size, readChunk))
		for len(payload) < size {
			take := min(size-len(payload), readChunk)
			off := len(payload)
			payload = grow(payload, take)[:off+take]
			if _, err := io.ReadFull(r, payload[off:]); err != nil {
				return 0, nil, fmt.Errorf("wire: stream cut inside %d-byte frame: %w", n, err)
			}
		}
	}
	if got := frameCRC(t, payload); got != want {
		if pooled {
			PutPayload(payload)
		}
		return 0, nil, fmt.Errorf("wire: %s frame checksum mismatch (corrupt stream)", t)
	}
	return t, payload, nil
}

// grow extends buf's capacity by at least n bytes without zero-filling
// scratch chunks (append-style amortized doubling).
func grow(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	next := make([]byte, len(buf), max(2*cap(buf), len(buf)+n))
	copy(next, buf)
	return next
}

// OpenRequest is the payload of FrameOpen: the profiler configuration
// the session should run. The config round-trips exactly (integer and
// boolean fields, and a float encoded with Go's shortest-exact rule), so
// a remote profile is bit-identical to a local one with the same config.
//
// A reconnecting client resuming an interrupted session sets
// ResumeToken to the token from its original open reply and LastAcked
// to the highest batch sequence number the server has acknowledged; the
// server restores the session from its checkpoint and the client
// replays its unacknowledged tail.
type OpenRequest struct {
	Config      core.Config `json:"config"`
	ResumeToken string      `json:"resume_token,omitempty"`
	LastAcked   uint64      `json:"last_acked,omitempty"`
	// Wire is the wire version the client speaks. The server rejects an
	// open whose version is not WireV4.
	Wire int `json:"wire,omitempty"`
}

// OpenReply is the payload of FrameOpenOK: the session id, the server's
// flow-control geometry (which a client can use to size its batches),
// and the session's fault-tolerance coordinates.
type OpenReply struct {
	SessionID  uint64 `json:"session_id"`
	QueueDepth int    `json:"queue_depth"`
	MaxBatch   int    `json:"max_batch"`
	// Token identifies this session for a later resume. It doubles as a
	// bearer credential, so clients should not log it.
	Token string `json:"token,omitempty"`
	// ResumeSeq is the sequence number of the last batch the restored
	// session has already executed (0 on a fresh open). The client must
	// replay batches after it and discard batches up to it.
	ResumeSeq uint64 `json:"resume_seq,omitempty"`
	// Done reports that the session already finished and its final
	// result is retained: the client should skip straight to Finish.
	// It covers the race where the final result frame is lost in flight
	// after the server completed the session.
	Done bool `json:"done,omitempty"`
	// CheckpointEvery is the server's periodic checkpoint interval in
	// batches (0 = only on disconnect), a hint for client sync cadence.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Wire is the wire version the session uses, always WireV4; a client
	// rejects any other.
	Wire int `json:"wire,omitempty"`
}

// RetryAfter is the payload of FrameRetryAfter: the server refused to
// admit the session and suggests when to try again.
type RetryAfter struct {
	AfterMillis int64  `json:"after_ms"`
	Reason      string `json:"reason"`
}

// RetryAfterError is the error ReconnectingClient and Client surface
// when the server sheds an open with FrameRetryAfter.
type RetryAfterError struct {
	After  time.Duration
	Reason string
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("wire: server busy (%s), retry after %v", e.Reason, e.After)
}

// Result is the serializable profile exchanged between daemon and
// client: everything a Result-consuming report or dashboard needs —
// counters, modelled overhead, both histograms and the code-pair
// attribution. (The in-memory footprint estimator is rebuildable from
// ReuseTime via footprint.NewEstimatorFromHistogram and is not shipped.)
type Result struct {
	Config        core.Config          `json:"config"`
	Accesses      uint64               `json:"accesses"`
	Samples       uint64               `json:"samples"`
	ArmedSamples  uint64               `json:"armed_samples"`
	Traps         uint64               `json:"traps"`
	ReusePairs    uint64               `json:"reuse_pairs"`
	ColdSamples   uint64               `json:"cold_samples"`
	Dropped       uint64               `json:"dropped"`
	Evicted       uint64               `json:"evicted"`
	Duplicates    uint64               `json:"duplicates"`
	StateBytes    uint64               `json:"state_bytes"`
	TimeOverhead  float64              `json:"time_overhead"`
	ReuseTime     *histogram.Histogram `json:"reuse_time"`
	ReuseDistance *histogram.Histogram `json:"reuse_distance"`
	Attribution   core.Attribution     `json:"attribution,omitempty"`
	// Account is the full cycle account behind TimeOverhead (integer
	// counters, so it round-trips exactly). Shipping it makes ToCore a
	// true inverse of FromCore: a result converted to wire form and back
	// is interchangeable with the original, overhead model included.
	Account *cpumodel.Account `json:"account,omitempty"`
	// Final distinguishes the end-of-session result from a live
	// snapshot.
	Final bool `json:"final"`
}

// FromCore converts a core profiling result to its wire form.
func FromCore(res *core.Result, final bool) *Result {
	return &Result{
		Config:        res.Config,
		Accesses:      res.Accesses,
		Samples:       res.Samples,
		ArmedSamples:  res.ArmedSamples,
		Traps:         res.Traps,
		ReusePairs:    res.ReusePairs,
		ColdSamples:   res.ColdSamples,
		Dropped:       res.Dropped,
		Evicted:       res.Evicted,
		Duplicates:    res.Duplicates,
		StateBytes:    res.StateBytes,
		TimeOverhead:  res.TimeOverhead(),
		ReuseTime:     res.ReuseTime,
		ReuseDistance: res.ReuseDistance,
		Attribution:   res.Attribution,
		Account:       res.Account,
		Final:         final,
	}
}

// ToCore converts a wire result back to the in-memory core form — the
// inverse of FromCore, making local and remote profiles fully
// interchangeable. Every field that crosses the wire round-trips
// bit-identically (histogram weights and attribution floats use Go's
// shortest-exact JSON encoding; the cycle account is integers). The one
// reconstruction is Result.Footprint, which is never shipped: it is
// rebuilt from the reuse-time histogram at bucket resolution
// (footprint.NewEstimatorFromHistogram), which preserves fp(w)
// evaluation closely but is not the sample-level original. Nothing a
// Merger consumes depends on it.
func ToCore(res *Result) *core.Result {
	r := &core.Result{
		Config:        res.Config,
		ReuseTime:     res.ReuseTime,
		ReuseDistance: res.ReuseDistance,
		Attribution:   res.Attribution,
		Account:       res.Account,
		Accesses:      res.Accesses,
		Samples:       res.Samples,
		ArmedSamples:  res.ArmedSamples,
		Traps:         res.Traps,
		ReusePairs:    res.ReusePairs,
		ColdSamples:   res.ColdSamples,
		Dropped:       res.Dropped,
		Evicted:       res.Evicted,
		Duplicates:    res.Duplicates,
		StateBytes:    res.StateBytes,
	}
	if res.ReuseTime != nil {
		r.Footprint = footprint.NewEstimatorFromHistogram(res.ReuseTime, res.Accesses)
	}
	return r
}
